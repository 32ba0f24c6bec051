"""Exception types shared across the package."""


class TwualityError(Exception):
    """Base class for all package errors."""


class ValidationError(TwualityError):
    """Malformed or out-of-contract input."""


class BudgetError(TwualityError):
    """An exhaustive routine was asked to exceed its hard cap."""

    @classmethod
    def capped(cls, name: str, cap: str, n: int, base: int, work: str) -> "BudgetError":
        """``name`` is capped at ``cap`` and was asked for ``n``, which would
        take ``base**n`` units of ``work``; the message names them."""
        return cls(f"{name} capped at {cap}, got {n} ({base}^{n} = {base**n:,} {work})")


class ConsistencyError(TwualityError):
    """An internal re-verification failed; indicates a bug, not bad input."""
