"""Exception types shared across the package, and the quoting of an
offending value in their messages."""

#: the most characters of an offending value that an error message quotes
QUOTE_LIMIT = 80


def clipped(text: str) -> str:
    """``text`` cut to its first ``QUOTE_LIMIT`` characters and ``…`` when
    longer: for a message that names words of the command line as typed."""
    return text if len(text) <= QUOTE_LIMIT else text[:QUOTE_LIMIT] + "…"


def quoted(value) -> str:
    """``repr(value)``, cut to its first ``QUOTE_LIMIT`` characters and
    ``…`` when longer, so an error line stays short whatever it names.  A
    string is cut before its ``repr``, so its quotes stay whole."""
    if isinstance(value, str):
        return repr(value) if len(value) <= QUOTE_LIMIT else repr(value[:QUOTE_LIMIT]) + "…"
    return clipped(repr(value))


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
