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
    def check(cls, name: str, n: int, max_n, default: int, size, work: str, unit: str = "n <= {}") -> None:
        """The one budget gate: refuse ``n`` above ``name``'s cap ``max_n``
        (``None`` means ``default``; else a non-negative ``int``, not a
        ``bool``), naming the cap by ``unit`` and the ``work`` refused:
        ``size^n`` units for an int ``size``, else ``size(n)``."""
        if max_n is None:
            max_n = default
        elif type(max_n) is not int or max_n < 0:
            raise ValidationError(f"{name} cap must be None or a non-negative int, got {quoted(max_n)}")
        if n > max_n:
            amount = size(n) if callable(size) else f"{size}^{n} = {size**n:,}"
            raise cls(f"{name} capped at {unit.format(max_n)}, got {n} ({amount} {work})")


class ConsistencyError(TwualityError):
    """An internal re-verification failed; indicates a bug, not bad input."""
