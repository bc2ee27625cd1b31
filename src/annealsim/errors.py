"""Exception types and the one integer check shared across the simulator.
A run that fails numerically raises none: it comes back flagged non-converged."""

import operator


class CapacityError(RuntimeError):
    """Requested system size exceeds the documented memory limits."""


def check_integer(name: str, value, minimum: int | None = None) -> int:
    """``value`` as an int if it is an integer (``operator.index``: no float,
    however whole, and no bool) of at least ``minimum``, else a ValueError
    naming ``name``."""
    try:
        count = operator.index(value)
        if not isinstance(value, bool) and (minimum is None or count >= minimum):
            return count
    except TypeError:
        pass
    bound = "" if minimum is None else f" >= {minimum}"
    raise ValueError(f"{name} must be an integer{bound}, got {value!r}")
