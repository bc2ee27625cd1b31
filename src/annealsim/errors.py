"""Exception types and the one integer check shared across the simulator.
A run that fails numerically raises none: it comes back flagged non-converged."""

import operator


class CapacityError(RuntimeError):
    """Requested system size exceeds the documented memory limits."""


def check_integer(name: str, value) -> int:
    """``value`` as an int if it is an integer (``operator.index``: no float,
    however whole), else a ValueError naming ``name``."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
