"""Exception types shared across the simulator.  A run that fails
numerically raises none: it comes back flagged non-converged."""


class CapacityError(RuntimeError):
    """Requested system size exceeds the documented memory limits."""
