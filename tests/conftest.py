import numpy as np
import pytest


def _pair(const, ramp):
    """The kernel's ``apply(v, a_out, b_out)`` from two maps, A_0 and B.

    Each map is a matrix, applied as ``m @ v``, or a function that returns
    a new array; the pair copies their results into the kernel's buffers.
    """
    apply_const, apply_ramp = (m if callable(m) else m.__matmul__ for m in (const, ramp))

    def apply(v, a_out, b_out):
        np.copyto(a_out, apply_const(v))
        np.copyto(b_out, apply_ramp(v))

    return apply


@pytest.fixture
def pair():
    """Generator pairs for the kernel from matrices or returning maps (see _pair)."""
    return _pair
