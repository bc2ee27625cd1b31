import math

import numpy as np
import pytest

from annealsim.taylor_propagator import Generator, _Problems


def _pair(const, ramp, factor=1.0):
    """The kernel's generator of two maps, A_0 and B, with ``factor``.

    Each map is a matrix, applied as ``m @ v``, or a function that returns
    a new array; the pair copies their results into the kernel's buffers.
    A map of the rows serves any set of columns, so the generator narrows
    to itself; it states no bound.
    """
    apply_const, apply_ramp = (m if callable(m) else m.__matmul__ for m in (const, ramp))

    def apply(v, a_out, b_out):
        np.copyto(a_out, apply_const(v))
        np.copyto(b_out, apply_ramp(v))

    gen = Generator(apply, factor, _Problems.squares, math.inf, lambda cols: gen)
    return gen


@pytest.fixture
def pair():
    """Generators for the kernel from matrices or returning maps (see _pair)."""
    return _pair
