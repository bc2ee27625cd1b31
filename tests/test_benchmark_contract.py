import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import annealsim
from annealsim.spin_system import transverse_field_half

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SRC = Path(annealsim.__file__).resolve().parent.parent

CHECK = """
import layers
assert layers.PATCHES
missing = [f"{m.__name__}.{a}" for m, a, _ in layers.PATCHES if not hasattr(m, a)]
assert not missing, missing
"""


def test_benchmark_patch_points_resolve():
    # the traced benchmark patches each (module, attribute) of
    # perfbench/layers.py PATCHES; a renamed or removed one breaks it
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), str(PERFBENCH)])}
    proc = subprocess.run([sys.executable, "-c", CHECK], cwd=PERFBENCH, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.parametrize("n", [8, 18])
def test_driver_exposes_csr_arrays(n):
    # spin_system.driver_bytes sums these three arrays (layers._csr_bytes)
    couplings = transverse_field_half(n).couplings
    for attr in ("data", "indices", "indptr"):
        assert isinstance(getattr(couplings, attr), np.ndarray)
