"""Tests of the benchmark itself:  python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run

run.import_program()

import checks  # noqa: E402  (needs annealsim on the path)
import reference  # noqa: E402

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_perturbed_probability_fails():
    assert checks.reference_problems(0.5, 0.5 + 2e-7) == []
    assert checks.reference_problems(0.5 + 2e-6, 0.5)
    assert checks.instance_problems(1.0 + 1e-6, 1e-12, True)
    assert checks.instance_problems(0.5, 1e-12, True) == []
    assert checks.instance_problems(0.5, 1e-3, True)
    assert checks.instance_problems(0.5, 1e-12, False)


def test_direct_run_must_match_the_ensemble():
    from workloads import WORKLOADS, Outcome

    w = WORKLOADS["ensemble-n8-t10"]
    pooled = [Outcome(0.5, 1e-12, True, 400)] * w.runs
    same = {0: (Outcome(0.5, 1e-12, True, 400), None)}
    moved = {0: (Outcome(0.5 + 1e-9, 1e-12, True, 400), None)}
    assert checks.direct_problems(w, None, [pooled], same) == {0: []}
    assert checks.direct_problems(w, None, [pooled], moved)[0]
    assert checks.direct_problems(w, None, [pooled], {0: (None, None)})[0]


def test_non_psd_density_fails():
    psi = np.array([1.0, 1.0j]) / math.sqrt(2.0)
    sound = np.outer(psi, psi.conj())
    assert checks.density_problems(sound, [0]) == []
    # Hermitian with unit trace, but eigenvalues -0.1 and 1.1.
    bad = np.array([[1.1, 0.0], [0.0, -0.1]], dtype=complex)
    problems = checks.density_problems(bad, [1])
    assert any("not PSD" in p for p in problems)
    assert any("outside [0, 1]" in p for p in problems)
    assert checks.density_problems(sound + 1e-6 * np.array([[0, 1], [0, 0]]), [0])


@pytest.mark.parametrize("t_total", [0.5, 2.0])
def test_reference_integrator_amplitude_damping(t_total):
    lowering = reference.ladder_operator([0, 1])  # |1> decays to |0> at rate 1
    excited = np.diag([0.0, 1.0]).astype(complex)
    rho = reference.master_equation_final(lambda s, r: np.zeros_like(r), lowering, excited,
                                          t_total)
    assert abs(rho[1, 1].real - math.exp(-t_total)) < 1e-9
    assert abs(np.trace(rho) - 1.0) < 1e-12


def test_reference_inputs_match_annealsim():
    import annealsim

    for k in range(3):
        seed = reference.instance_seed(7, k)
        assert seed == annealsim.instance_seed(7, k)
        inst = annealsim.random_ising_half(6, seed)
        assert np.array_equal(reference.instance_couplings(6, seed), inst.couplings)
        assert np.array_equal(reference.ising_energies(inst.couplings)[:32], inst.half_diag)


def _result(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, key):
    done = _result(["--workload", "ensemble-n8-t10", "--seed", "5", "--seconds", "1",
                    "--trace", str(trace)], HERE.parent)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in BENCHMARK[key]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == declared


def test_run_fails_without_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = _result(["--workload", "ensemble-n8-t10", "--seed", "1", "--seconds", "1",
                    "--trace", "0"], tmp_path)
    assert done.returncode != 0
    assert "metrics" not in done.stdout
