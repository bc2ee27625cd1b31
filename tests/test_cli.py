import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import annealsim
from annealsim.cli import _schedule_from, build_parser, main
from annealsim.spin_system import random_ising_half
from annealsim.taylor_propagator import AnnealParams, SegmentSchedule, propagate
from oracle import LZ_P_TWO_SEGMENTS


def run_cli(args):
    try:
        return main(args)
    except SystemExit as exc:  # argparse error path
        return exc.code


def canonical_record(path):
    with open(path) as fh:
        record = json.load(fh)
    record.pop("timing")
    return json.dumps(record, sort_keys=True)


def test_default_schedule_flags():
    parser = build_parser()
    for argv in (["single", "--qubits", "4", "--time", "1", "--seed", "0"],
                 ["lz"],
                 ["lz-sweep", "--out", "x.csv"]):
        assert _schedule_from(parser.parse_args(argv)) == SegmentSchedule()


def test_single_matches_library(tmp_path, capsys):
    out = tmp_path / "run.json"
    code = run_cli(["single", "--qubits", "4", "--time", "4", "--seed", "1",
                    "--out", str(out)])
    stdout = capsys.readouterr().out
    assert code == 0
    res = propagate(AnnealParams(4, 4.0), random_ising_half(4, 1))
    assert f"P = {res.success_p!r}" in stdout
    record = json.loads(out.read_text())
    assert record["result"]["p"] == res.success_p
    assert record["result"]["terms_per_segment"] == res.terms_per_segment
    assert record["schema_version"] == 2


def test_single_no_evolution_limit(capsys):
    code = run_cli(["single", "--qubits", "4", "--time", "1e-8", "--seed", "1"])
    stdout = capsys.readouterr().out
    assert code == 0
    p = float(stdout.split("P = ")[1].splitlines()[0])
    from annealsim.spin_system import ground_space

    d_half = ground_space(random_ising_half(4, 1)).degeneracy
    assert abs(p - d_half / 8.0) < 1e-7


def test_single_invalid_qubits_exits_1(capsys):
    code = run_cli(["single", "--qubits", "1", "--time", "4", "--seed", "1"])
    err = capsys.readouterr().err
    assert code == 1
    assert "usage" in err


def test_single_non_convergence_exits_2(capsys):
    code = run_cli(["single", "--qubits", "3", "--time", "6", "--seed", "0",
                    "--max-terms", "2"])
    stdout = capsys.readouterr().out
    assert code == 2
    assert "converged = False" in stdout
    assert "P = " in stdout  # probability still reported, with the flag


def test_ensemble_json_and_csv(tmp_path, capsys):
    out_json = tmp_path / "ens.json"
    out_csv = tmp_path / "ens.csv"
    base = ["ensemble", "--qubits", "3", "--time", "2", "--runs", "16",
            "--seed", "5", "--bins", "8"]
    assert run_cli(base + ["--out", str(out_json)]) == 0
    assert run_cli(base + ["--out", str(out_csv), "--format", "csv"]) == 0
    capsys.readouterr()
    record = json.loads(out_json.read_text())
    assert record["config"]["runs"] == 16
    assert len(record["instances"]) == 16
    assert sum(record["histogram"]["counts"]) == record["summary"]["converged"]
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0] == "bin_low,bin_high,count"
    assert len(lines) == 9
    counts = [int(row.split(",")[2]) for row in lines[1:]]
    assert counts == record["histogram"]["counts"]


def test_ensemble_worker_count_independence(tmp_path, capsys):
    out1 = tmp_path / "w1.json"
    out8 = tmp_path / "w8.json"
    base = ["ensemble", "--qubits", "3", "--time", "2", "--runs", "24",
            "--seed", "7", "--out"]
    assert run_cli(base + [str(out1), "--workers", "1"]) == 0
    assert run_cli(base + [str(out8), "--workers", "8"]) == 0
    capsys.readouterr()
    assert canonical_record(out1) == canonical_record(out8)


def test_ensemble_empty_out_rejected(capsys):
    code = run_cli(["ensemble", "--qubits", "3", "--time", "2", "--runs", "2",
                    "--seed", "1", "--out", ""])
    assert code == 1


def test_ensemble_lindblad_mode(tmp_path, capsys):
    out = tmp_path / "lind_ens.json"
    code = run_cli(["ensemble", "--qubits", "3", "--time", "2", "--runs", "6",
                    "--seed", "2", "--mode", "lindblad", "--lscale", "0.1",
                    "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    record = json.loads(out.read_text())
    assert record["config"]["mode"] == "lindblad"
    assert record["config"]["l_scale"] == 0.1
    assert sum(record["histogram"]["counts"]) == 6


def test_lindblad_run_and_outputs(tmp_path, capsys):
    out = tmp_path / "lind.json"
    csv_path = tmp_path / "pops.csv"
    code = run_cli(["lindblad", "--qubits", "3", "--time", "2", "--lscale", "0.1",
                    "--seed", "4", "--out", str(out), "--csv", str(csv_path)])
    capsys.readouterr()
    assert code == 0
    record = json.loads(out.read_text())
    assert record["result"]["trace_drift"] < 1e-8
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "state,population"
    pops = np.array([float(r.split(",")[1]) for r in lines[1:]])
    assert pops.shape == (8,)
    assert abs(pops.sum() - 1.0) < 1e-8


def test_lindblad_l0_consistency(tmp_path, capsys):
    out = tmp_path / "l0.json"
    assert run_cli(["lindblad", "--qubits", "3", "--time", "2", "--lscale", "0",
                    "--seed", "4", "--out", str(out)]) == 0
    capsys.readouterr()
    record = json.loads(out.read_text())
    pure = propagate(AnnealParams(3, 2.0), random_ising_half(3, 4))
    assert abs(record["result"]["p"] - pure.success_p) < 1e-6


def test_lindblad_capacity_exits_1(capsys):
    code = run_cli(["lindblad", "--qubits", "12", "--time", "2", "--seed", "1"])
    err = capsys.readouterr().err
    assert code == 1
    assert "error" in err


def test_single_capacity_exits_1(capsys):
    code = run_cli(["single", "--qubits", "21", "--time", "2", "--seed", "1"])
    err = capsys.readouterr().err
    assert code == 1
    assert "error:" in err


def test_ensemble_lindblad_capacity_exits_1(tmp_path, capsys):
    code = run_cli(["ensemble", "--qubits", "11", "--time", "2", "--runs", "2",
                    "--seed", "1", "--mode", "lindblad", "--workers", "2",
                    "--out", str(tmp_path / "ens.json")])
    err = capsys.readouterr().err
    assert code == 1
    assert "error:" in err
    assert not (tmp_path / "ens.json").exists()


def test_lz_prints_paper_value(capsys):
    code = run_cli(["lz", "--delta", "1", "--time", "20", "--segments", "2",
                    "--tol", "1e-14"])
    stdout = capsys.readouterr().out
    assert code == 0
    p = float(stdout.split("P = ")[1].splitlines()[0])
    assert abs(p - LZ_P_TWO_SEGMENTS) < 1e-9


def test_lz_pathology_flag(capsys):
    code = run_cli(["lz", "--pathology"])
    stdout = capsys.readouterr().out
    assert code == 2
    magnitude = float(stdout.split("|psi(1)| = ")[1].splitlines()[0])
    assert magnitude > 1e6
    assert "converged = False" in stdout


def test_lz_sweep_csv(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = run_cli(["lz-sweep", "--tmin", "20", "--tmax", "24", "--points", "5",
                    "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "T,P"
    assert len(lines) == 6
    for row in lines[1:]:
        t, p = (float(tok) for tok in row.split(","))
        assert 0.99 < p <= 1.0


def test_lz_blown_up_runs_are_not_converged(tmp_path, capsys):
    # one segment leaves |psi(1)| at 1e8 at T = 30, and a norm 0.05 off at
    # T = 20.5: neither is a converged answer
    code = run_cli(["lz", "--time", "30", "--segments", "1"])
    stdout = capsys.readouterr().out
    assert code == 2
    assert "converged = False" in stdout
    out = tmp_path / "sweep.csv"
    assert run_cli(["lz-sweep", "--tmin", "20", "--tmax", "20.5", "--points", "2",
                    "--segments", "1", "--out", str(out)]) == 0
    capsys.readouterr()
    assert out.read_text().splitlines()[2] == "20.5,nan"


def test_lz_sweep_bad_points(capsys):
    assert run_cli(["lz-sweep", "--points", "1", "--out", "x.csv"]) == 1


def test_scaling_single_n(tmp_path, capsys):
    out = tmp_path / "scale.csv"
    code = run_cli(["scaling", "--qubits-list", "4", "--time", "2", "--runs", "2",
                    "--out", str(out)])
    stdout = capsys.readouterr().out
    assert code == 0
    assert "N=4" in stdout
    assert "slope" not in stdout
    assert out.read_text().startswith("N,mean_seconds\n")


def test_scaling_bad_list_exits_1(capsys):
    assert run_cli(["scaling", "--qubits-list", "8,ten", "--time", "2"]) == 1
    capsys.readouterr()
    assert run_cli(["scaling", "--qubits-list", "1,4", "--time", "2"]) == 1
    capsys.readouterr()
    # repeated sizes would fit a slope over equal N
    assert run_cli(["scaling", "--qubits-list", "4,4,4", "--time", "1", "--runs", "1"]) == 1
    assert "distinct" in capsys.readouterr().err


def test_rejected_input_exits_1(tmp_path, capsys, monkeypatch):
    # every value the library rejects is a flag error: exit 1, no traceback
    out = str(tmp_path / "x.json")
    ensemble = ["ensemble", "--qubits", "3", "--time", "2", "--runs", "2", "--seed", "1",
                "--out", out]
    table = [
        ensemble + ["--workers", "-3"],
        ensemble + ["--workers", "0"],
        ["ensemble", "--qubits", "0", "--time", "1", "--runs", "1", "--seed", "1",
         "--out", out],
        ["ensemble", "--qubits", "-3", "--time", "1", "--runs", "1", "--seed", "1",
         "--out", out],
        ["single", "--qubits", "4", "--time", "0", "--seed", "1"],
        ["single", "--qubits", "4", "--time", "2", "--seed", "1", "--segments", "0"],
        ["single", "--qubits", "4", "--time", "2", "--seed", "1", "--tol", "2"],
        ["single", "--qubits", "1", "--time", "2", "--seed", "1"],
        ["ensemble", "--qubits", "3", "--time", "2", "--runs", "2", "--seed", "1",
         "--bins", "1", "--out", out],
        ["ensemble", "--qubits", "3", "--time", "2", "--runs", "0", "--seed", "1",
         "--out", out],
        ["ensemble", "--qubits", "3", "--time", "2", "--runs", "2", "--seed", "1",
         "--lscale", "0.5", "--out", out],
        ["lindblad", "--qubits", "3", "--time", "2", "--seed", "1", "--lscale", "-1"],
        ["lindblad", "--qubits", "3", "--time", "2", "--seed", "1", "--lscale", "nan"],
        ["lindblad", "--qubits", "3", "--time", "2", "--seed", "1", "--lscale", "inf"],
        ["ensemble", "--qubits", "3", "--time", "2", "--runs", "2", "--seed", "1",
         "--mode", "lindblad", "--lscale", "nan", "--out", out],
        ["single", "--qubits", "4", "--time", "inf", "--seed", "1"],
        ["single", "--qubits", "4", "--time", "nan", "--seed", "1"],
        ["lz", "--delta", "0"],
        ["lz", "--delta", "nan"],
        ["lz", "--time", "-5"],
        ["lz", "--time", "inf"],
        ["lz", "--time", "nan"],
        ["scaling", "--qubits-list", "4", "--time", "0"],
        ["scaling", "--qubits-list", "4", "--time", "2", "--runs", "0"],
    ]
    for argv in table:
        code = run_cli(argv)
        err = capsys.readouterr().err
        assert code == 1, argv
        assert "error:" in err, argv
        assert "Traceback" not in err, argv
    for value in ("0", "-1", "two"):  # a bad worker count from the environment
        monkeypatch.setenv("ANNEALSIM_WORKERS", value)
        code = run_cli(ensemble)
        err = capsys.readouterr().err
        assert code == 1, value
        assert "error: ANNEALSIM_WORKERS" in err, value
    assert not (tmp_path / "x.json").exists()


def test_overflowing_runs_exit_2(tmp_path, capsys):
    # one segment this long overflows; the run is reported, never raised
    def reject(constant):
        raise ValueError(f"{constant} in a JSON record")

    cases = [
        (["single", "--qubits", "6", "--time", "60", "--seed", "1", "--segments", "1"], True),
        (["lindblad", "--qubits", "3", "--time", "80", "--seed", "1", "--segments", "1"], True),
        (["lz", "--time", "400", "--segments", "1"], False),
    ]
    for argv, writes_record in cases:
        out = tmp_path / f"{argv[0]}.json"
        code = run_cli(argv + (["--out", str(out)] if writes_record else []))
        stdout = capsys.readouterr().out
        assert code == 2, argv
        assert "converged = False" in stdout
        if writes_record:
            record = json.loads(out.read_text(), parse_constant=reject)
            assert record["result"]["converged"] is False
            assert record["result"]["p"] is None


def test_single_norm_drift_exits_2(capsys):
    # the default 10 segments let this run's norm drift 8.8e-4 (P 0.738399
    # against 0.737541 from 40 segments); 40 keep it to 1e-12
    argv = ["single", "--qubits", "12", "--time", "10", "--seed", "2"]
    assert run_cli(argv) == 2
    assert "converged = False" in capsys.readouterr().out
    assert run_cli(argv + ["--segments", "40"]) == 0
    assert "converged = True" in capsys.readouterr().out


def test_lindblad_trace_drift_exits_2(capsys):
    # the default 4 segments lose this run's trace (drift about 3); 16 keep
    # it to 1e-15, and 32 segments give the same P
    argv = ["lindblad", "--qubits", "8", "--time", "4", "--lscale", "0.3",
            "--seed", "3386250816931739734"]
    assert run_cli(argv) == 2
    assert "converged = False" in capsys.readouterr().out
    assert run_cli(argv + ["--segments", "16"]) == 0
    stdout = capsys.readouterr().out
    assert "converged = True" in stdout
    p = float(stdout.split("P = ")[1].split()[0])
    assert abs(p - 0.2519008) < 1e-6


def test_csv_outputs_use_lf(tmp_path, capsys):
    hist, curve = tmp_path / "hist.csv", tmp_path / "curve.csv"
    assert run_cli(["ensemble", "--qubits", "3", "--time", "2", "--runs", "4", "--seed", "1",
                    "--format", "csv", "--out", str(hist)]) == 0
    assert run_cli(["lz-sweep", "--tmin", "20", "--tmax", "21", "--points", "2",
                    "--out", str(curve)]) == 0
    capsys.readouterr()
    for path in (hist, curve):
        assert b"\r" not in path.read_bytes()


def test_module_entry_point_runs_the_cli():
    # a checkout runs the CLI as python -m annealsim, with no install
    src = Path(annealsim.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-m", "annealsim", "single", "--qubits", "4", "--time", "1", "--seed", "1"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "converged" in proc.stdout
