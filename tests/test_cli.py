import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import annealsim
from annealsim.cli import main
from annealsim.landau_zener import LZParams, lz_propagate
from annealsim.lindblad_propagator import propagate_density
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


def test_default_schedule_flags(tmp_path, monkeypatch, capsys):
    # main builds each command's one schedule from the flags, which every
    # subcommand takes: SegmentSchedule() at default flags, their values otherwise
    made = []

    class CountingSchedule(SegmentSchedule):
        def __post_init__(self):
            made.append(self)
            super().__post_init__()

    monkeypatch.setattr("annealsim.cli.SegmentSchedule", CountingSchedule)
    out, csv = str(tmp_path / "x.json"), str(tmp_path / "x.csv")
    commands = [
        ["single", "--qubits", "2", "--time", "1", "--seed", "0"],
        ["ensemble", "--qubits", "2", "--time", "1", "--runs", "1", "--seed", "0",
         "--workers", "1", "--out", out],
        ["lindblad", "--qubits", "2", "--time", "1", "--seed", "0"],
        ["lz", "--time", "1"],
        ["lz-sweep", "--tmin", "1", "--tmax", "2", "--points", "2", "--out", csv],
        ["scaling", "--qubits-list", "2", "--time", "1", "--runs", "1"],
    ]
    cases = (([], SegmentSchedule()),
             (["--segments", "3", "--tol", "1e-10", "--max-terms", "40"],
              SegmentSchedule(segments=3, tol=1e-10, max_terms=40)))
    for argv in commands:
        for flags, expected in cases:
            made.clear()
            assert run_cli(argv + flags) == 0, argv + flags
            assert len(made) == 1, argv + flags
            assert dataclasses.astuple(made[0]) == dataclasses.astuple(expected), argv + flags
    capsys.readouterr()


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
    assert record["schema_version"] == 3


def test_single_no_evolution_limit(capsys):
    code = run_cli(["single", "--qubits", "4", "--time", "1e-8", "--seed", "1"])
    stdout = capsys.readouterr().out
    assert code == 0
    p = float(stdout.split("P = ")[1].splitlines()[0])
    from annealsim.spin_system import ground_space

    d_half = ground_space(random_ising_half(4, 1).half_diag).size
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
    edges = record["histogram"]["bin_edges"]
    assert [float(row.split(",")[0]) for row in lines[1:]] == edges[:-1]
    assert [float(row.split(",")[1]) for row in lines[1:]] == edges[1:]


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


def test_record_key_sets(tmp_path, capsys):
    # schema 3: one drift key in every record, one l_scale key in every config
    one = ["--qubits", "3", "--time", "2", "--seed", "4"]
    paths = {kind: tmp_path / f"{kind}.json" for kind in ("single", "lindblad", "ensemble")}
    assert run_cli(["single", *one, "--out", str(paths["single"])]) == 0
    assert run_cli(["lindblad", *one, "--lscale", "0.1", "--out", str(paths["lindblad"])]) == 0
    assert run_cli(["ensemble", *one, "--runs", "3", "--mode", "lindblad", "--lscale", "0.1",
                    "--out", str(paths["ensemble"])]) == 0
    capsys.readouterr()
    single, lindblad, ensemble = (json.loads(path.read_text()) for path in paths.values())
    schedule = {"segments", "tol", "max_terms"}
    for record, extra in ((single, set()), (lindblad, {"l_scale"})):
        assert record.keys() == {"schema_version", "kind", "config", "result", "timing"}
        assert record["config"].keys() == {"qubits", "time", "seed"} | schedule | extra
        assert record["result"].keys() == {"p", "drift", "terms_per_segment", "converged"}
        assert record["timing"].keys() == {"wall_seconds"}
    assert ensemble.keys() == {"schema_version", "kind", "config", "histogram", "instances",
                               "failures", "summary", "timing"}
    assert ensemble["config"].keys() == {"qubits", "time", "runs", "master_seed", "bins", "mode",
                                         "l_scale"} | schedule
    assert ensemble["histogram"].keys() == {"bin_edges", "counts"}
    for instance in ensemble["instances"]:
        assert instance.keys() == {"index", "seed", "p", "terms", "drift", "converged"}
    assert ensemble["summary"].keys() == {"converged", "failed", "mean_p", "mean_p_stderr"}
    assert ensemble["timing"].keys() == {"wall_seconds", "workers", "blocks"}
    assert [r["schema_version"] for r in (single, lindblad, ensemble)] == [3, 3, 3]


def test_lindblad_ensemble_drift_is_the_trace_drift(tmp_path, capsys):
    out = tmp_path / "ens.json"
    assert run_cli(["ensemble", "--qubits", "3", "--time", "2", "--runs", "3", "--seed", "2",
                    "--mode", "lindblad", "--lscale", "0.1", "--out", str(out)]) == 0
    capsys.readouterr()
    for instance in json.loads(out.read_text())["instances"]:
        res = propagate_density(AnnealParams(3, 2.0), random_ising_half(3, instance["seed"]), 0.1)
        assert instance["drift"] == res.trace_drift
        assert instance["p"] == res.success_p


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
    assert record["result"]["drift"] < 1e-8
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


def test_lz_reports_as_single_runs_do(capsys):
    # lz prints P, drift, terms and verdict through the reporter of single runs
    assert run_cli(["lz", "--delta", "1", "--time", "20", "--segments", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    res = lz_propagate(LZParams(1.0, 20.0), SegmentSchedule(segments=2))
    assert lines[-4:] == [f"P = {res.success_p!r}", f"drift = {res.norm_drift!r}",
                          f"terms_per_segment = {res.terms_per_segment}", "converged = True"]


def test_lz_pathology_flag(capsys):
    # the one-segment blow-up demo is a schedule given by the flags
    code = run_cli(["lz", "--segments", "1", "--max-terms", "100"])
    stdout = capsys.readouterr().out
    assert code == 2
    magnitude = float(stdout.split("|psi(1)| = ")[1].splitlines()[0])
    assert magnitude > 1e6
    assert "terms_per_segment = [100]" in stdout
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


def test_scaling_three_sizes_print_the_fitted_slope(capsys):
    assert run_cli(["scaling", "--qubits-list", "2,3,4", "--time", "1", "--runs", "1"]) == 0
    stdout = capsys.readouterr().out
    assert [line.split(":")[0] for line in stdout.splitlines()] == [
        "N=2", "N=3", "N=4", "fitted log-time slope over largest three N"]


def test_scaling_bad_list_exits_1(capsys):
    assert run_cli(["scaling", "--qubits-list", "8,ten", "--time", "2"]) == 1
    capsys.readouterr()
    assert run_cli(["scaling", "--qubits-list", ",", "--time", "2"]) == 1
    assert "error: --qubits-list needs at least one size" in capsys.readouterr().err
    assert run_cli(["scaling", "--qubits-list", "1,4", "--time", "2"]) == 1
    capsys.readouterr()
    # repeated sizes would fit a slope over equal N
    assert run_cli(["scaling", "--qubits-list", "4,4,4", "--time", "1", "--runs", "1"]) == 1
    assert "distinct" in capsys.readouterr().err


def test_rejected_input_exits_1(tmp_path, capsys):
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
        # a finite l_scale whose dissipator norm l_scale**2 * (2**N - 1) overflows
        ["lindblad", "--qubits", "3", "--time", "2", "--seed", "1", "--lscale", "1e200"],
        ["ensemble", "--qubits", "3", "--time", "2", "--runs", "2", "--seed", "1",
         "--mode", "lindblad", "--lscale", "1e200", "--workers", "2", "--out", out],
        ["ensemble", "--qubits", "3", "--time", "2", "--runs", "2", "--seed", "1",
         "--mode", "lindblad", "--lscale", "nan", "--out", out],
        ["single", "--qubits", "4", "--time", "inf", "--seed", "1"],
        ["single", "--qubits", "4", "--time", "nan", "--seed", "1"],
        ["lz", "--delta", "0"],
        ["lz", "--delta", "nan"],
        ["lz", "--time", "-5"],
        ["lz", "--time", "inf"],
        ["lz", "--time", "nan"],
        # T * 2 hypot(1, delta), the two-level pair's bound, overflows
        ["lz", "--delta", "1e308"],
        ["lz", "--time", "1e308", "--segments", "3"],
        # the one-segment demo is spelt with --segments and --max-terms
        ["lz", "--pathology"],
        ["scaling", "--qubits-list", "4", "--time", "0"],
        ["scaling", "--qubits-list", "4", "--time", "2", "--runs", "0"],
    ]
    # an output path must be a file in an existing directory
    for bad in (str(tmp_path / "missing" / "x.out"), str(tmp_path)):
        table += [
            ["single", "--qubits", "4", "--time", "1", "--seed", "1", "--out", bad],
            ensemble[:-1] + [bad],
            ensemble[:-1] + [bad, "--format", "csv"],
            ["lindblad", "--qubits", "3", "--time", "2", "--seed", "1", "--out", bad],
            ["lindblad", "--qubits", "3", "--time", "2", "--seed", "1", "--csv", bad],
            ["lz-sweep", "--points", "2", "--out", bad],
            ["scaling", "--qubits-list", "4", "--time", "1", "--runs", "1", "--out", bad],
        ]
    for argv in table:
        code = run_cli(argv)
        err = capsys.readouterr().err
        assert code == 1, argv
        assert "error:" in err, argv
        assert "Traceback" not in err, argv
    assert not (tmp_path / "x.json").exists()


def test_negative_seed_exits_1_naming_the_field(tmp_path, capsys):
    out = str(tmp_path / "x.json")
    for argv, name in (
        (["single", "--qubits", "4", "--time", "2", "--seed", "-1"], "seed"),
        (["lindblad", "--qubits", "3", "--time", "2", "--seed", "-1"], "seed"),
        (["ensemble", "--qubits", "3", "--time", "2", "--runs", "2", "--seed", "-1",
          "--out", out], "master_seed"),
    ):
        assert run_cli(argv) == 1, argv
        assert f"error: {name} must be an integer >= 0, got -1" in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()


def test_empty_output_path_exits_1_before_the_run(tmp_path, capsys, monkeypatch):
    # an empty --out or --csv names no file: main rejects it before any run,
    # and nothing is written
    def run(*args, **kwargs):
        pytest.fail("the run started")

    for name in ("propagate", "propagate_density", "run_ensemble", "lz_propagate",
                 "scaling_sweep"):
        monkeypatch.setattr(f"annealsim.cli.{name}", run)
    monkeypatch.chdir(tmp_path)
    one = ["--qubits", "3", "--time", "1", "--seed", "1"]
    for argv in (
        ["single", *one, "--out", ""],
        ["lindblad", *one, "--out", ""],
        ["lindblad", *one, "--csv", ""],
        ["scaling", "--qubits-list", "3", "--time", "1", "--out", ""],
        ["ensemble", *one, "--runs", "2", "--out", ""],
        ["lz-sweep", "--points", "2", "--out", ""],
    ):
        assert run_cli(argv) == 1, argv
        assert "error: cannot write ''" in capsys.readouterr().err, argv
    assert os.listdir(tmp_path) == []


def test_unwritable_out_stops_the_ensemble_before_it_runs(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr("annealsim.cli.run_ensemble", lambda *a, **k: calls.append(a))
    for out in (tmp_path / "missing" / "x.json", tmp_path):
        assert run_cli(["ensemble", "--qubits", "3", "--time", "2", "--runs", "2",
                        "--seed", "1", "--out", str(out)]) == 1
        assert "error: cannot write" in capsys.readouterr().err
    assert calls == []


def test_write_error_exits_1(tmp_path, capsys, monkeypatch):
    # an output that fails while written (say, a read-only directory) is a flag error
    def refuse(path, *args):
        raise PermissionError(13, "Permission denied", path)

    monkeypatch.setattr("annealsim.cli.write_json", refuse)
    out = str(tmp_path / "x.json")
    assert run_cli(["single", "--qubits", "4", "--time", "1", "--seed", "1", "--out", out]) == 1
    err = capsys.readouterr().err
    assert "error: [Errno 13] Permission denied" in err
    assert "Traceback" not in err


def test_overflowing_runs_exit_2(tmp_path, capsys):
    # one segment this long overflows; the run is reported, never raised
    def reject(constant):
        raise ValueError(f"{constant} in a JSON record")

    cases = [
        (["single", "--qubits", "6", "--time", "60", "--seed", "1", "--segments", "1"], True),
        (["lindblad", "--qubits", "3", "--time", "80", "--seed", "1", "--segments", "1"], True),
        # a dissipator norm that passes the input check but whose terms
        # overflow: at 1e153 they meet as inf - inf in the pair
        (["lindblad", "--qubits", "3", "--time", "2", "--seed", "1", "--lscale", "1e153"], True),
        (["lindblad", "--qubits", "3", "--time", "2", "--seed", "1", "--lscale", "1e20"], True),
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
    # 10 segments, ceil(T), let this run's norm drift 8.8e-4 (P 0.738399
    # against 0.737541 from 40 segments); 40 keep it to 1e-12
    argv = ["single", "--qubits", "12", "--time", "10", "--seed", "2"]
    assert run_cli(argv + ["--segments", "10"]) == 2
    assert "converged = False" in capsys.readouterr().out
    assert run_cli(argv + ["--segments", "40"]) == 0
    assert "converged = True" in capsys.readouterr().out


def test_lindblad_trace_drift_exits_2(capsys):
    # 4 segments, ceil(T), lose this run's trace (drift about 3); 16 keep
    # it to 1e-15, and 32 segments give the same P
    argv = ["lindblad", "--qubits", "8", "--time", "4", "--lscale", "0.3",
            "--seed", "3386250816931739734"]
    assert run_cli(argv + ["--segments", "4"]) == 2
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
