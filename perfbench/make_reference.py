"""Write perfbench/reference.json anew:  python3 perfbench/make_reference.py

Integrates every instance whose reference is kept on file (those of the
workloads with a fixed set of master seeds) with the independent integrator
in reference.py, at the standard and at a tighter tolerance.  The stored P is
the tighter one; its error estimate is the gap to the standard answer, which
overstates the error of the tighter run.  The
N=18 instance takes about ten minutes.  Only the workload table is read from
the benchmark; no annealsim propagator or Hamiltonian runs here.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import sys
import time
from pathlib import Path

import reference
from run import import_program

OUT = Path(__file__).with_name("reference.json")


def _job(job: tuple) -> dict:
    name, n, t_anneal, mode, l_scale, master, k = job
    seed = reference.instance_seed(master, k)
    j = reference.instance_couplings(n, seed)
    t0 = time.perf_counter()
    if mode == "unitary":
        p, tight = (reference.schrodinger_p(j, t_anneal, tol)
                    for tol in (reference.STANDARD, reference.TIGHT))
    else:
        p, tight = (reference.lindblad_p(j, t_anneal, l_scale, tol)
                    for tol in (reference.STANDARD, reference.TIGHT))
    entry = {
        "workload": name, "master_seed": master, "k": k, "seed": seed,
        "couplings": reference.couplings_text(j),
        "p": tight, "p_standard": p, "error_estimate": abs(p - tight),
        "seconds": time.perf_counter() - t0,
    }
    print(f"{name} master {master} k {k}: P={tight!r} error {entry['error_estimate']:.2e} "
          f"({entry['seconds']:.0f} s)", file=sys.stderr, flush=True)
    return entry


def main() -> None:
    import_program()
    from workloads import WORKLOADS

    jobs = [(w.name, w.n_qubits, w.t_anneal, w.mode, w.l_scale, w.master_seed(i), k)
            for w in WORKLOADS.values() if w.input_sets is not None
            for i in range(w.input_sets) for k in range(w.runs)]
    jobs.sort(key=lambda job: -job[1])  # the largest register first
    workers = min(2, len(os.sched_getaffinity(0)))
    with multiprocessing.get_context("spawn").Pool(workers) as pool:
        entries = pool.map(_job, jobs, chunksize=1)
    out = {"tolerances": {"standard": reference.STANDARD, "tight": reference.TIGHT}}
    for e in entries:
        out.setdefault(e.pop("workload"), []).append(e)
    OUT.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
