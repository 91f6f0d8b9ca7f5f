#!/usr/bin/env python3
"""Record the quality reference that the benchmark's correctness gate uses.

    python3 perfbench/make_reference.py

For each workload and each seed in SEEDS, runs the workload's set-up and its
commands up to the one that yields the quality number (through the CLI, as a
benchmark pass does), and writes perfbench/reference.json:

    {workload: {"rel_tol": 1e-6, "values": {seed: value}, "band": [lo, hi]}}

`band` is [min / f, max * f] over the recorded seeds, with f the workload's
BAND_FACTOR; it only checks seeds outside SEEDS.
Run it only when a change is meant to change results.
"""

import json
import shutil
import sys

import run
from workloads import workloads

SEEDS = range(100)
REL_TOL = 1e-6
# How far a seed outside SEEDS may fall beyond the recorded range.  big_pool
# (2 episodes of hamaml) spreads most from seed to seed.
BAND_FACTOR = {"desk": 2.0, "eval_sweep": 2.0, "big_pool": 4.0}


def quality(wl, seed, env):
    gate = run.Gate(wl, seed, check_reference=False)
    base = run.fresh(run.WORK / f"{wl.name}-reference")
    try:
        if run.run_setup(wl, seed, gate, env, base) is None:
            raise run.BenchError(gate.faults[-1])
        work = run.fresh(base / "pass")
        for label, argv in wl.commands:
            _, rc, _ = run.run_child(run.cli_cmd(argv, seed), work, env,
                                     base / "err.log")
            if not gate.check("pass", label, argv, rc, work,
                              (base / "err.log").read_text()):
                raise run.BenchError(gate.faults[-1])
            if label == wl.quality[0]:
                return gate.quality[-1]
    finally:
        shutil.rmtree(base, ignore_errors=True)
    raise run.BenchError(f"{wl.name} has no command {wl.quality[0]!r}")


def main():
    env = run.child_env()
    out = {}
    for wl in workloads().values():
        values = {}
        for seed in SEEDS:
            values[str(seed)] = quality(wl, seed, env)
            print(f"{wl.name} seed {seed}: {values[str(seed)]!r}", flush=True)
        factor = BAND_FACTOR[wl.name]
        out[wl.name] = {"rel_tol": REL_TOL, "values": values,
                        "band": [min(values.values()) / factor,
                                 max(values.values()) * factor]}
    path = run.HERE / "reference.json"
    path.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
