#!/usr/bin/env python
"""CI flow-shop smoke test: the second workload stays end-to-end healthy.

Two floors on a generated Taillard-style instance (``fs50x10.0``,
deterministic — no file on disk):

1. **Quality** — the cGA (vectorized engine, NEH-seeded) must finish at
   least ``REPRO_SMOKE_FS_MIN_GAIN`` (default 1%) below the plain NEH
   constructive makespan.  NEH sits in the initial population, so merely
   matching it would mean the search did nothing.
2. **Throughput** — best of three runs must clear
   ``REPRO_SMOKE_FS_MIN_EVALS_S`` (default 3000 evals/s; loose because
   hosted runners vary widely in speed).

It also re-evaluates each run's best schedule with the scalar float64
``flowshop_ct`` and fails on any difference from the reported makespan:
the generated instance is integral, so the batch kernels run their int32
tables, and this guards that path's exactness on whatever host runs it.

Usage: PYTHONPATH=src python benchmarks/smoke_flowshop.py
"""

from __future__ import annotations

import os
import sys

from repro import CGAConfig, StopCondition, VectorizedSyncCGA
from repro.problems.flowshop import flowshop_ct, load_flowshop_instance, neh_order

MIN_GAIN = float(os.environ.get("REPRO_SMOKE_FS_MIN_GAIN", "0.01"))
MIN_EVALS_S = float(os.environ.get("REPRO_SMOKE_FS_MIN_EVALS_S", "3000"))
INSTANCE = "fs50x10.0"
BUDGET = StopCondition(max_evaluations=256 * 200)
RUNS = 3


def main() -> int:
    inst = load_flowshop_instance(INSTANCE)
    neh_ms = float(flowshop_ct(inst, neh_order(inst)).max())

    cfg = CGAConfig(problem="flowshop", ls_iterations=5)
    best_ms = float("inf")
    best_rate = 0.0
    mismatches = []
    for seed in range(RUNS):
        res = VectorizedSyncCGA(inst, cfg, rng=seed, record_history=False).run(BUDGET)
        best_ms = min(best_ms, res.best_fitness)
        best_rate = max(best_rate, res.evaluations / res.elapsed_s)
        scalar = float(flowshop_ct(inst, res.best_assignment)[-1])
        if scalar != res.best_fitness:
            mismatches.append((seed, res.best_fitness, scalar))

    gain = 1.0 - best_ms / neh_ms
    print(f"instance    : {INSTANCE} ({inst.njobs} jobs x {inst.nmachines} machines)")
    print(f"NEH makespan: {neh_ms:>10,.0f}")
    print(f"cGA makespan: {best_ms:>10,.0f}  ({gain:+.1%} vs NEH, floor {MIN_GAIN:.1%})")
    print(f"throughput  : {best_rate:>10,.0f} evals/s (floor {MIN_EVALS_S:,.0f})")
    print(f"DP table    : {inst.pT.dtype}, {RUNS - len(mismatches)}/{RUNS} best "
          "makespans equal to the scalar DP")
    ok = True
    for seed, batch, scalar in mismatches:
        print(f"FAIL: seed {seed} reports makespan {batch!r} but the scalar DP "
              f"gives {scalar!r}", file=sys.stderr)
        ok = False
    if gain < MIN_GAIN:
        print("FAIL: cGA did not improve on the NEH seed", file=sys.stderr)
        ok = False
    if best_rate < MIN_EVALS_S:
        print("FAIL: flow-shop batch kernels below the throughput floor", file=sys.stderr)
        ok = False
    if not ok:
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
