#!/usr/bin/env python
"""CI throughput smoke test: fail if the vectorized engine regresses.

Measures evaluations/second of ``VectorizedSyncCGA`` against ``AsyncCGA``
on a 512x16 benchmark instance (pop 256) and exits non-zero when the
speedup drops below the floor (default 4x, override with
``REPRO_SMOKE_MIN_SPEEDUP``).  Each engine takes the best of three runs
so one noisy-neighbor hiccup on a shared CI box does not fail the build.

Usage: PYTHONPATH=src python benchmarks/smoke_vectorized_speedup.py
"""

from __future__ import annotations

import os
import sys

from repro import AsyncCGA, CGAConfig, StopCondition, VectorizedSyncCGA, load_benchmark

MIN_SPEEDUP = float(os.environ.get("REPRO_SMOKE_MIN_SPEEDUP", "4.0"))
RUNS = 3


def best_rate(engine_factory, budget: StopCondition) -> float:
    rates = []
    for _ in range(RUNS):
        res = engine_factory().run(budget)
        rates.append(res.evaluations / res.elapsed_s)
    return max(rates)


def main() -> int:
    inst = load_benchmark("u_c_hihi.0")
    cfg = CGAConfig(ls_iterations=5)
    vec = best_rate(
        lambda: VectorizedSyncCGA(inst, cfg, rng=0, record_history=False),
        StopCondition(max_evaluations=256 * 200),
    )
    scalar = best_rate(
        lambda: AsyncCGA(inst, cfg, rng=0, record_history=False),
        StopCondition(max_evaluations=2560),
    )
    speedup = vec / scalar
    print(f"async      : {scalar:>10,.0f} evals/s")
    print(f"vectorized : {vec:>10,.0f} evals/s")
    print(f"speedup    : {speedup:.2f}x (floor: {MIN_SPEEDUP:.1f}x)")
    if speedup < MIN_SPEEDUP:
        print("FAIL: vectorized engine below the speedup floor", file=sys.stderr)
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
