#!/usr/bin/env python
"""CI observability smoke test: schemas valid, overhead bounded.

Runs a short instrumented PA-CGA (thread engine, 2 threads) into a
telemetry bundle, and the same run on the shared-memory engine (2
free-running forked workers, which ship their telemetry back to the
parent), and fails the build when

1. either bundle is incomplete or any artifact violates its schema
   (metrics.json merged/per-thread shape incl. the op.* attribution
   counters and the phase.* / sweep_us histograms, Chrome trace_event
   fields, JSONL time-series rows, grid.jsonl per-cell snapshot rows), or
2. a run with the full process-observability layer on (flight
   recorder, resource sampler, statistical stack sampler) leaves the
   expected artifacts with valid schemas, or
3. the *instrumented* run — with resource sampling and the stack
   sampler enabled on top of the metrics/trace/grid stack — is more
   than ``REPRO_OBS_MAX_OVERHEAD`` (default 10%) slower than an
   uninstrumented run at the same evaluation budget — measured as the
   **median of interleaved plain/instrumented run-pair ratios** (after
   one warmup of each): each ratio compares two runs executed
   back-to-back, so slow load drift on a busy CI machine cancels
   instead of biasing whichever side ran last, and the median discards
   one-off scheduler hiccups in either direction.

Before the gate verdict it prints a per-component overhead breakdown
(diagnostic only, it gates nothing): the gated observer, and the same
observer without the stack sampler, without grid dynamics, without the
resource sampler, and with metrics only — measured as interleaved
plain/variant run pairs, so every variant sees the same load drift.

Usage: PYTHONPATH=src python benchmarks/smoke_obs.py
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

from repro import (
    CGAConfig,
    Observer,
    ShmBlockPACGA,
    StopCondition,
    ThreadedPACGA,
    load_benchmark,
)

MAX_OVERHEAD = float(os.environ.get("REPRO_OBS_MAX_OVERHEAD", "0.10"))
RUNS = 3
BUDGET = 1536
PHASES = ("select", "crossover", "mutate", "ls", "fitness")

#: the gated observer: grid-dynamics recording on (the default), the
#: resource sampler and the statistical stack sampler ON — the always-on
#: telemetry stack as a whole must stay under the ceiling
GATED_OBS = dict(
    out=None,
    sample_every_evals=256,
    grid=True,
    resources=True,
    resource_every_s=0.25,
    stack_sample_s=0.005,
)
#: diagnostic variants: each overrides the gated observer's settings
BREAKDOWN = {
    "full observer": {},
    "no stack sampler": {"stack_sample_s": None},
    "no grid dynamics": {"grid": False},
    "no resources": {"resources": False},
    "metrics only": {
        "trace": False,
        "grid": False,
        "resources": False,
        "stack_sample_s": None,
    },
}
BREAKDOWN_RUNS = 5


def check(ok: bool, what: str) -> None:
    if not ok:
        print(f"FAIL: {what}", file=sys.stderr)
        sys.exit(1)


def validate_bundle(out: Path, n_threads: int) -> None:
    expected = {
        "meta.json",
        "metrics.json",
        "timeseries.jsonl",
        "grid.jsonl",
        "trace.json",
        "report.md",
    }
    check({p.name for p in out.iterdir()} == expected, f"bundle files != {expected}")

    metrics = json.loads((out / "metrics.json").read_text())
    check(set(metrics) == {"merged", "per_thread"}, "metrics.json top-level shape")
    check(
        set(metrics["per_thread"]) == {str(t) for t in range(n_threads)},
        f"metrics.json must carry {n_threads} per-thread series",
    )
    for name, rec in [("merged", metrics["merged"]), *metrics["per_thread"].items()]:
        check(
            {"name", "counters", "gauges", "histograms"} <= set(rec),
            f"recorder {name} missing sections",
        )
        for key, h in rec["histograms"].items():
            check(
                {"bounds", "counts", "count", "sum", "mean", "p50", "p99"} <= set(h),
                f"histogram {key} schema",
            )
            check(len(h["counts"]) == len(h["bounds"]) + 1, f"histogram {key} buckets")
            check(sum(h["counts"]) == h["count"], f"histogram {key} count mismatch")
    merged = metrics["merged"]["counters"]
    check(merged.get("breeding.evaluations", 0) >= BUDGET, "merged evaluation count")
    check("sweep_us" in metrics["merged"]["histograms"], "sweep latency histogram")
    for phase in PHASES:
        check(
            f"phase.{phase}_us" in metrics["merged"]["histograms"],
            f"phase.{phase}_us histogram missing from merged metrics",
        )
    check(
        merged.get("op.replacement.attempts", 0) >= BUDGET,
        "operator attribution counters (op.*) missing from merged metrics",
    )

    grid_rows = [
        json.loads(line) for line in (out / "grid.jsonl").read_text().splitlines()
    ]
    check(len(grid_rows) >= 1, "grid stream must have snapshots")
    for row in grid_rows:
        check(
            {
                "t_s",
                "generation",
                "shape",
                "best",
                "mean",
                "takeover_fraction",
                "fitness_entropy",
                "fitness",
                "age",
                "improvements",
            }
            <= set(row),
            "grid.jsonl row schema",
        )
        n_cells = row["shape"][0] * row["shape"][1]
        check(
            len(row["fitness"]) == len(row["age"]) == len(row["improvements"]) == n_cells,
            "grid.jsonl per-cell arrays must match the grid shape",
        )
        check(0.0 <= row["takeover_fraction"] <= 1.0, "takeover_fraction range")
        check(0.0 <= row["fitness_entropy"] <= 1.0, "fitness_entropy range")

    rows = [
        json.loads(line) for line in (out / "timeseries.jsonl").read_text().splitlines()
    ]
    check(len(rows) >= 1, "time series must have rows")
    for row in rows:
        check(
            {"t_s", "evaluations", "best", "mean", "entropy"} <= set(row),
            "time-series row schema",
        )
    check(
        rows == sorted(rows, key=lambda r: r["evaluations"]),
        "time-series rows must be ordered by evaluations",
    )

    trace = json.loads((out / "trace.json").read_text())
    check(
        set(trace) == {"traceEvents", "displayTimeUnit"}, "trace.json top-level shape"
    )
    events = trace["traceEvents"]
    check(len(events) > 0, "trace must contain events")
    for ev in events:
        check(
            ev["ph"] in ("M", "X", "i", "C") and "tid" in ev and "pid" in ev,
            f"trace event schema: {ev}",
        )
        if ev["ph"] == "X":
            check(ev["ts"] >= 0 and ev["dur"] >= 0, "span timestamps")
    lanes = {ev["tid"] for ev in events if ev["ph"] == "X"}
    check(lanes == set(range(n_threads)), "one span lane per worker thread")

    meta = json.loads((out / "meta.json").read_text())
    check(meta.get("result", {}).get("evaluations", 0) >= BUDGET, "meta.json result")


def validate_process_obs_bundle(out: Path) -> None:
    """Schemas of the flight / resources / samples artifacts."""
    from repro.obs.flight import load_flight_dir
    from repro.obs.resources import load_resource_rows
    from repro.obs.sample import parse_collapsed

    rings = load_flight_dir(out)
    check("main" in rings, "flight/main.bin missing or unreadable")
    kinds = {e["kind"] for e in rings["main"]}
    check("budget.start" in kinds, "flight ring missing budget.start")
    check("budget.done" in kinds, "flight ring missing budget.done")
    for events in rings.values():
        for ev in events:
            check(
                {"seq", "t_s", "kind", "msg", "value"} == set(ev),
                f"flight event schema: {ev}",
            )

    rows = load_resource_rows(out)
    check(len(rows) >= 2, "resource sampler must stream rows")
    for row in rows:
        check(
            {"t_s", "role", "pid", "rss_mb", "cpu_s"} <= set(row),
            f"resource row schema: {row}",
        )
        check(row["rss_mb"] > 0, "resource row rss_mb must be positive")

    samples = out / "samples.collapsed"
    check(samples.exists(), "samples.collapsed missing")
    counts = parse_collapsed(samples.read_text())
    check(sum(counts.values()) > 0, "stack sampler recorded no samples")

    meta = json.loads((out / "meta.json").read_text())
    check(meta.get("resources", {}).get("peak_rss_mb", 0) > 0, "meta resource peaks")
    check(meta.get("n_stack_samples", 0) > 0, "meta n_stack_samples")


def one_run(inst, cfg, obs_factory) -> float:
    obs = obs_factory()
    eng = ThreadedPACGA(inst, cfg, seed=0, obs=obs)
    t0 = time.perf_counter()
    eng.run(StopCondition(max_evaluations=BUDGET))
    elapsed = time.perf_counter() - t0
    if obs is not None:
        obs.finalize()  # stop sampler threads outside the timed region
    return elapsed


def measure_overhead(inst, cfg, obs_factory) -> tuple[float, float, float]:
    """Median plain time, instrumented time, and pairwise-ratio overhead."""
    one_run(inst, cfg, lambda: None)  # warmup: imports, allocator, caches
    one_run(inst, cfg, obs_factory)
    plains, instrumenteds, ratios = [], [], []
    for _ in range(RUNS):
        plain = one_run(inst, cfg, lambda: None)
        instrumented = one_run(inst, cfg, obs_factory)
        plains.append(plain)
        instrumenteds.append(instrumented)
        ratios.append(instrumented / plain)
    return (
        statistics.median(plains),
        statistics.median(instrumenteds),
        statistics.median(ratios) - 1.0,
    )


def overhead_breakdown(inst, cfg) -> dict[str, float]:
    """Median pairwise overhead of every :data:`BREAKDOWN` variant.

    Each round runs one plain/variant pair per variant, so the variants
    are interleaved and share the host's load drift.
    """
    ratios: dict[str, list[float]] = {name: [] for name in BREAKDOWN}
    for _ in range(BREAKDOWN_RUNS):
        for name, changes in BREAKDOWN.items():
            plain = one_run(inst, cfg, lambda: None)
            variant = one_run(inst, cfg, lambda: Observer(**{**GATED_OBS, **changes}))
            ratios[name].append(variant / plain)
    return {name: statistics.median(r) - 1.0 for name, r in ratios.items()}


def main() -> int:
    inst = load_benchmark("u_c_hihi.0")
    n_threads = 2
    # Table 1 / Fig. 5 configuration (10 LS iterations): the overhead
    # ceiling is judged against the workload the paper actually runs
    cfg = CGAConfig(ls_iterations=10, n_threads=n_threads)

    for engine in (ThreadedPACGA, ShmBlockPACGA):
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "bundle"
            obs = Observer(out=out, sample_every_evals=256)
            eng = engine(inst, cfg, seed=0, obs=obs)
            eng.run(StopCondition(max_evaluations=BUDGET))
            obs.finalize()
            validate_bundle(out, n_threads)
        print(f"{engine.engine_name} bundle schemas: OK")

    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "bundle"
        obs = Observer(
            out=out,
            sample_every_evals=256,
            flight=True,
            resources=True,
            resource_every_s=0.05,
            stack_sample_s=0.005,
        )
        eng = ThreadedPACGA(inst, cfg, seed=0, obs=obs)
        eng.run(StopCondition(max_evaluations=BUDGET))
        obs.finalize()
        validate_process_obs_bundle(out)
    print("process-observability schemas: OK")

    plain, instrumented, overhead = measure_overhead(
        inst, cfg, lambda: Observer(**GATED_OBS)
    )
    print(f"overhead breakdown (diagnostic, median of {BREAKDOWN_RUNS} pairs each):")
    for name, share in overhead_breakdown(inst, cfg).items():
        print(f"  {name:<17}: {100 * share:+.1f}%")
    print(f"uninstrumented : {plain:8.3f} s (median of {RUNS})")
    print(f"instrumented   : {instrumented:8.3f} s (median of {RUNS})")
    print(f"overhead       : {100 * overhead:+.1f}% (ceiling: {100 * MAX_OVERHEAD:.0f}%)")
    check(overhead <= MAX_OVERHEAD, "instrumentation overhead above ceiling")
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
