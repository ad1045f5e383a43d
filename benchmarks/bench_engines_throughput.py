"""Throughput of every execution engine (evaluations per second).

Not a paper artifact, but the measurement that grounds the whole
reproduction: it shows where the GIL leaves the thread engine, how
fast the simulator replays virtual time, and what the batch-kernel
engines buy over the scalar breeding loop.  Results land in benchmarks/out/engines_throughput.txt
and — machine-readable, for tracking the perf trajectory across PRs —
in BENCH_throughput.json at the repository root.
"""

import json
import os
from pathlib import Path

import pytest

from repro import (
    AsyncCGA,
    CGAConfig,
    ShmBlockPACGA,
    SimulatedPACGA,
    StopCondition,
    ThreadedPACGA,
    VectorizedSyncCGA,
    load_benchmark,
)

from conftest import save_artifact

INSTANCE_NAME = "u_c_hihi.0"
INST = load_benchmark(INSTANCE_NAME)
CFG = CGAConfig(ls_iterations=5)
BUDGET = StopCondition(max_evaluations=2560)
#: the vectorized engine finishes 2560 evals in a few ms, too short to
#: time reliably — give it a budget long enough to amortize startup.
VECTORIZED_BUDGET = StopCondition(max_evaluations=256 * 400)

REPO_ROOT = Path(__file__).resolve().parent.parent

_results: dict[str, float] = {}
#: best makespan per engine at the same budget — `repro obs check` gates
#: future runs against these (quality_makespan in BENCH_throughput.json)
_quality: dict[str, float] = {}


def _throughput(key: str, engine, budget: StopCondition = BUDGET) -> float:
    res = engine.run(budget)
    _quality[key] = res.best_fitness
    return res.evaluations / res.elapsed_s


def _best_of(n: int, make_engine, key: str, budget: StopCondition = BUDGET) -> float:
    """Best rate over ``n`` fresh runs — the box is noisy and a single
    0.2 s scalar run can read 30% low under transient load."""
    return max(_throughput(key, make_engine(), budget) for _ in range(n))


@pytest.mark.parametrize("n_threads", [1, 2, 4])
def test_threaded_engine(benchmark, n_threads):
    key = f"threads({n_threads})"
    rate = benchmark.pedantic(
        lambda: _best_of(
            3, lambda: ThreadedPACGA(INST, CFG.with_(n_threads=n_threads), seed=0), key
        ),
        rounds=1,
        iterations=1,
    )
    _results[key] = rate


def test_shm_engine_family(benchmark):
    """Shared-memory block engine: batch kernels per forked worker.

    Same long budget as the vectorized engine (its per-block sweeps are
    batch kernels too), best of five, and the worker counts are
    *interleaved* round-robin within one test: the ``shm(N)/shm(1)``
    ratios in ``parallel_speedup`` are gated downstream, and measuring
    the configs minutes apart would let background-load drift corrupt
    the ratio even when the underlying rates are identical.
    """
    counts = (1, 2, 4)

    def run_family() -> float:
        rates = dict.fromkeys(counts, 0.0)
        for _ in range(5):
            for n in counts:
                rates[n] = max(
                    rates[n],
                    _throughput(
                        f"shm({n})",
                        ShmBlockPACGA(INST, CFG.with_(n_threads=n), seed=0),
                        VECTORIZED_BUDGET,
                    ),
                )
        for n, r in rates.items():
            _results[f"shm({n})"] = r
        return rates[1]

    benchmark.pedantic(run_family, rounds=1, iterations=1)


def test_sequential_engine(benchmark):
    rate = benchmark.pedantic(
        lambda: _best_of(
            3, lambda: AsyncCGA(INST, CFG, rng=0, record_history=False), "async(1)"
        ),
        rounds=1,
        iterations=1,
    )
    _results["async(1)"] = rate


def test_vectorized_engine(benchmark):
    """Batch-kernel engine: best of three runs (the box is noisy)."""
    rate = benchmark.pedantic(
        lambda: max(
            _throughput(
                "vectorized(1)",
                VectorizedSyncCGA(INST, CFG, rng=0, record_history=False),
                VECTORIZED_BUDGET,
            )
            for _ in range(3)
        ),
        rounds=1,
        iterations=1,
    )
    _results["vectorized(1)"] = rate


def test_simulated_engine_and_report(benchmark):
    rate = benchmark.pedantic(
        lambda: _best_of(
            3,
            lambda: SimulatedPACGA(
                INST, CFG.with_(n_threads=3), seed=0, history_stride=10**9
            ),
            "simulated(3)",
        ),
        rounds=1,
        iterations=1,
    )
    _results["simulated(3)"] = rate
    lines = ["engine throughput (evaluations/second, 2560-eval runs):"]
    for name, r in sorted(_results.items()):
        lines.append(f"  {name:14s} {r:>10,.0f}")
    if "async(1)" in _results and "vectorized(1)" in _results:
        ratio = _results["vectorized(1)"] / _results["async(1)"]
        lines.append(f"\nvectorized / async speedup: {ratio:.1f}x")
    # multi-worker scaling ratios per engine family — the obs check
    # gate (`--min-parallel-speedup`) reads this section
    speedup: dict[str, float] = {}
    for family in ("shm", "threads"):
        base = _results.get(f"{family}(1)")
        if not base:
            continue
        for key, r in _results.items():
            if key.startswith(f"{family}(") and key != f"{family}(1)":
                speedup[f"{key}/{family}(1)"] = round(r / base, 3)
    if speedup:
        lines.append("\nparallel speedup (n workers vs 1, same engine):")
        for key, ratio in sorted(speedup.items()):
            lines.append(f"  {key:26s} {ratio:>6.2f}x")
    lines.append(
        f"\nNote: this container exposes {os.cpu_count()} CPU core(s)."
        "\nOn a single core no engine can show a real multi-worker"
        "\nspeedup — workers timeslice the one core — so the"
        "\nparallel_speedup ratios above are honest single-core numbers;"
        "\nCI re-measures them on a multicore runner"
        "\n(benchmarks/smoke_shm_speedup.py).  That is also why Fig. 4 is"
        "\nregenerated on the virtual-time simulator (DESIGN.md §4.2)."
        "\nThe shm engine is the parallel fast path: batch kernels per"
        "\nforked worker over a zero-copy shared population.  Workers"
        "\nbeyond the core count collapse into fused-batch processes"
        "\n(DESIGN.md, 'Worker collapse'), so shm(N) stays at shm(1)"
        "\nthroughput instead of paying N× per-sweep kernel dispatch."
    )
    save_artifact("engines_throughput.txt", "\n".join(lines) + "\n")
    payload = {
        "instance": INSTANCE_NAME,
        "ntasks": INST.ntasks,
        "nmachines": INST.nmachines,
        "pop_size": CFG.population_size,
        "ls_iterations": CFG.ls_iterations,
        "budget_evaluations": BUDGET.max_evaluations,
        "vectorized_budget_evaluations": VECTORIZED_BUDGET.max_evaluations,
        "engines_evals_per_s": {k: round(v, 1) for k, v in sorted(_results.items())},
        "quality_makespan": {k: round(v, 1) for k, v in sorted(_quality.items())},
        "parallel_speedup": dict(sorted(speedup.items())),
        "cpu_count": os.cpu_count(),
    }
    (REPO_ROOT / "BENCH_throughput.json").write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )
    print("\n" + "\n".join(lines))
    assert rate > 0
