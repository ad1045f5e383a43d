"""Integration tests: full pipelines across modules.

Each test exercises a realistic end-to-end path a user of the library
would take — instance → algorithm → result → analysis — rather than a
single unit.
"""

import numpy as np
import pytest

from repro import (
    AsyncCGA,
    CGAConfig,
    CMALTH,
    SimulatedPACGA,
    StopCondition,
    StruggleGA,
    SyncCGA,
    ThreadedPACGA,
    load_benchmark,
    make_instance,
    min_min,
)
from repro.scheduling import makespan
from repro.scheduling.validation import validate_assignment


BUDGET = StopCondition(max_evaluations=1500)
CFG = CGAConfig(grid_rows=6, grid_cols=6, ls_iterations=3)


def _engines(instance):
    return {
        "async": AsyncCGA(instance, CFG, rng=0),
        "sync": SyncCGA(instance, CFG, rng=0),
        "threads": ThreadedPACGA(instance, CFG.with_(n_threads=2), seed=0),
        "sim": SimulatedPACGA(instance, CFG.with_(n_threads=2), seed=0),
    }


class TestEveryEngineOnBenchmark:
    @pytest.mark.parametrize("name", ["async", "sync", "threads", "sim"])
    def test_engine_beats_minmin_seeded_start(self, benchmark_instance, name):
        engine = _engines(benchmark_instance)[name]
        res = engine.run(BUDGET)
        mm = min_min(benchmark_instance).makespan()
        # Min-min seeds the population, elitist replacement keeps it:
        # every engine must end at or below the Min-min makespan.
        assert res.best_fitness <= mm + 1e-6
        validate_assignment(benchmark_instance, res.best_assignment)
        # reported fitness must be reproducible from the assignment alone
        assert makespan(benchmark_instance, res.best_assignment) == pytest.approx(
            res.best_fitness
        )


class TestCrossEngineConsistency:
    def test_all_engines_land_in_same_quality_band(self, benchmark_instance):
        results = {
            name: eng.run(BUDGET).best_fitness
            for name, eng in _engines(benchmark_instance).items()
        }
        best, worst = min(results.values()), max(results.values())
        # same operators, same budget: no engine may be wildly off
        assert worst <= best * 1.10, results

    def test_sim_single_thread_equals_async_genetics(self, small_instance):
        # with one logical thread, identical seeds and sweep order, the
        # simulator replays the canonical async CGA exactly
        from repro.rng import spawn_rngs

        config = CFG.with_(n_threads=1, seed_with_minmin=False)
        sim = SimulatedPACGA(small_instance, config, seed=42)
        eng = AsyncCGA(small_instance, config, rng=None)
        # align populations and streams: copy sim's initial state and
        # rebuild the same genetic stream the sim's thread 0 will use
        eng.pop.s[:] = sim.pop.s
        eng.pop.ct[:] = sim.pop.ct
        eng.pop.fitness[:] = sim.pop.fitness
        eng.rng = spawn_rngs(42, 3)[1]
        r_sim = sim.run(StopCondition(max_generations=3))
        r_eng = eng.run(StopCondition(max_generations=3))
        assert r_sim.best_fitness == pytest.approx(r_eng.best_fitness)
        assert np.array_equal(r_sim.best_assignment, r_eng.best_assignment)


class TestBaselinesIntegration:
    def test_pa_cga_beats_struggle_ga_on_hihi(self):
        # the paper's headline: PA-CGA improves on the panmictic GA for
        # high-heterogeneity instances at equal evaluation budgets
        inst = load_benchmark("u_i_hihi.0")
        budget = StopCondition(max_evaluations=4000)
        pa = SimulatedPACGA(inst, CGAConfig(n_threads=3, ls_iterations=10), seed=1).run(
            budget
        )
        sg = StruggleGA(inst, rng=1).run(budget)
        assert pa.best_fitness < sg.best_fitness

    def test_cma_lth_competitive(self, benchmark_instance):
        budget = StopCondition(max_evaluations=1500)
        cma = CMALTH(benchmark_instance, rng=1, config=CGAConfig(
            grid_rows=6, grid_cols=6, local_search="lth", selection="tournament",
        )).run(budget)
        mm = min_min(benchmark_instance).makespan()
        assert cma.best_fitness <= mm


class TestScalesBeyondPaper:
    def test_bigger_instance_runs(self):
        # future work (§5): bigger benchmark instances
        inst = make_instance(2048, 64, consistency="i", seed=5, name="big")
        eng = SimulatedPACGA(inst, CGAConfig(n_threads=4, ls_iterations=5), seed=0)
        res = eng.run(StopCondition(max_evaluations=600))
        assert res.best_fitness < np.inf
        validate_assignment(inst, res.best_assignment)

    def test_many_threads_partition(self):
        inst = make_instance(128, 8, seed=3)
        eng = SimulatedPACGA(inst, CGAConfig(n_threads=16, ls_iterations=1), seed=0)
        res = eng.run(StopCondition(max_generations=2))
        assert len(res.extra["per_thread_generations"]) == 16

    def test_nonsquare_grid(self):
        inst = make_instance(64, 8, seed=4)
        config = CGAConfig(grid_rows=8, grid_cols=32, n_threads=3, ls_iterations=1)
        eng = SimulatedPACGA(inst, config, seed=0)
        res = eng.run(StopCondition(max_generations=2))
        assert res.evaluations >= 2 * 256


class TestReproducibilityAcrossEngines:
    def test_sim_run_fully_reproducible_with_everything_on(self, benchmark_instance):
        def once():
            eng = SimulatedPACGA(
                benchmark_instance,
                CGAConfig(n_threads=4, crossover="tpx", ls_iterations=10),
                seed=2024,
            )
            return eng.run(StopCondition(virtual_time=0.01))

        a, b = once(), once()
        assert a.best_fitness == b.best_fitness
        assert a.evaluations == b.evaluations
        assert a.extra["per_thread_clocks"] == b.extra["per_thread_clocks"]
        assert [tuple(r) for r in a.history] == [tuple(r) for r in b.history]
