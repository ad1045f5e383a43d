"""Edge-case tests for engine configuration branches."""

import numpy as np

from repro.cga import (
    AsyncCGA,
    CGAConfig,
    Population,
    StopCondition,
    evolve_individual,
    neighbor_table,
)
from repro.cga.grid import Grid2D


class TestProbabilityBranches:
    def test_zero_crossover_clones_best_parent(self, tiny_instance, rng):
        pop = Population(tiny_instance, Grid2D(4, 4))
        pop.init_random(rng)
        config = CGAConfig(
            grid_rows=4, grid_cols=4, p_comb=0.0, p_mut=0.0, local_search=None,
            seed_with_minmin=False,
        )
        ops = config.resolve()
        tbl = neighbor_table(Grid2D(4, 4), "l5")
        before = pop.s.copy()
        fitness = pop.fitness.copy()
        evolve_individual(pop, 0, tbl[0], ops, rng)
        # offspring is a clone of the best neighbor: either no change
        # (cell 0 was the best) or cell 0 now equals a former neighbor
        if not np.array_equal(pop.s[0], before[0]):
            assert any(np.array_equal(pop.s[0], before[j]) for j in tbl[0][1:])
            assert pop.fitness[0] <= fitness[0]

    def test_zero_ls_probability_skips_ls(self, tiny_instance):
        # identical seeds: p_ls=0 vs local_search=None must coincide
        base = CGAConfig(
            grid_rows=4, grid_cols=4, ls_iterations=5, seed_with_minmin=False
        )
        a = AsyncCGA(tiny_instance, base.with_(p_ls=0.0), rng=3).run(
            StopCondition(max_generations=3)
        )
        # p_ls=0 never draws the LS rng beyond the gate; the gate draw
        # itself must still be consumed for stream alignment, so we only
        # check that LS had no effect on quality trends, not bit-equality
        b = AsyncCGA(tiny_instance, base.with_(p_ls=1.0), rng=3).run(
            StopCondition(max_generations=3)
        )
        assert b.best_fitness <= a.best_fitness * 1.1

    def test_ls_candidates_restricts_targets(self, small_instance, rng):
        # with a single candidate machine, H2LL can only ever move work
        # to the least loaded machine; sanity-check through the config
        config = CGAConfig(
            grid_rows=4, grid_cols=4, ls_candidates=1, ls_iterations=3,
            seed_with_minmin=False,
        )
        eng = AsyncCGA(small_instance, config, rng=1)
        res = eng.run(StopCondition(max_generations=3))
        eng.pop.check_invariants()
        assert res.best_fitness > 0


class TestStopBehaviour:
    def test_eval_budget_exact(self, tiny_instance):
        config = CGAConfig(grid_rows=4, grid_cols=4, ls_iterations=0,
                           seed_with_minmin=False)
        res = AsyncCGA(tiny_instance, config, rng=0).run(
            StopCondition(max_evaluations=37)
        )
        assert res.evaluations == 37

    def test_generation_and_eval_budgets_combined(self, tiny_instance):
        config = CGAConfig(grid_rows=4, grid_cols=4, ls_iterations=0,
                           seed_with_minmin=False)
        res = AsyncCGA(tiny_instance, config, rng=0).run(
            StopCondition(max_evaluations=1000, max_generations=2)
        )
        assert res.generations == 2
        assert res.evaluations == 32


class TestCliParallelEngines:
    def test_threads_engine_via_cli(self, capsys):
        from repro.cli import main

        assert (
            main(
                [
                    "solve",
                    "--engine",
                    "threads",
                    "--threads",
                    "2",
                    "--instance",
                    "u_i_hilo.0",
                    "--evals",
                    "512",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "threads" in out

