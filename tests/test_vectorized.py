"""VectorizedSyncCGA engine tests: invariants, registration, quality.

The vectorized engine is *statistically* — not bitwise — equivalent to
the scalar engines (per-generation RNG blocks are drawn in a different
order), so these tests check the properties that must hold exactly
(CT invariant, elitist monotonicity, registry/CLI wiring, validation)
and check solution quality against ``SyncCGA`` at equal budget with a
tolerance (ISSUE acceptance: within 1 % on ``u_c_hihi``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    AsyncCGA,
    CGAConfig,
    StopCondition,
    SyncCGA,
    VectorizedSyncCGA,
)
from repro.cga import SEQUENTIAL_ENGINES
from repro.kernels import batch_resync_drift


def _run(instance, cfg, seed=0, evals=256 * 10, **kw):
    eng = VectorizedSyncCGA(instance, cfg, rng=seed, **kw)
    return eng, eng.run(StopCondition(max_evaluations=evals))


class TestRunBasics:
    def test_runs_and_improves(self, small_instance):
        cfg = CGAConfig(grid_rows=8, grid_cols=8, ls_iterations=5)
        _, res = _run(small_instance, cfg, evals=64 * 20)
        assert res.evaluations >= 64 * 20
        assert res.generations == res.evaluations // 64
        first_best = res.history[0][2]
        assert res.best_fitness < first_best

    def test_best_schedule_is_consistent(self, small_instance):
        cfg = CGAConfig(grid_rows=8, grid_cols=8, ls_iterations=5)
        _, res = _run(small_instance, cfg, evals=64 * 10)
        sched = res.best_schedule(small_instance)
        assert sched.makespan() == pytest.approx(res.best_fitness)

    def test_deterministic_given_seed(self, small_instance):
        cfg = CGAConfig(grid_rows=8, grid_cols=8, ls_iterations=5)
        _, r1 = _run(small_instance, cfg, seed=42, evals=64 * 15)
        _, r2 = _run(small_instance, cfg, seed=42, evals=64 * 15)
        assert r1.best_fitness == r2.best_fitness
        assert r1.history == r2.history

    def test_eval_budget_overshoot_below_one_generation(self, small_instance):
        cfg = CGAConfig(grid_rows=8, grid_cols=8, ls_iterations=0)
        _, res = _run(small_instance, cfg, evals=100)  # not a multiple of 64
        assert 100 <= res.evaluations < 100 + 64

    def test_generation_budget(self, small_instance):
        cfg = CGAConfig(grid_rows=8, grid_cols=8, ls_iterations=0)
        eng = VectorizedSyncCGA(small_instance, cfg, rng=0)
        res = eng.run(StopCondition(max_generations=7))
        assert res.generations == 7
        assert res.evaluations == 7 * 64


class TestInvariants:
    def test_ct_invariant_after_long_run(self, small_instance):
        """Incremental CT must track the exact recomputation (~1e-9)."""
        cfg = CGAConfig(grid_rows=8, grid_cols=8, ls_iterations=5)
        eng, _ = _run(small_instance, cfg, evals=64 * 100)
        drift = batch_resync_drift(small_instance, eng.pop.s, eng.pop.ct)
        scale = float(np.abs(eng.pop.ct).max())
        assert drift <= 1e-9 * max(scale, 1.0)

    def test_monotone_best_under_elitist_replacement(self, small_instance):
        """'if-better' replacement can never lose the incumbent best."""
        cfg = CGAConfig(grid_rows=8, grid_cols=8, ls_iterations=5, replacement="if-better")
        _, res = _run(small_instance, cfg, evals=64 * 50)
        bests = [row[2] for row in res.history]
        assert all(b2 <= b1 + 1e-12 for b1, b2 in zip(bests, bests[1:]))

    def test_population_stays_valid(self, small_instance):
        cfg = CGAConfig(grid_rows=8, grid_cols=8, ls_iterations=5)
        eng, _ = _run(small_instance, cfg, evals=64 * 30)
        assert eng.pop.s.min() >= 0
        assert eng.pop.s.max() < small_instance.nmachines
        assert eng.pop.s.dtype == np.int32

    def test_weighted_fitness_path(self, small_instance):
        cfg = CGAConfig(grid_rows=8, grid_cols=8, ls_iterations=5, fitness="makespan+flowtime")
        eng, res = _run(small_instance, cfg, evals=64 * 20)
        assert np.isfinite(res.best_fitness)
        drift = batch_resync_drift(small_instance, eng.pop.s, eng.pop.ct)
        assert drift < 1e-6

    def test_no_local_search_path(self, small_instance):
        cfg = CGAConfig(grid_rows=8, grid_cols=8, local_search=None)
        eng, res = _run(small_instance, cfg, evals=64 * 20)
        assert np.isfinite(res.best_fitness)
        assert batch_resync_drift(small_instance, eng.pop.s, eng.pop.ct) < 1e-6

    @pytest.mark.parametrize("selection", ["tournament", "random", "center+best"])
    def test_alternate_selections(self, small_instance, selection):
        cfg = CGAConfig(grid_rows=8, grid_cols=8, ls_iterations=2, selection=selection)
        eng, res = _run(small_instance, cfg, evals=64 * 10)
        assert np.isfinite(res.best_fitness)
        assert batch_resync_drift(small_instance, eng.pop.s, eng.pop.ct) < 1e-6


class TestValidation:
    def test_rejects_unsupported_selection(self, small_instance):
        cfg = CGAConfig(grid_rows=8, grid_cols=8, selection="rank")
        with pytest.raises(ValueError, match="no batch selection"):
            VectorizedSyncCGA(small_instance, cfg)

    def test_rejects_unsupported_local_search(self, small_instance):
        cfg = CGAConfig(grid_rows=8, grid_cols=8, local_search="random-move")
        with pytest.raises(ValueError, match="no batch kernel for 'random-move'"):
            VectorizedSyncCGA(small_instance, cfg)

    def test_supported_scalar_configs_accepted(self, small_instance):
        """Every default-ish config the scalar engines use must load."""
        for crossover in ("opx", "tpx", "uniform"):
            for mutation in ("move", "swap", "rebalance"):
                cfg = CGAConfig(grid_rows=8, grid_cols=8, crossover=crossover, mutation=mutation)
                VectorizedSyncCGA(small_instance, cfg)  # must not raise


class TestRegistration:
    def test_in_sequential_engines_registry(self):
        assert SEQUENTIAL_ENGINES["vectorized"] is VectorizedSyncCGA
        assert SEQUENTIAL_ENGINES["async"] is AsyncCGA
        assert SEQUENTIAL_ENGINES["sync"] is SyncCGA

    def test_cli_exposes_vectorized(self, tmp_path, capsys):
        from repro.cli import main

        rc = main(
            [
                "solve",
                "--instance",
                "u_i_hilo.0",
                "--engine",
                "vectorized",
                "--evals",
                str(256 * 5),
                "--seed",
                "3",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "makespan" in out.lower()


class TestQualityParity:
    def test_within_one_percent_of_sync_at_equal_budget(self, consistent_instance):
        """ISSUE acceptance: vectorized best makespan within 1 % of
        SyncCGA at equal budget on u_c_hihi.

        A single seed sits close to the line (noise of the per-generation
        RNG reordering), so compare mean-of-3-seeds which is stable.
        """
        budget = StopCondition(max_evaluations=256 * 40)
        cfg = CGAConfig(ls_iterations=10)
        gaps = []
        for seed in range(3):
            vec = VectorizedSyncCGA(
                consistent_instance, cfg, rng=seed, record_history=False
            ).run(budget)
            ref = SyncCGA(
                consistent_instance, cfg, rng=seed, record_history=False
            ).run(budget)
            gaps.append(vec.best_fitness / ref.best_fitness - 1.0)
        assert float(np.mean(gaps)) < 0.01
