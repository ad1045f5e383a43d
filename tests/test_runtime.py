"""Unit tests for the runtime layer: Budget accounting and RunContext setup."""

import numpy as np

from repro.cga import CGAConfig
from repro.cga.config import StopCondition
from repro.heuristics.minmin import min_min
from repro.runtime import Budget, build_context

CFG = CGAConfig(grid_rows=4, grid_cols=4, ls_iterations=1, seed_with_minmin=False)


class TestBudget:
    def test_eval_share(self):
        assert Budget(StopCondition(max_generations=1)).eval_share(4) is None
        assert Budget(StopCondition(max_evaluations=100)).eval_share(3) == 33
        # never zero, even when workers outnumber the budget
        assert Budget(StopCondition(max_evaluations=2)).eval_share(8) == 1

    def test_worker_exhausted_share_and_generations(self):
        b = Budget(StopCondition(max_evaluations=100, max_generations=5))
        share = b.eval_share(2)
        assert not b.worker_exhausted(10, 1, share)
        assert b.worker_exhausted(50, 1, share)
        assert b.worker_exhausted(0, 5, None)

    def test_worker_exhausted_wall_clock(self):
        import time

        b = Budget(StopCondition(wall_time_s=1e-6)).start()
        time.sleep(0.002)
        assert b.worker_exhausted(0, 0, None)


class TestBuildContext:
    def test_single_stream_context(self, tiny_instance):
        ctx = build_context(tiny_instance, CFG, rng=3)
        # one block covering the grid, one stream
        assert len(ctx.worker_rngs) == 1
        assert isinstance(ctx.worker_rngs[0], np.random.Generator)
        assert [b.tolist() for b in ctx.blocks] == [list(range(16))]
        assert len(ctx.orders) == 1
        assert sorted(ctx.orders[0].tolist()) == list(range(16))
        assert not ctx.crosses.any()
        assert ctx.boundary_fraction == 0.0
        assert ctx.pop.s.shape == (16, tiny_instance.ntasks)

    def test_partitioned_context(self, tiny_instance):
        ctx = build_context(
            tiny_instance, CFG.with_(n_threads=2), seed=3, workers=2
        )
        assert len(ctx.blocks) == 2
        assert len(ctx.worker_rngs) == 2
        assert ctx.jitter_rngs == []
        assert sorted(np.concatenate(ctx.orders).tolist()) == list(range(16))
        assert 0.0 < ctx.boundary_fraction <= 1.0

    def test_jitter_streams_are_separate(self, tiny_instance):
        ctx = build_context(
            tiny_instance, CFG.with_(n_threads=2), seed=3, workers=2, jitter=True
        )
        assert len(ctx.worker_rngs) == 2
        assert len(ctx.jitter_rngs) == 2
        # genetic and jitter streams must never coincide
        genetic = {id(r) for r in ctx.worker_rngs}
        assert genetic.isdisjoint({id(r) for r in ctx.jitter_rngs})

    def test_deterministic_given_seed(self, tiny_instance):
        a = build_context(tiny_instance, CFG, rng=7)
        b = build_context(tiny_instance, CFG, rng=7)
        assert np.array_equal(a.pop.s, b.pop.s)
        assert a.worker_rngs[0].random() == b.worker_rngs[0].random()

    def test_minmin_seeded_population(self, tiny_instance):
        ctx = build_context(tiny_instance, CFG.with_(seed_with_minmin=True), rng=0)
        mm = min_min(tiny_instance).s
        assert any(np.array_equal(row, mm) for row in ctx.pop.s)

    def test_unseeded_population_lacks_minmin(self, tiny_instance):
        ctx = build_context(tiny_instance, CFG, rng=0)
        mm = min_min(tiny_instance).s
        assert not any(np.array_equal(row, mm) for row in ctx.pop.s)


class TestSeedCache:
    """The opt-in seed-schedule cache must be keyed by instance *content*.

    Instance header names are not content-unique and object ids recycle
    after GC, so neither may select a cache entry — the cache promises
    bit-exact trajectories.
    """

    def _flowshop_pair_sharing_a_name(self):
        from repro.problems.flowshop import FlowShopInstance

        rng = np.random.default_rng(7)
        a = FlowShopInstance(rng.uniform(1.0, 9.0, (6, 3)), name="dup")
        b = FlowShopInstance(rng.uniform(1.0, 9.0, (6, 3)), name="dup")
        return a, b

    def test_same_name_different_content_never_collides(self):
        from repro.problems import problem_of
        from repro.runtime.context import disable_seed_cache, enable_seed_cache

        a, b = self._flowshop_pair_sharing_a_name()
        cfg = CGAConfig(
            problem="flowshop", grid_rows=4, grid_cols=4, seed_with_minmin=True
        )
        neh_a = problem_of(a).seed_schedules(a, cfg)[0].s
        neh_b = problem_of(b).seed_schedules(b, cfg)[0].s
        assert not np.array_equal(neh_a, neh_b)  # pair discriminates the bug
        try:
            cache = enable_seed_cache()
            ctx_a = build_context(a, cfg, rng=0)
            ctx_b = build_context(b, cfg, rng=0)
            assert cache.stats()["misses"] == 2  # b must not reuse a's entry
        finally:
            disable_seed_cache()
        assert any(np.array_equal(row, neh_a) for row in ctx_a.pop.s)
        assert any(np.array_equal(row, neh_b) for row in ctx_b.pop.s)

    def test_equal_content_hits_and_matches_uncached_trajectory(self):
        from repro.runtime.context import disable_seed_cache, enable_seed_cache

        a, _ = self._flowshop_pair_sharing_a_name()
        cfg = CGAConfig(
            problem="flowshop", grid_rows=4, grid_cols=4, seed_with_minmin=True
        )
        uncached = build_context(a, cfg, rng=0)
        try:
            cache = enable_seed_cache()
            first = build_context(a, cfg, rng=0)
            second = build_context(a, cfg, rng=0)
            assert cache.stats() == dict(cache.stats(), hits=1, misses=1)
        finally:
            disable_seed_cache()
        assert np.array_equal(uncached.pop.s, first.pop.s)
        assert np.array_equal(first.pop.s, second.pop.s)

    def test_equal_content_under_another_name_hits(self):
        from repro.problems.flowshop import FlowShopInstance
        from repro.runtime.context import disable_seed_cache, enable_seed_cache

        a, _ = self._flowshop_pair_sharing_a_name()
        renamed = FlowShopInstance(a.p.copy(), name="renamed")
        assert a == renamed and hash(a) == hash(renamed)
        assert len({a, renamed}) == 1
        cfg = CGAConfig(
            problem="flowshop", grid_rows=4, grid_cols=4, seed_with_minmin=True
        )
        try:
            cache = enable_seed_cache()
            first = build_context(a, cfg, rng=0)
            second = build_context(renamed, cfg, rng=0)
            assert cache.stats() == dict(cache.stats(), hits=1, misses=1)
        finally:
            disable_seed_cache()
        assert np.array_equal(first.pop.s, second.pop.s)
