"""Tests for the engine lifecycle hooks (``hooks=EngineHooks(...)``)."""

import pytest

from repro.cga import AsyncCGA, CGAConfig, EngineHooks, StopCondition, SyncCGA, as_hooks
from repro.cga.diversity import diversity_report
from repro.cga.engine import RunResult


CFG = CGAConfig(grid_rows=4, grid_cols=4, ls_iterations=1, seed_with_minmin=False)


class TestOnGeneration:
    def test_called_once_per_generation(self, tiny_instance):
        calls = []
        eng = AsyncCGA(
            tiny_instance, CFG, rng=0,
            hooks=EngineHooks(on_generation=lambda e, g, ev: calls.append((g, ev))),
        )
        eng.run(StopCondition(max_generations=5))
        assert [g for g, _ in calls] == [1, 2, 3, 4, 5]
        assert calls[-1][1] == 5 * 16

    def test_not_called_for_initial_snapshot(self, tiny_instance):
        calls = []
        eng = AsyncCGA(
            tiny_instance, CFG, rng=0,
            hooks=EngineHooks(on_generation=lambda e, g, ev: calls.append(g)),
        )
        eng.run(StopCondition(max_generations=1))
        assert calls == [1]

    def test_receives_live_engine(self, tiny_instance):
        traces = []
        eng = AsyncCGA(
            tiny_instance, CFG, rng=0,
            hooks=EngineHooks(
                on_generation=lambda e, g, ev: traces.append(
                    diversity_report(e.pop)["hamming"]
                )
            ),
        )
        eng.run(StopCondition(max_generations=4))
        assert len(traces) == 4
        assert all(0.0 <= t <= 1.0 for t in traces)

    def test_works_on_sync_engine(self, tiny_instance):
        calls = []
        eng = SyncCGA(
            tiny_instance, CFG, rng=0,
            hooks=EngineHooks(on_generation=lambda e, g, ev: calls.append(g)),
        )
        eng.run(StopCondition(max_generations=3))
        assert calls == [1, 2, 3]

    def test_hook_can_mutate_schedule_of_search(self, tiny_instance):
        # a hook that plants an immigrant each generation (hybrid usage)
        from repro.heuristics import min_min

        seed = min_min(tiny_instance)

        def immigrant(engine, gen, evals):
            engine.pop.write_individual(0, seed.s.copy(), seed.ct.copy(), seed.makespan())

        eng = AsyncCGA(
            tiny_instance, CFG, rng=0, hooks=EngineHooks(on_generation=immigrant)
        )
        eng.run(StopCondition(max_generations=3))
        eng.pop.check_invariants()
        assert eng.pop.fitness.min() <= seed.makespan()

    def test_none_hook_is_default(self, tiny_instance):
        eng = AsyncCGA(tiny_instance, CFG, rng=0)
        assert eng.hooks.on_generation is None
        eng.run(StopCondition(max_generations=1))


class TestAsHooks:
    def test_none_gives_empty_hooks(self):
        hooks = as_hooks(None)
        assert hooks.on_generation is None
        assert hooks.on_improvement is None
        assert hooks.on_stop is None

    def test_hooks_pass_through_unchanged(self):
        hooks = EngineHooks(on_stop=lambda e, r: None)
        assert as_hooks(hooks) is hooks

    def test_rejects_non_hooks(self):
        with pytest.raises(TypeError):
            as_hooks(42)
        # a bare function is not promoted to the on_generation slot
        with pytest.raises(TypeError):
            as_hooks(lambda e, g, ev: None)


class TestHookProtocol:
    def test_all_three_hooks_fire(self, tiny_instance):
        events = {"gen": [], "improved": [], "stopped": []}
        hooks = EngineHooks(
            on_generation=lambda e, g, ev: events["gen"].append(g),
            on_improvement=lambda e, g, ev, best: events["improved"].append(best),
            on_stop=lambda e, r: events["stopped"].append(r),
        )
        eng = AsyncCGA(tiny_instance, CFG, rng=0, hooks=hooks)
        res = eng.run(StopCondition(max_generations=5))
        assert events["gen"] == [1, 2, 3, 4, 5]
        # an improvement event carries the new strictly-better best
        bests = events["improved"]
        assert bests == sorted(bests, reverse=True)
        assert len(set(bests)) == len(bests)
        # on_stop fires exactly once, with the returned result
        assert len(events["stopped"]) == 1
        assert events["stopped"][0] is res
        assert isinstance(res, RunResult)

    def test_improvement_not_fired_for_initial_snapshot(self, tiny_instance):
        improved = []
        hooks = EngineHooks(
            on_improvement=lambda e, g, ev, best: improved.append((g, best))
        )
        eng = AsyncCGA(tiny_instance, CFG, rng=0, hooks=hooks)
        eng.run(StopCondition(max_generations=3))
        assert all(g >= 1 for g, _ in improved)

    def test_works_on_sync_engine(self, tiny_instance):
        stopped = []
        hooks = EngineHooks(on_stop=lambda e, r: stopped.append(r.generations))
        eng = SyncCGA(tiny_instance, CFG, rng=0, hooks=hooks)
        eng.run(StopCondition(max_generations=2))
        assert stopped == [2]
