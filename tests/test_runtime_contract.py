"""Cross-engine contract suite, parametrized from the engine registry.

Every registered engine — regardless of substrate — must produce a
schema-valid :class:`RunResult`, respect ``max_evaluations`` within one
sweep of the budget, honor ``seed_with_minmin``, and resume a mid-run
checkpoint to a bit-identical final result.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.cga import CGAConfig, StopCondition
from repro.heuristics.minmin import min_min
from repro.obs import Observer
from repro.runtime import (
    capture_state,
    create_engine,
    engine_names,
    load_state,
    resolve_engine,
    resume_engine,
    run_with_checkpoints,
)

DATA = Path(__file__).parent / "data"

CFG = CGAConfig(
    grid_rows=8,
    grid_cols=8,
    ls_iterations=2,
    n_threads=2,
    seed_with_minmin=False,
)

ALL_ENGINES = engine_names()

#: (engine, n_threads) cases for the bit-exact resume contract —
#: threads is exercised at 1..4 workers (lockstep schedule).
RESUME_CASES = [
    ("async", 1),
    ("sync", 1),
    ("vectorized", 1),
    ("sim", 3),
    ("threads", 1),
    ("threads", 2),
    ("threads", 3),
    ("threads", 4),
    ("shm", 1),
    ("shm", 2),
    ("shm", 4),
]

#: every engine attaches the live runtime (threads and shm in lockstep;
#: the sim's heartbeats advance with its virtual-time sweeps)
LIVE_CASES = ALL_ENGINES


def _make(name, instance, seed=3, config=CFG, **extras):
    if "lockstep" in resolve_engine(name).extra_kwargs:
        extras.setdefault("lockstep", True)
    return create_engine(name, instance, config, seed=seed, **extras)


@pytest.mark.parametrize("name", ALL_ENGINES)
class TestRunResultContract:
    def test_engine_name_matches_registry(self, name, small_instance):
        eng = _make(name, small_instance)
        assert eng.engine_name == resolve_engine(name).name

    def test_schema_valid_run_result(self, name, small_instance):
        eng = _make(name, small_instance)
        res = eng.run(StopCondition(max_evaluations=300))
        assert isinstance(res.best_fitness, float) and res.best_fitness > 0
        a = res.best_assignment
        assert a.shape == (small_instance.ntasks,)
        assert np.issubdtype(a.dtype, np.integer)
        assert (a >= 0).all() and (a < small_instance.nmachines).all()
        assert res.evaluations > 0
        assert res.generations >= 1
        assert res.elapsed_s >= 0.0
        assert isinstance(res.history, list)
        assert isinstance(res.extra, dict)
        # the reported best is a real makespan of the reported assignment
        assert res.best_schedule(small_instance).makespan() == pytest.approx(
            res.best_fitness
        )
        eng.pop.check_invariants()

    def test_max_evaluations_within_one_sweep(self, name, small_instance):
        cap = 500
        res = _make(name, small_instance).run(StopCondition(max_evaluations=cap))
        assert abs(res.evaluations - cap) <= CFG.grid.size

    def test_seed_with_minmin_honored(self, name, small_instance):
        cfg = CFG.with_(seed_with_minmin=True)
        eng = _make(name, small_instance, config=cfg)
        mm = min_min(small_instance).s
        assert any(np.array_equal(row, mm) for row in eng.pop.s)

    def test_on_generation_fires_once_per_generation(self, name, small_instance):
        assert _generations_seen(_make(name, small_instance)) == [1, 2, 3]


@pytest.mark.parametrize("name", ["threads", "shm"])
def test_free_running_fires_on_generation(name, small_instance):
    eng = _make(name, small_instance, lockstep=False)
    assert _generations_seen(eng) == [1, 2, 3]


@pytest.mark.parametrize("name", ["threads", "shm"])
def test_free_running_fires_generations_finished_before_supervision(
    name, small_instance
):
    """Workers that finish every sweep before the parent starts
    supervising (a fast fork, a busy parent) still count from the run's
    start: each generation fires once."""
    eng = _make(name, small_instance, lockstep=False)
    start = eng._start_worker

    def start_and_finish(gid, members, loop):
        worker = start(gid, members, loop)
        worker.join()
        return worker

    eng._start_worker = start_and_finish
    assert _generations_seen(eng) == [1, 2, 3]


def _generations_seen(eng) -> list[int]:
    """Run ``eng`` for 3 generations; the numbers ``on_generation`` saw
    (one call per completed generation, ``1..result.generations``)."""
    seen = []
    eng.hooks.on_generation = lambda engine, generation, evaluations: seen.append(
        generation
    )
    res = eng.run(StopCondition(max_generations=3))
    assert res.generations == 3
    return seen


#: the bounds each engine's run loop does not check
UNENFORCED = {
    "async": ("virtual_time",),
    "sync": ("virtual_time",),
    "vectorized": ("virtual_time",),
    "sim": ("wall_time_s",),
    "threads": ("virtual_time",),
    "shm": ("virtual_time",),
}
#: a value of each such bound that would not stop a short run by itself
BOUND_VALUES = {"virtual_time": 0.05, "wall_time_s": 3600.0, "target_fitness": 0.0}


def _hang_guard(engine, generation, evaluations):
    """An ``on_generation`` hook failing a run that ignores its stop."""
    if generation >= 3:
        raise RuntimeError(f"run went past generation {generation}: stop ignored")


class TestUnenforceableStop:
    def test_table_matches_the_registry(self):
        for name in ALL_ENGINES:
            enforced = set(resolve_engine(name).enforced_bounds)
            assert enforced.isdisjoint(UNENFORCED[name])
            assert set(BOUND_VALUES) <= enforced | set(UNENFORCED[name])

    @pytest.mark.parametrize(
        "name,bound", [(n, b) for n, bounds in UNENFORCED.items() for b in bounds]
    )
    def test_run_rejects_a_stop_it_cannot_enforce(self, name, bound, small_instance):
        eng = _make(name, small_instance)
        eng.hooks.on_generation = _hang_guard
        with pytest.raises(ValueError, match=bound):
            eng.run(StopCondition(**{bound: BOUND_VALUES[bound]}))

    def test_one_enforced_bound_is_enough(self, small_instance):
        eng = _make("threads", small_instance)
        eng.hooks.on_generation = _hang_guard
        res = eng.run(StopCondition(target_fitness=0.0, max_generations=2))
        assert res.generations == 2


def _bests_by_generation(eng, generations: int) -> list[float]:
    """The population best before the run and after each generation."""
    bests = [eng.pop.best()[1]]
    eng.hooks.on_generation = lambda e, g, ev: bests.append(e.pop.best()[1])
    eng.run(StopCondition(max_generations=generations))
    return bests


class TestTargetFitness:
    """``target_fitness`` is checked at every round boundary of every
    engine, mixed with other bounds or alone."""

    @pytest.mark.parametrize("name", ALL_ENGINES)
    def test_stops_at_the_first_boundary_meeting_the_target(self, name, small_instance):
        bests = _bests_by_generation(_make(name, small_instance), 6)
        # a target first met after a few generations of improvement
        target = bests[3]
        first = next(g for g, best in enumerate(bests) if best <= target)
        assert first > 0
        res = _make(name, small_instance).run(
            StopCondition(max_generations=6, target_fitness=target)
        )
        assert res.generations == first
        assert res.best_fitness <= target

    @pytest.mark.parametrize("name", ALL_ENGINES)
    def test_target_met_before_the_first_generation(self, name, small_instance):
        eng = _make(name, small_instance)
        res = eng.run(StopCondition(max_generations=5, target_fitness=eng.pop.best()[1]))
        assert (res.generations, res.evaluations) == (0, 0)

    @pytest.mark.parametrize("name", ["threads", "shm"])
    def test_free_running_workers_halt(self, name, small_instance):
        eng = _make(name, small_instance, lockstep=False)
        target = eng.pop.best()[1] * (1 - 1e-9)  # any strict improvement
        res = eng.run(StopCondition(max_generations=2000, target_fitness=target))
        assert res.best_fitness <= target
        assert res.generations < 2000


@pytest.mark.parametrize("name", ALL_ENGINES)
def test_on_improvement_fires_on_every_engine(name, small_instance):
    """Each strict improvement of the population best fires
    ``on_improvement`` once, never for the initial population, and the
    observer counts the same improvements."""
    obs = Observer(out=None)
    eng = _make(name, small_instance, obs=obs)
    seen = []
    eng.hooks.on_improvement = lambda e, g, ev, best: seen.append((g, best))
    res = eng.run(StopCondition(max_generations=6))
    assert seen and all(1 <= g <= res.generations for g, _ in seen)
    bests = [best for _, best in seen]
    assert bests == sorted(bests, reverse=True) and len(set(bests)) == len(bests)
    assert bests[-1] == res.best_fitness
    assert obs.registry.merged().counters["improvements"] == len(seen)


def test_sim_checkpoints_as_often_as_lockstep_threads(small_instance):
    """``every_generations`` counts generations on every engine: the
    simulator saves when its generation hook fires, a sequential engine
    after each generation."""
    saves = {}
    for name in ALL_ENGINES:
        eng = _make(name, small_instance, config=CFG.with_(n_threads=3))
        calls = []
        eng.arm_checkpoint(1, calls.append)
        eng.run(StopCondition(max_generations=4))
        saves[name] = len(calls)
    assert saves == dict.fromkeys(ALL_ENGINES, 4)


class TestResumeContract:
    @pytest.mark.parametrize("name,n", RESUME_CASES)
    def test_mid_run_checkpoint_resumes_bit_exact(
        self, name, n, small_instance, tmp_path
    ):
        """A snapshot taken *during* a run replays to the identical end.

        The reference run itself is checkpointed halfway (the stop
        condition must be the same one the resumed run continues under:
        for the partitioned engines, stopping early is itself a
        different trajectory — fast workers halt instead of evolving on
        while slow ones finish, and their writes are visible across
        block boundaries).
        """
        cfg = CFG.with_(n_threads=n)
        stop = StopCondition(max_generations=10)
        straight_eng = _make(name, small_instance, seed=5, config=cfg)
        snap = {}

        def keep_first(eng):
            if not snap:
                snap.update(capture_state(eng, stop=stop))

        straight_eng.arm_checkpoint(5, keep_first)
        straight = straight_eng.run(stop)
        straight_eng.arm_checkpoint(None, None)
        assert snap, "checkpoint never fired mid-run"

        path = tmp_path / "ck.json"
        path.write_text(json.dumps(snap))
        resumed_eng, embedded = resume_engine(path, instance=small_instance)
        res = resumed_eng.run(embedded)

        assert res.best_fitness == straight.best_fitness
        assert np.array_equal(res.best_assignment, straight.best_assignment)
        assert np.array_equal(resumed_eng.pop.s, straight_eng.pop.s)
        assert res.evaluations == straight.evaluations
        assert res.generations == straight.generations
        assert res.history == straight.history

    @pytest.mark.parametrize("name", ALL_ENGINES)
    def test_resume_fires_the_straight_runs_improvements(self, name, small_instance):
        """The best fitness ``on_improvement`` compares against is part
        of the checkpoint: under ``replacement="always"`` the population
        best also worsens, and a resumed run fires (and counts) exactly
        the improvements the straight run made after the snapshot."""
        cfg = CFG.with_(replacement="always")
        stop = StopCondition(max_generations=60)
        straight_eng = _make(name, small_instance, config=cfg)
        straight_seen, snap = [], {}
        straight_eng.hooks.on_improvement = lambda e, g, ev, best: straight_seen.append(
            (g, ev, best)
        )

        def keep_first(eng):
            if not snap:
                snap.update(capture_state(eng, stop=stop))

        straight_eng.arm_checkpoint(40, keep_first)
        straight_eng.run(stop)
        assert snap["progress"]["best_seen"] is not None

        obs = Observer(out=None)
        resumed_eng, embedded = resume_engine(snap, instance=small_instance, obs=obs)
        seen = []
        resumed_eng.hooks.on_improvement = lambda e, g, ev, best: seen.append((g, ev, best))
        resumed_eng.run(embedded)
        assert seen == [row for row in straight_seen if row[0] > 40]
        assert obs.registry.merged().counters.get("improvements", 0) == len(seen)

    def test_registry_resume_cases_cover_every_checkpointable_engine(self):
        assert {name for name, _ in RESUME_CASES} == set(engine_names())

    def test_embedded_stop_condition_round_trips(self, small_instance, tmp_path):
        eng = _make("async", small_instance, seed=2)
        run_with_checkpoints(
            eng, StopCondition(max_generations=4), tmp_path / "c.json"
        )
        _, stop = resume_engine(tmp_path / "c.json", instance=small_instance)
        assert stop == StopCondition(max_generations=4)

    def test_free_running_threads_reject_checkpointing(self, small_instance):
        eng = create_engine("threads", small_instance, CFG, seed=1)
        with pytest.raises(ValueError, match="lockstep"):
            eng.arm_checkpoint(1, lambda e: None)


class TestPartitionedCheckpointFixtures:
    """``data/{threads,shm}_v3.json``: lockstep v3 checkpoints written
    before every engine shared one payload (tiny instance, 4x4 grid, two
    workers, seed 5, ``max_generations=6``), taken after generation 3;
    their ``progress`` holds only the worker counters."""

    CFG = CGAConfig(
        grid_rows=4, grid_cols=4, ls_iterations=2, seed_with_minmin=False, n_threads=2
    )
    #: the uninterrupted run's best fitness, as the writing commit saw it
    BEST = {"threads": 1595976.9869108242, "shm": 1595976.9869108237}

    @pytest.mark.parametrize("name", ["threads", "shm"])
    def test_payload_shape(self, name):
        state = load_state(DATA / f"{name}_v3.json")
        assert (state["format_version"], state["engine"]) == (3, name)
        assert set(state["rng_streams"]) == {"workers"}
        assert state["progress"] == {"eval_counts": [24, 24], "gen_counts": [3, 3]}
        assert state["engine_options"] == {"lockstep": True}

    @pytest.mark.parametrize("name", ["threads", "shm"])
    def test_resumes_to_the_uninterrupted_run(self, name, tiny_instance):
        engine, stop = resume_engine(DATA / f"{name}_v3.json", instance=tiny_instance)
        assert stop == StopCondition(max_generations=6)
        res = engine.run(stop)
        straight_eng = _make(name, tiny_instance, seed=5, config=self.CFG)
        straight = straight_eng.run(stop)
        assert res.extra["per_thread_evaluations"] == [48, 48]
        assert (res.evaluations, res.generations) == (96, 6)
        assert res.best_fitness == straight.best_fitness == self.BEST[name]
        assert np.array_equal(engine.pop.s, straight_eng.pop.s)
        assert np.array_equal(engine.pop.fitness, straight_eng.pop.fitness)


class TestLiveRuntimeContract:
    @pytest.mark.parametrize("name", LIVE_CASES)
    def test_run_publishes_live_json_and_arms_watchdog(
        self, name, small_instance, tmp_path
    ):
        """Every wall-clock run loop attaches the observer's runtime: the
        watchdog is armed mid-run and ``live.json`` carries heartbeats."""
        obs = Observer(out=tmp_path, live=True, stall_deadline_s=30.0)
        eng = _make(name, small_instance, obs=obs)
        armed = []
        eng.arm_checkpoint(1, lambda e: armed.append(obs.watchdog is not None))
        eng.run(StopCondition(max_generations=3))
        assert armed and all(armed)
        assert obs.watchdog is None  # detached with the run
        live = json.loads((tmp_path / "live.json").read_text())
        heartbeats = live["progress"]["heartbeats"]
        assert heartbeats and all(hb > 0 for hb in heartbeats)
