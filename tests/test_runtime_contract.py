"""Cross-engine contract suite, parametrized from the engine registry.

Every registered engine — regardless of substrate — must produce a
schema-valid :class:`RunResult`, respect ``max_evaluations`` within one
sweep of the budget, honor ``seed_with_minmin``, and resume a mid-run
checkpoint to a bit-identical final result.
"""

import json

import numpy as np
import pytest

from repro.cga import CGAConfig, StopCondition
from repro.heuristics.minmin import min_min
from repro.obs import Observer
from repro.runtime import (
    capture_state,
    create_engine,
    engine_names,
    resolve_engine,
    resume_engine,
    run_with_checkpoints,
)

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

#: engines with a wall-clock run loop (threads and shm in lockstep).
#: sim is left out: it runs in virtual time, so a wall-clock heartbeat
#: deadline says nothing about its progress.
LIVE_CASES = ["async", "sync", "vectorized", "threads", "shm"]


def _make(name, instance, seed=3, config=CFG, **extras):
    if resolve_engine(name).name in ("threads", "shm"):
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
