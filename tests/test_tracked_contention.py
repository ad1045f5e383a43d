"""Tests for the tracked-contention simulation mode and the timed lock
view that gives the threads engine the same wait/hold accounting."""

import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.cga import CGAConfig, StopCondition
from repro.obs import MetricRecorder
from repro.parallel import CostModel, LockManager, SimulatedPACGA, TimedLocks
from repro.runtime.checkpoint import load_state, resume_engine
from tests.test_simengine import pop_digest

DATA = Path(__file__).parent / "data"


CFG = CGAConfig(grid_rows=6, grid_cols=6, ls_iterations=2, seed_with_minmin=False)


class TestConstruction:
    def test_mode_validation(self, tiny_instance):
        with pytest.raises(ValueError, match="contention"):
            SimulatedPACGA(tiny_instance, CFG, contention="optimistic")

    def test_default_is_meanfield(self, tiny_instance):
        sim = SimulatedPACGA(tiny_instance, CFG)
        assert sim.contention == "meanfield"

    def test_model_validates_new_fields(self):
        with pytest.raises(ValueError):
            CostModel(t_cacheline=-1.0)
        with pytest.raises(ValueError):
            CostModel(t_write_hold=-0.1)


class TestTrackedSemantics:
    def test_deterministic(self, tiny_instance):
        def once():
            sim = SimulatedPACGA(
                tiny_instance, CFG.with_(n_threads=3), seed=4, contention="tracked"
            )
            return sim.run(StopCondition(virtual_time=0.003))

        a, b = once(), once()
        assert a.best_fitness == b.best_fitness
        assert a.evaluations == b.evaluations
        assert a.extra["conflict_wait_s"] == b.extra["conflict_wait_s"]

    def test_extra_reports_conflicts(self, tiny_instance):
        sim = SimulatedPACGA(
            tiny_instance, CFG.with_(n_threads=2), seed=0, contention="tracked"
        )
        res = sim.run(StopCondition(max_generations=3))
        assert res.extra["contention"] == "tracked"
        assert res.extra["lock_conflicts"] >= 0
        assert res.extra["conflict_wait_s"] >= 0.0

    def test_single_thread_tracked_equals_meanfield_genetics(self, tiny_instance):
        # with one thread there is no cross traffic: both modes must
        # produce the same search trajectory
        a = SimulatedPACGA(
            tiny_instance, CFG.with_(n_threads=1), seed=2, contention="tracked"
        ).run(StopCondition(max_generations=3))
        b = SimulatedPACGA(
            tiny_instance, CFG.with_(n_threads=1), seed=2, contention="meanfield"
        ).run(StopCondition(max_generations=3))
        assert a.best_fitness == b.best_fitness
        assert np.array_equal(a.best_assignment, b.best_assignment)

    def test_population_invariants(self, tiny_instance):
        sim = SimulatedPACGA(
            tiny_instance, CFG.with_(n_threads=4), seed=1, contention="tracked"
        )
        sim.run(StopCondition(virtual_time=0.005))
        sim.pop.check_invariants()

    def test_genetics_identical_across_modes(self, small_instance):
        # contention only changes virtual timing; at equal generation
        # counts the same seeds must visit the same populations
        a = SimulatedPACGA(
            small_instance, CFG.with_(n_threads=3), seed=5, contention="tracked"
        ).run(StopCondition(max_generations=3))
        b = SimulatedPACGA(
            small_instance, CFG.with_(n_threads=3), seed=5, contention="meanfield"
        ).run(StopCondition(max_generations=3))
        assert a.best_fitness == b.best_fitness


class TestTrackedRWLock:
    """A TimedLocks view still behaves as the read/write lock it wraps."""

    def test_read_and_write_recorded(self):
        rec = MetricRecorder("t")
        locks = TimedLocks(LockManager(4), rec)
        with locks.read(2):
            pass
        with locks.write(2):
            pass
        locks.flush()
        c = rec.counters
        assert c["lock.read_acquires"] == 1
        assert c["lock.write_acquires"] == 1
        for kind in ("read", "write"):
            assert c[f"lock.{kind}_wait_s_total"] >= 0.0
            assert c[f"lock.{kind}_hold_s_total"] >= 0.0
            assert rec.histograms[f"lock.{kind}_wait_us"].count == 1

    def test_still_a_correct_rwlock(self):
        # mutual exclusion must survive the timing view, and each view
        # charges only its own thread's acquisitions
        base = LockManager(1)
        recs = [MetricRecorder(str(tid)) for tid in range(4)]
        state = {"writers": 0, "max_writers": 0}

        def writer(rec):
            locks = TimedLocks(base, rec)
            for _ in range(50):
                with locks.write(0):
                    state["writers"] += 1
                    state["max_writers"] = max(state["max_writers"], state["writers"])
                    state["writers"] -= 1
            locks.flush()

        threads = [threading.Thread(target=writer, args=(rec,)) for rec in recs]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert state["max_writers"] == 1
        assert [rec.counters["lock.write_acquires"] for rec in recs] == [50] * 4

    def test_wait_time_measured_under_contention(self):
        base = LockManager(1)
        started = threading.Event()

        def holder():
            with base.write(0):
                started.set()
                time.sleep(0.05)

        t = threading.Thread(target=holder)
        t.start()
        started.wait()
        rec = MetricRecorder("b")
        locks = TimedLocks(base, rec)
        with locks.write(0):
            pass
        t.join()
        locks.flush()
        # the second writer demonstrably waited on the first
        assert rec.counters["lock.write_wait_s_total"] >= 0.02


class TestTrackedLockManager:
    """Per-worker TimedLocks views sharing one LockManager."""

    def test_bound_thread_records(self):
        base = LockManager(4)
        rec = MetricRecorder("0")
        before_flush = {}

        def work():
            locks = TimedLocks(base, rec)
            with locks.read(2):
                pass
            with locks.write(2):
                pass
            before_flush["hist"] = [
                rec.histograms[f"lock.{kind}_wait_us"].count for kind in ("read", "write")
            ]
            before_flush["counters"] = dict(rec.counters)
            locks.flush()

        t = threading.Thread(target=work)
        t.start()
        t.join()
        # wait histograms fill immediately; counter totals land on flush
        assert before_flush["hist"] == [1, 1]
        assert "lock.read_acquires" not in before_flush["counters"]
        assert rec.counters["lock.read_acquires"] == 1
        assert rec.counters["lock.write_acquires"] == 1
        assert rec.counters["lock.read_wait_s_total"] >= 0.0
        assert rec.counters["lock.write_hold_s_total"] >= 0.0
        # the shared manager stays usable untimed by other callers
        with base.write(2):
            pass
        assert len(base) == 4

    def test_recording_routes_to_acquiring_thread(self):
        # two threads, two private recorders: counts must not mix
        base = LockManager(2)
        recs = {0: MetricRecorder("0"), 1: MetricRecorder("1")}

        def work(tid: int, n: int) -> None:
            locks = TimedLocks(base, recs[tid])
            for _ in range(n):
                with locks.write(tid):
                    pass
            locks.flush()

        threads = [
            threading.Thread(target=work, args=(0, 3)),
            threading.Thread(target=work, args=(1, 7)),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert recs[0].counters["lock.write_acquires"] == 3
        assert recs[1].counters["lock.write_acquires"] == 7


class TestTrackedTiming:
    def test_cross_traffic_slows_threads(self, small_instance):
        # same evaluation count: tracked multi-thread clocks must exceed
        # a zero-cacheline variant's clocks
        expensive = SimulatedPACGA(
            small_instance, CFG.with_(n_threads=4), seed=0, contention="tracked"
        ).run(StopCondition(max_generations=3))
        cheap_model = CostModel(t_cacheline=0.0, jitter_sigma=0.0)
        cheap = SimulatedPACGA(
            small_instance,
            CFG.with_(n_threads=4),
            seed=0,
            contention="tracked",
            cost_model=cheap_model,
        ).run(StopCondition(max_generations=3))
        assert max(expensive.extra["per_thread_clocks"]) > max(
            cheap.extra["per_thread_clocks"]
        )

    def test_forced_conflicts_detected(self, tiny_instance):
        # absurdly long write holds force queuing to become visible
        sticky = CostModel(t_write_hold=500.0, t_read_hold=200.0, jitter_sigma=0.0)
        sim = SimulatedPACGA(
            tiny_instance,
            CFG.with_(n_threads=4),
            seed=0,
            contention="tracked",
            cost_model=sticky,
        )
        res = sim.run(StopCondition(max_generations=4))
        assert res.extra["lock_conflicts"] > 0
        assert res.extra["conflict_wait_s"] > 0.0


class TestPinnedTrackedRun:
    """Exact values of tracked sim(3) runs under a ``virtual_time`` stop:
    clocks, sweep-boundary stops, lock conflicts and their waits."""

    def test_default_model(self, small_instance):
        sim = SimulatedPACGA(
            small_instance, CFG.with_(n_threads=3), seed=3, contention="tracked"
        )
        res = sim.run(StopCondition(virtual_time=0.005834))
        assert res.elapsed_s == 0.007287264064358803
        assert res.extra["per_thread_evaluations"] == [60, 48, 48]
        assert res.extra["per_thread_clocks"] == [
            0.007287264064358803, 0.0058350814630578705, 0.005835623530460896
        ]
        assert res.extra["lock_conflicts"] == 0
        assert res.extra["conflict_wait_s"] == 0.0
        assert pop_digest(sim.pop) == (
            "3456bf198a29e769465471eaa38b410835611de612d3cd69913c857c72977d0d"
        )

    def test_sticky_locks(self, small_instance):
        # long lock holds make every step queue behind another thread
        sticky = CostModel(t_write_hold=500.0, t_read_hold=200.0)
        sim = SimulatedPACGA(
            small_instance, CFG.with_(n_threads=3), seed=3, contention="tracked",
            cost_model=sticky,
        )
        res = sim.run(StopCondition(virtual_time=0.01))
        assert res.elapsed_s == 0.016800000000000006
        assert res.extra["per_thread_evaluations"] == [24, 24, 24]
        assert res.extra["per_thread_clocks"] == [0.016800000000000006] * 3
        assert res.extra["lock_conflicts"] == 72
        assert res.extra["conflict_wait_s"] == 0.005920570927378145
        assert pop_digest(sim.pop) == (
            "9b486fe1092f35ec256ebd833dec4e35cfe8bc16199955a6a7119c8c1d4cb004"
        )


class TestTrackedCheckpointFixture:
    """``data/sim_tracked_v3.json``: a format-v3 checkpoint of a tracked
    sim(2) run (4x4 grid, seed 5, ``virtual_time=0.003``) taken mid-run,
    with logical thread 1 seven steps into its sweep."""

    def test_payload_shape(self):
        state = load_state(DATA / "sim_tracked_v3.json")
        assert state["format_version"] == 3
        assert set(state["rng_streams"]) == {"gene", "jitter"}
        assert state["engine_options"] == {"history_stride": 1, "contention": "tracked"}
        assert state["progress"]["positions"] == [0, 7]
        assert {"write_until", "read_until", "conflict_wait_s", "conflicts"} <= set(
            state["progress"]
        )

    def test_resumes_to_the_uninterrupted_run(self, tiny_instance):
        engine, stop = resume_engine(DATA / "sim_tracked_v3.json", instance=tiny_instance)
        assert stop == StopCondition(virtual_time=0.003)
        res = engine.run(stop)
        assert res.evaluations == 64
        assert res.extra["per_thread_evaluations"] == [32, 32]
        assert res.elapsed_s == 0.0030296450940864453
        assert res.extra["lock_conflicts"] == 0
        assert pop_digest(engine.pop) == (
            "9c5bc08d91f22ab163a707cd2320872aa1da5b4094dfe7e71578948f1e9aa259"
        )
        straight = SimulatedPACGA(
            tiny_instance, CFG.with_(grid_rows=4, grid_cols=4, n_threads=2), seed=5,
            contention="tracked",
        )
        straight.run(stop)
        assert pop_digest(straight.pop) == pop_digest(engine.pop)

    def test_resuming_under_another_policy_is_refused(self, tiny_instance):
        engine, stop = resume_engine(
            DATA / "sim_tracked_v3.json", instance=tiny_instance,
            engine_kwargs={"contention": "meanfield"},
        )
        with pytest.raises(ValueError, match="contention='tracked'"):
            engine.run(stop)
