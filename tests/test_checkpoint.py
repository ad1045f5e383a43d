"""Tests for engine checkpoint / resume."""

import numpy as np
import pytest

from repro.cga import AsyncCGA, CGAConfig, StopCondition
from repro.runtime.checkpoint import (
    capture_state,
    load_state,
    restore_state,
    save_checkpoint,
)


CFG = CGAConfig(grid_rows=4, grid_cols=4, ls_iterations=2, seed_with_minmin=False)


class TestExactResume:
    def test_split_run_equals_straight_run(self, small_instance):
        straight = AsyncCGA(small_instance, CFG, rng=5)
        res_straight = straight.run(StopCondition(max_generations=10))

        first = AsyncCGA(small_instance, CFG, rng=5)
        first.run(StopCondition(max_generations=5))
        state = capture_state(first)

        resumed = AsyncCGA(small_instance, CFG, rng=999)  # wrong seed on purpose
        restore_state(resumed, state)
        # the counters continue, so the budget is the cumulative one
        res_resumed = resumed.run(StopCondition(max_generations=10))

        assert res_resumed.best_fitness == res_straight.best_fitness
        assert np.array_equal(res_resumed.best_assignment, res_straight.best_assignment)
        assert np.array_equal(resumed.pop.s, straight.pop.s)

    def test_file_roundtrip(self, small_instance, tmp_path):
        eng = AsyncCGA(small_instance, CFG, rng=1)
        eng.run(StopCondition(max_generations=3))
        path = tmp_path / "ckpt" / "state.json"
        save_checkpoint(eng, path)

        other = AsyncCGA(small_instance, CFG, rng=2)
        restore_state(other, load_state(path))
        assert np.array_equal(other.pop.s, eng.pop.s)
        assert other.rng.random() == eng.rng.random()

    def test_save_fsyncs_the_file_before_replacing(self, small_instance, tmp_path, monkeypatch):
        """A checkpoint must reach the disk before it replaces the previous one."""
        import os

        events = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            events.append(("fsync", os.readlink(f"/proc/self/fd/{fd}")))
            real_fsync(fd)

        def replace(src, dst):
            events.append(("replace", str(src)))
            real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        eng = AsyncCGA(small_instance, CFG, rng=1)
        path = tmp_path / "state.json"
        save_checkpoint(eng, path)
        tmp = str(path.with_name(path.name + ".tmp"))
        assert events == [("fsync", tmp), ("replace", tmp)]
        restore_state(AsyncCGA(small_instance, CFG, rng=2), load_state(path))


class TestValidation:
    def test_rejects_config_mismatch(self, small_instance):
        eng = AsyncCGA(small_instance, CFG, rng=1)
        state = capture_state(eng)
        other = AsyncCGA(small_instance, CFG.with_(ls_iterations=9), rng=1)
        with pytest.raises(ValueError, match="configuration"):
            restore_state(other, state)

    def test_rejects_instance_mismatch(self, small_instance, tiny_instance):
        # same grid shapes, different instance names
        eng = AsyncCGA(small_instance, CFG, rng=1)
        state = capture_state(eng)
        other = AsyncCGA(tiny_instance, CFG, rng=1)
        with pytest.raises(ValueError, match="instance"):
            restore_state(other, state)

    def test_rejects_unknown_version(self, small_instance):
        eng = AsyncCGA(small_instance, CFG, rng=1)
        state = capture_state(eng)
        state["format_version"] = 42
        with pytest.raises(ValueError, match="version"):
            restore_state(eng, state)

    def test_population_intact_after_failed_restore(self, small_instance, tiny_instance):
        eng = AsyncCGA(small_instance, CFG, rng=1)
        state = capture_state(eng)
        other = AsyncCGA(tiny_instance, CFG, rng=1)
        before = other.pop.s.copy()
        with pytest.raises(ValueError):
            restore_state(other, state)
        assert np.array_equal(other.pop.s, before)


class TestStateContents:
    def test_json_serializable(self, small_instance):
        import json

        eng = AsyncCGA(small_instance, CFG, rng=1)
        state = capture_state(eng)
        text = json.dumps(state)
        assert "rng_streams" in text
        assert state["format_version"] == 3
        assert state["engine"] == "async"
        assert state["problem"] == "independent"
        # the config is a real dict, not a repr string
        assert state["config"]["ls_iterations"] == CFG.ls_iterations

    def test_v1_checkpoint_is_rejected(self, small_instance):
        # hand-build a format-1 state (what the old module wrote): both
        # entry points refuse it instead of half-restoring it
        from repro.runtime.checkpoint import resume_engine

        eng = AsyncCGA(small_instance, CFG, rng=7)
        v1 = {
            "format_version": 1,
            "config": repr(eng.config),
            "instance": eng.instance.name,
            "s": eng.pop.s.tolist(),
            "ct": eng.pop.ct.tolist(),
            "fitness": eng.pop.fitness.tolist(),
            "rng_state": eng.rng.bit_generator.state,
        }
        message = r"^unsupported checkpoint version: 1$"
        with pytest.raises(ValueError, match=message):
            restore_state(AsyncCGA(small_instance, CFG, rng=0), v1)
        with pytest.raises(ValueError, match=message):
            resume_engine(v1, instance=small_instance)

    def test_restored_invariants(self, small_instance, tmp_path):
        eng = AsyncCGA(small_instance, CFG, rng=1)
        eng.run(StopCondition(max_generations=4))
        save_checkpoint(eng, tmp_path / "c.json")
        fresh = AsyncCGA(small_instance, CFG, rng=0)
        restore_state(fresh, load_state(tmp_path / "c.json"))
        fresh.pop.check_invariants()


class TestLegacyObsKey:
    """Checkpoints written while ``CGAConfig`` had an ``obs`` field carry
    ``"obs": null``; they still load, and a non-null value is refused."""

    def test_null_obs_key_restores_and_resumes_bit_exactly(self, small_instance):
        straight = AsyncCGA(small_instance, CFG, rng=5)
        res_straight = straight.run(StopCondition(max_generations=10))

        first = AsyncCGA(small_instance, CFG, rng=5)
        first.run(StopCondition(max_generations=5))
        state = capture_state(first)
        state["config"]["obs"] = None

        resumed = AsyncCGA(small_instance, CFG, rng=999)
        restore_state(resumed, state)
        res_resumed = resumed.run(StopCondition(max_generations=10))

        assert res_resumed.best_fitness == res_straight.best_fitness
        assert res_resumed.evaluations == res_straight.evaluations
        assert np.array_equal(resumed.pop.s, straight.pop.s)
        assert np.array_equal(resumed.pop.fitness, straight.pop.fitness)

    def test_non_null_obs_key_is_rejected(self, small_instance):
        eng = AsyncCGA(small_instance, CFG, rng=1)
        state = capture_state(eng)
        state["config"]["obs"] = {"out": "/tmp/x"}
        with pytest.raises(ValueError, match="telemetry"):
            restore_state(AsyncCGA(small_instance, CFG, rng=1), state)
