"""Exact behaviour of the sequential engines (async, sync, vectorized)
that the golden trajectories do not cover: where an evaluation cap cuts
a generation, what a resumed run reports, the v3 checkpoint payload,
and the merged metric names of an observed run.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from repro.cga import CGAConfig, StopCondition
from repro.obs import Observer
from repro.runtime import capture_state, create_engine, load_state, resume_engine

DATA = Path(__file__).parent / "data"
CFG = CGAConfig(grid_rows=8, grid_cols=8, ls_iterations=2, seed_with_minmin=False)
SEQUENTIAL = ("async", "sync", "vectorized")


def pop_digest(pop) -> str:
    """SHA-256 of the population's genomes and fitnesses."""
    return hashlib.sha256(
        np.ascontiguousarray(pop.s).tobytes() + np.ascontiguousarray(pop.fitness).tobytes()
    ).hexdigest()


class TestEvaluationCap:
    """``max_evaluations=100`` on the 64-cell grid: the scalar engines
    stop on the exact evaluation, mid-way through generation 2; the
    vectorized engine breeds whole generations and overshoots to 128."""

    PINS = {
        "async": (100, "70ad5da3f238d6c57437bb74601e8cf5d2d5d009750e94fd26a442f5535f5646"),
        "sync": (100, "998c4623de327712944955812f35734499454e1641739bdaa138ad14e2ccf2dc"),
        "vectorized": (
            128, "dbba53e7bc27b4cdf58394d90fcaa5a5e16d4558a0bdb1a2b84575eeefb98ed7"
        ),
    }

    @pytest.mark.parametrize("name", SEQUENTIAL)
    def test_cap_cuts_the_last_generation(self, name, small_instance):
        evaluations, digest = self.PINS[name]
        eng = create_engine(name, small_instance, CFG, seed=3)
        res = eng.run(StopCondition(max_evaluations=100))
        assert res.evaluations == evaluations
        assert res.generations == 2
        assert [row[:2] for row in res.history] == [(0, 0), (1, 64), (2, evaluations)]
        assert pop_digest(eng.pop) == digest


@pytest.mark.parametrize("name", SEQUENTIAL)
def test_resumed_run_repeats_no_improvement_and_no_history_row(name, small_instance):
    """A run resumed from a generation-3 checkpoint fires ``on_improvement``
    only for the improvements the straight run made after generation 3,
    and reports the straight run's history, each row once."""
    stop = StopCondition(max_generations=8)
    straight_seen, snap = [], {}
    eng = create_engine(name, small_instance, CFG, seed=3)
    eng.hooks.on_improvement = lambda e, g, ev, best: straight_seen.append((g, ev, best))

    def keep_first(engine):
        if not snap:
            snap.update(capture_state(engine, stop=stop))

    eng.arm_checkpoint(3, keep_first)
    straight = eng.run(stop)
    assert snap["progress"]["gen_counts"] == [3]

    resumed_eng, embedded = resume_engine(snap, instance=small_instance)
    seen = []
    resumed_eng.hooks.on_improvement = lambda e, g, ev, best: seen.append((g, ev, best))
    resumed = resumed_eng.run(embedded)
    assert seen == [row for row in straight_seen if row[0] > 3]
    assert resumed.history == straight.history
    assert len({row[0] for row in resumed.history}) == len(resumed.history) == 9


@pytest.mark.parametrize("name", SEQUENTIAL)
def test_resume_keeps_history_recording_off(name, small_instance):
    """``record_history=False`` is an engine option the checkpoint
    replays: the resumed run records no history rows either."""
    stop = StopCondition(max_generations=5)
    snap = {}
    eng = create_engine(name, small_instance, CFG, seed=3, record_history=False)

    def keep_first(engine):
        if not snap:
            snap.update(capture_state(engine, stop=stop))

    eng.arm_checkpoint(2, keep_first)
    assert eng.run(stop).history == []
    resumed_eng, embedded = resume_engine(snap, instance=small_instance)
    assert resumed_eng.record_history is False
    resumed = resumed_eng.run(embedded)
    assert (resumed.generations, resumed.history) == (5, [])


class TestAsyncCheckpointFixture:
    """``data/async_v3.json``: a format-v3 checkpoint of an async run
    (tiny instance, 4x4 grid, seed 5, ``max_evaluations=100``) taken
    after generation 3 of 7."""

    def test_payload_shape(self):
        state = load_state(DATA / "async_v3.json")
        assert state["format_version"] == 3
        assert state["engine"] == "async"
        assert set(state["rng_streams"]) == {"main"}
        assert isinstance(state["rng_streams"]["main"], dict)
        assert set(state["progress"]) == {"evaluations", "generations", "history", "best_seen"}
        assert (state["progress"]["evaluations"], state["progress"]["generations"]) == (48, 3)
        assert "engine_options" not in state

    def test_resumes_to_the_uninterrupted_run(self, tiny_instance):
        engine, stop = resume_engine(DATA / "async_v3.json", instance=tiny_instance)
        assert stop == StopCondition(max_evaluations=100)
        seen = []
        engine.hooks.on_improvement = lambda e, g, ev, best: seen.append((g, ev))
        res = engine.run(stop)
        assert (res.evaluations, res.generations) == (100, 7)
        assert [row[:2] for row in res.history] == [
            (0, 0), (1, 16), (2, 32), (3, 48), (4, 64), (5, 80), (6, 96), (7, 100)
        ]
        assert seen == [(5, 80)]
        assert res.best_fitness == 1499551.8376582018
        assert pop_digest(engine.pop) == (
            "c24305f264476fb19a9c0566778a4ec9d5e1f4345a8bffeae1d7500a61acedb6"
        )


class TestMergedMetricNames:
    """The merged metric names of an observed run of 300 evaluations."""

    BREEDING = {
        "breeding.evaluations", "breeding.replacements", "breeding.steps",
        "improvements", "ls.calls", "ls.moves_accepted", "ls.moves_tried",
        *(
            f"op.{op}.{what}"
            for op in ("crossover", "ls", "mutation", "replacement")
            for what in ("attempts", "delta", "successes")
        ),
    }
    PHASES = {f"phase.{p}_us" for p in ("crossover", "fitness", "ls", "mutate", "select")}

    @pytest.mark.parametrize("name", SEQUENTIAL)
    def test_names(self, name, small_instance):
        obs = Observer(out=None, sample_every_evals=64)
        create_engine(name, small_instance, CFG, seed=3, obs=obs).run(
            StopCondition(max_evaluations=300)
        )
        merged = obs.registry.merged()
        extra = {"sweeps"} if name == "vectorized" else set()
        assert set(merged.counters) == self.BREEDING | extra
        assert set(merged.histograms) == self.PHASES
