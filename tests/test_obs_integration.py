"""End-to-end observability tests: engines -> bundles, and the
zero-overhead-when-disabled guarantee."""

import json

import numpy as np
import pytest

from repro.cga import AsyncCGA, CGAConfig, StopCondition, SyncCGA
from repro.cga.vectorized import VectorizedSyncCGA
from repro.obs import (
    Observer,
    load_bundle,
    load_grid_rows,
    render_markdown,
    render_terminal,
)
from repro.obs.metrics import MetricRecorder
from repro.parallel import SimulatedPACGA, ThreadedPACGA
from repro.parallel.shm import ShmBlockPACGA


CFG = CGAConfig(grid_rows=6, grid_cols=6, ls_iterations=2, seed_with_minmin=False)
BUNDLE_FILES = {
    "meta.json",
    "metrics.json",
    "timeseries.jsonl",
    "grid.jsonl",
    "trace.json",
    "report.md",
}


def observed_steps(steps: int) -> int:
    """Steps a step tally observes in full out of ``steps``: 1 in 8."""
    return -(-steps // 8)


class TestSequentialBundle:
    def test_async_bundle_complete_and_consistent(self, tiny_instance, tmp_path):
        out = tmp_path / "bundle"
        obs = Observer(out=out, sample_every_evals=36)
        eng = AsyncCGA(tiny_instance, CFG, rng=0, obs=obs)
        res = eng.run(StopCondition(max_evaluations=180))
        obs.finalize()

        assert {p.name for p in out.iterdir()} == BUNDLE_FILES
        metrics = json.loads((out / "metrics.json").read_text())
        # breeding counters agree exactly with the engine's own counts
        assert metrics["merged"]["counters"]["breeding.evaluations"] == res.evaluations
        assert metrics["merged"]["counters"]["breeding.steps"] == res.evaluations
        # one breeding step in 8 (the first of each 8) is lapped in full
        hists = metrics["merged"]["histograms"]
        for phase in TestShmBundle.PHASES:
            assert hists[f"phase.{phase}_us"]["count"] == observed_steps(res.evaluations)
        counters = metrics["merged"]["counters"]
        assert counters["ls.moves_tried"] == counters["ls.calls"] * CFG.ls_iterations

        rows = [
            json.loads(line)
            for line in (out / "timeseries.jsonl").read_text().splitlines()
        ]
        assert rows, "sampler must emit at least the forced final row"
        assert rows[-1]["evaluations"] == res.evaluations
        assert all({"t_s", "evaluations", "best", "mean", "entropy"} <= set(r) for r in rows)
        # best is monotone non-increasing under if-better replacement
        bests = [r["best"] for r in rows]
        assert bests == sorted(bests, reverse=True)

        trace = json.loads((out / "trace.json").read_text())
        assert trace["traceEvents"], "trace must contain events"

        meta = json.loads((out / "meta.json").read_text())
        assert meta["result"]["evaluations"] == res.evaluations

    def test_vectorized_bundle(self, tiny_instance, tmp_path):
        out = tmp_path / "vec"
        obs = Observer(out=out, sample_every_evals=36)
        eng = VectorizedSyncCGA(tiny_instance, CFG, rng=0, obs=obs)
        res = eng.run(StopCondition(max_generations=4))
        obs.finalize()
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["merged"]["counters"]["breeding.evaluations"] == res.evaluations
        assert "phase.select_us" in metrics["merged"]["histograms"]

    def test_ls_acceptance_rate_in_rows(self, tiny_instance, tmp_path):
        obs = Observer(out=tmp_path / "b", sample_every_evals=36)
        AsyncCGA(tiny_instance, CFG, rng=0, obs=obs).run(
            StopCondition(max_evaluations=108)
        )
        rates = [r.get("ls_accept_rate") for r in obs.sampler.rows]
        assert any(r is not None and 0.0 <= r <= 1.0 for r in rates)


class TestThreadedBundle:
    def test_per_thread_series(self, tiny_instance, tmp_path):
        n = 3
        out = tmp_path / "bundle"
        obs = Observer(out=out, sample_every_evals=64)
        eng = ThreadedPACGA(tiny_instance, CFG.with_(n_threads=n), seed=0, obs=obs)
        res = eng.run(StopCondition(max_evaluations=360))
        obs.finalize()

        metrics = json.loads((out / "metrics.json").read_text())
        # the acceptance criterion: the bundle carries N threads' series
        assert set(metrics["per_thread"]) == {str(t) for t in range(n)}
        for tid in range(n):
            per = metrics["per_thread"][str(tid)]["counters"]
            assert per["breeding.evaluations"] > 0
            assert per["sweeps"] >= 1
            assert per["lock.write_acquires"] > 0
        merged = metrics["merged"]["counters"]
        assert merged["breeding.evaluations"] == res.evaluations
        assert "sweep_us" in metrics["merged"]["histograms"]

        trace = json.loads((out / "trace.json").read_text())
        lanes = {e["tid"] for e in trace["traceEvents"] if e["ph"] == "X"}
        assert lanes == set(range(n))

    def test_boundary_reads_counted(self, tiny_instance, tmp_path):
        obs = Observer(out=None, sample_every_evals=64)
        eng = ThreadedPACGA(tiny_instance, CFG.with_(n_threads=2), seed=0, obs=obs)
        eng.run(StopCondition(max_generations=2))
        merged = obs.registry.merged().counters
        # 6x6 grid split in 2 blocks: boundary cells certainly exist
        assert merged["boundary_evals"] > 0


class TestShmBundle:
    """shm records the same breeding telemetry as vectorized: both run
    the one batch breeding step, ``repro.kernels.breed.breed``.  The
    threads engine shares shm's lockstep loop, so its observed lockstep
    run records the scalar equivalents through per-worker step tallies."""

    PHASES = ("select", "crossover", "mutate", "ls", "fitness")

    @pytest.mark.parametrize(
        "engine, lockstep",
        [
            pytest.param(ShmBlockPACGA, True, id="lockstep"),
            pytest.param(ShmBlockPACGA, False, id="free"),
            pytest.param(ThreadedPACGA, True, id="threads-lockstep"),
        ],
    )
    def test_counters_and_phases(self, tiny_instance, engine, lockstep):
        obs = Observer(out=None, sample_every_evals=64)
        eng = engine(
            tiny_instance, CFG.with_(n_threads=2), seed=0, obs=obs, lockstep=lockstep
        )
        res = eng.run(StopCondition(max_generations=3))
        merged = obs.registry.merged()
        counters, hists = merged.counters, merged.histograms
        assert counters["breeding.evaluations"] == res.evaluations
        assert counters["op.replacement.attempts"] == res.evaluations
        assert counters["op.crossover.attempts"] > 0
        assert counters["op.mutation.attempts"] > 0
        assert counters["boundary_evals"] > 0
        if lockstep:
            # one sweep_us observation and one sweep span per block sweep,
            # as in free-running mode
            sweeps = sum(res.extra["per_thread_generations"])
            assert hists["sweep_us"].count == sweeps
            spans = [
                e for e in obs.tracer.export()["traceEvents"] if e["name"] == "sweep"
            ]
            assert len(spans) == sweeps
        # the batch rule, which the scalar tally adopts
        assert counters["ls.moves_tried"] == counters["ls.calls"] * CFG.ls_iterations
        for phase in self.PHASES:
            if engine is ShmBlockPACGA:
                # one batch kernel call per phase per sweep
                assert hists[f"phase.{phase}_us"].count == counters["sweeps"]
            else:
                # each worker's tally laps 1 step in 8 of its own steps
                assert hists[f"phase.{phase}_us"].count == sum(
                    map(observed_steps, res.extra["per_thread_evaluations"])
                )

    def test_recorder_draws_no_rng(self, tiny_instance):
        # every observed step path: the batch step (shm lockstep) and the
        # scalar step with a tally (threads lockstep, async, sync)
        engines = {
            "shm": lambda obs: ShmBlockPACGA(
                tiny_instance, CFG.with_(n_threads=2), seed=0, obs=obs, lockstep=True
            ),
            "threads": lambda obs: ThreadedPACGA(
                tiny_instance, CFG.with_(n_threads=2), seed=0, obs=obs, lockstep=True
            ),
            "async": lambda obs: AsyncCGA(tiny_instance, CFG, rng=0, obs=obs),
            "sync": lambda obs: SyncCGA(tiny_instance, CFG, rng=0, obs=obs),
            "sim": lambda obs: SimulatedPACGA(
                tiny_instance, CFG.with_(n_threads=2), seed=0, obs=obs
            ),
            "sim tracked": lambda obs: SimulatedPACGA(
                tiny_instance, CFG.with_(n_threads=2), seed=0, obs=obs,
                contention="tracked",
            ),
        }

        def final_population(make, obs):
            eng = make(obs)
            eng.run(StopCondition(max_generations=4))
            return eng.pop.s.copy(), eng.pop.ct.copy(), eng.pop.fitness.copy()

        for name, make in engines.items():
            plain = final_population(make, None)
            observed = final_population(make, Observer(out=None, sample_every_evals=64))
            for a, b in zip(plain, observed):
                assert np.array_equal(a, b), name


class TestSimulatedBundle:
    def test_virtual_time_rows_and_spans(self, tiny_instance, tmp_path):
        out = tmp_path / "sim"
        obs = Observer(out=out, sample_every_evals=None, sample_every_s=0.001)
        eng = SimulatedPACGA(
            tiny_instance, CFG.with_(n_threads=2), seed=0, obs=obs
        )
        res = eng.run(StopCondition(virtual_time=0.01))
        obs.finalize()
        rows = obs.sampler.rows
        assert rows and rows[-1]["evaluations"] == res.evaluations
        # rows are stamped with the *virtual* clock
        assert rows[-1]["t_s"] <= res.elapsed_s + 0.01
        assert all("virtual_t_s" in r for r in rows)
        trace = json.loads((out / "trace.json").read_text())
        spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert spans
        # span timestamps are virtual microseconds within the budget
        assert all(0.0 <= e["ts"] <= 0.05e6 for e in spans)

    def test_tracked_contention_counters(self, tiny_instance):
        from repro.parallel.costmodel import CostModel

        sticky = CostModel(t_write_hold=500.0, t_read_hold=200.0, jitter_sigma=0.0)
        obs = Observer(out=None, sample_every_evals=10**9)
        eng = SimulatedPACGA(
            tiny_instance,
            CFG.with_(n_threads=4),
            seed=0,
            contention="tracked",
            cost_model=sticky,
            obs=obs,
        )
        res = eng.run(StopCondition(max_generations=4))
        merged = obs.registry.merged().counters
        assert merged["lock.conflicts"] == res.extra["lock_conflicts"]
        waits = merged.get("lock.read_wait_s_total", 0.0) + merged.get(
            "lock.write_wait_s_total", 0.0
        )
        assert waits == pytest.approx(res.extra["conflict_wait_s"])

    @pytest.mark.parametrize("contention", ["meanfield", "tracked"])
    def test_records_the_counters_threads_records(self, tiny_instance, contention):
        cfg = CFG.with_(n_threads=3)
        t_obs = Observer(out=None, sample_every_evals=10**9)
        ThreadedPACGA(tiny_instance, cfg, seed=0, obs=t_obs, lockstep=True).run(
            StopCondition(max_generations=3)
        )
        names = {
            name
            for name in t_obs.registry.merged().counters
            if name.split(".")[0] in ("breeding", "op", "ls")
        }
        assert names
        obs = Observer(out=None, sample_every_evals=10**9)
        # 100 evaluations end mid-sweep: cut-short sweeps are recorded too
        res = SimulatedPACGA(
            tiny_instance, cfg, seed=0, contention=contention, obs=obs
        ).run(StopCondition(max_evaluations=100))
        counters = obs.registry.merged().counters
        assert names <= set(counters)
        assert counters["breeding.evaluations"] == res.evaluations == 100
        assert counters["sweeps"] == sum(res.extra["per_thread_generations"])

    def test_trace_lanes_are_named_like_the_real_workers(self, tiny_instance, tmp_path):
        obs = Observer(out=tmp_path / "sim", sample_every_evals=10**9)
        SimulatedPACGA(tiny_instance, CFG.with_(n_threads=2), seed=0, obs=obs).run(
            StopCondition(max_generations=2)
        )
        obs.finalize()
        trace = json.loads((tmp_path / "sim" / "trace.json").read_text())
        lanes = {
            e["args"]["name"] for e in trace["traceEvents"] if e["name"] == "thread_name"
        }
        assert {"pacga-sim-w0", "pacga-sim-w1"} <= lanes


class TestAutoFinalize:
    def test_auto_finalize_writes_bundle_on_stop(self, tiny_instance, tmp_path):
        out = tmp_path / "auto"
        obs = Observer(out=out, sample_every_evals=36)
        obs.auto_finalize = True
        eng = AsyncCGA(tiny_instance, CFG, rng=0, obs=obs)
        eng.run(StopCondition(max_evaluations=72))
        # no manual finalize: the on_stop hook wrote the bundle
        assert {p.name for p in out.iterdir()} == BUNDLE_FILES

    def test_observer_validates_cadence(self):
        with pytest.raises(ValueError):
            Observer(sample_every_evals=None, sample_every_s=None)


class TestZeroOverheadWhenDisabled:
    def test_no_recorder_allocations_without_obs(self, tiny_instance, monkeypatch):
        # the disabled path must never construct a MetricRecorder: patch
        # the constructor to explode and run every engine family dry
        def boom(self, *a, **k):
            raise AssertionError("MetricRecorder constructed on the disabled path")

        monkeypatch.setattr(MetricRecorder, "__init__", boom)
        AsyncCGA(tiny_instance, CFG, rng=0).run(StopCondition(max_generations=2))
        ThreadedPACGA(tiny_instance, CFG.with_(n_threads=2), seed=0).run(
            StopCondition(max_generations=2)
        )
        SimulatedPACGA(tiny_instance, CFG.with_(n_threads=2), seed=0).run(
            StopCondition(max_generations=2)
        )
        VectorizedSyncCGA(tiny_instance, CFG, rng=0).run(
            StopCondition(max_generations=2)
        )

    def test_disabled_engines_keep_plain_ops(self, tiny_instance):
        eng = AsyncCGA(tiny_instance, CFG, rng=0)
        assert eng.obs is None
        assert eng.ops is not None
        # no engine wraps its operators: the plain path runs the
        # registry functions themselves
        from repro.cga.selection import SELECTIONS

        assert eng.ops.select is SELECTIONS[CFG.selection]


class TestCrashSafety:
    def test_context_manager_finalizes_partial_bundle(self, tiny_instance, tmp_path):
        out = tmp_path / "crashed"
        with pytest.raises(RuntimeError, match="boom"):
            with Observer(out=out, sample_every_evals=36) as obs:
                AsyncCGA(tiny_instance, CFG, rng=0, obs=obs).run(
                    StopCondition(max_evaluations=108)
                )
                raise RuntimeError("boom")
        # the exception propagated AND the partial bundle exists
        assert {p.name for p in out.iterdir()} == BUNDLE_FILES
        meta = json.loads((out / "meta.json").read_text())
        assert meta["interrupted"] == {"type": "RuntimeError", "message": "boom"}

    def test_keyboard_interrupt_finalizes(self, tiny_instance, tmp_path):
        out = tmp_path / "ctrlc"
        with pytest.raises(KeyboardInterrupt):
            with Observer(out=out, sample_every_evals=36) as obs:
                AsyncCGA(tiny_instance, CFG, rng=0, obs=obs).run(
                    StopCondition(max_evaluations=72)
                )
                raise KeyboardInterrupt
        meta = json.loads((out / "meta.json").read_text())
        assert meta["interrupted"]["type"] == "KeyboardInterrupt"

    def test_clean_exit_has_no_interrupt_stamp(self, tiny_instance, tmp_path):
        out = tmp_path / "clean"
        with Observer(out=out, sample_every_evals=36) as obs:
            AsyncCGA(tiny_instance, CFG, rng=0, obs=obs).run(
                StopCondition(max_evaluations=72)
            )
        meta = json.loads((out / "meta.json").read_text())
        assert "interrupted" not in meta

    def test_rows_streamed_before_finalize(self, tiny_instance, tmp_path):
        """Every sampled row is already on disk while the run executes,
        so a hard crash (no finalize at all) still leaves the series."""
        out = tmp_path / "streaming"
        obs = Observer(out=out, sample_every_evals=36)
        AsyncCGA(tiny_instance, CFG, rng=0, obs=obs).run(
            StopCondition(max_evaluations=144)
        )
        # no finalize() call here, on purpose
        lines = (out / "timeseries.jsonl").read_text().splitlines()
        assert len(lines) >= 1
        assert lines == [json.dumps(r) for r in obs.sampler.rows]


class TestReporting:
    def test_render_and_load_bundle(self, tiny_instance, tmp_path):
        out = tmp_path / "bundle"
        obs = Observer(out=out, sample_every_evals=36)
        AsyncCGA(tiny_instance, CFG, rng=0, obs=obs).run(
            StopCondition(max_evaluations=108)
        )
        obs.finalize()
        meta, metrics, rows = load_bundle(out)
        grid_rows = load_grid_rows(out)
        term = render_terminal(meta, metrics, rows, grid_rows=grid_rows)
        md = render_markdown(meta, metrics, rows, grid_rows=grid_rows)
        for text in (term, md):
            assert "Phase timings" in text
            assert "Convergence time series" in text
            assert "Operator attribution" in text
            assert "Grid dynamics" in text
        report = (out / "report.md").read_text()
        assert report == md

    def test_markdown_has_one_timing_table_per_sampling_unit(self):
        """Phase, sweep and lock samples count different things, so each
        gets its own table and no table mixes two of them."""
        hist = {"count": 4, "mean": 2.0, "p50": 2.0, "p99": 3.0, "sum": 8.0}
        keys = ("phase.select_us", "phase.ls_us", "sweep_us", "lock.read_wait_us")
        metrics = {"merged": {"histograms": {k: dict(hist) for k in keys}}}
        md = render_markdown({}, metrics, [])
        tables = {}
        for block in md.split("\n## ")[1:]:
            title, _, body = block.partition("\n")
            tables[title.split(" (")[0]] = body
        assert set(tables) >= {"Phase timings", "Sweep timings", "Lock waits"}
        assert "one sample per block sweep" in md
        assert "one sample per timed acquisition" in md
        rows = {
            "Phase timings": ("selection", "local search"),
            "Sweep timings": ("block sweep",),
            "Lock waits": ("read wait",),
        }
        for title, labels in rows.items():
            body = tables[title]
            for other_title, other_labels in rows.items():
                for label in other_labels:
                    assert (label in body) == (other_title == title), (title, label)

    def test_summary_without_out_dir(self, tiny_instance):
        obs = Observer(out=None, sample_every_evals=36)
        AsyncCGA(tiny_instance, CFG, rng=0, obs=obs).run(
            StopCondition(max_evaluations=72)
        )
        assert obs.finalize() == {}
        assert "Phase timings" in obs.summary()
