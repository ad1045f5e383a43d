"""Live export: OpenMetrics rendering, atomic live.json, HTTP endpoint."""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.cga import CGAConfig, StopCondition
from repro.obs import Observer
from repro.obs.live import (
    OPENMETRICS_CONTENT_TYPE,
    LivePublisher,
    atomic_write_json,
    render_openmetrics,
)
from repro.parallel import ThreadedPACGA


CFG = CGAConfig(grid_rows=6, grid_cols=6, ls_iterations=2, seed_with_minmin=False)

GOLDEN_MERGED = {
    "counters": {"breeding.evaluations": 128.0, "sweeps": 4},
    "gauges": {"pop.best": 42.5, "per.thread{t=1}": 1.0},
    "histograms": {
        "sweep_us": {"bounds": [10, 100], "counts": [3, 2, 1], "count": 6, "sum": 250.0}
    },
}
GOLDEN_PROGRESS = {
    "generation": 7,
    "evaluations": 128,
    "best": 42.5,
    "elapsed_s": 1.5,
    "heartbeats": [3, 4],
    "workers_done": [0, 1],
}
GOLDEN_EXPOSITION = """\
# TYPE repro_run_generation gauge
repro_run_generation 7
# TYPE repro_run_evaluations gauge
repro_run_evaluations 128
# TYPE repro_run_best_fitness gauge
repro_run_best_fitness 42.5
# TYPE repro_run_elapsed_seconds gauge
repro_run_elapsed_seconds 1.5
# TYPE repro_worker_heartbeat counter
repro_worker_heartbeat_total{worker="0"} 3
repro_worker_heartbeat_total{worker="1"} 4
# TYPE repro_worker_done gauge
repro_worker_done{worker="0"} 0
repro_worker_done{worker="1"} 1
# TYPE repro_breeding_evaluations counter
repro_breeding_evaluations_total 128
# TYPE repro_sweeps counter
repro_sweeps_total 4
# TYPE repro_pop_best gauge
repro_pop_best 42.5
# TYPE repro_sweep_us histogram
repro_sweep_us_bucket{le="10"} 3
repro_sweep_us_bucket{le="100"} 5
repro_sweep_us_bucket{le="+Inf"} 6
repro_sweep_us_sum 250
repro_sweep_us_count 6
# EOF
"""


class TestOpenMetrics:
    def test_golden_exposition(self):
        """The full exposition format is pinned byte for byte: # TYPE
        lines, _total counter suffix, cumulative histogram buckets with
        le labels, +Inf bucket, # EOF terminator."""
        assert render_openmetrics(GOLDEN_MERGED, GOLDEN_PROGRESS) == GOLDEN_EXPOSITION

    def test_empty_snapshot_is_valid(self):
        out = render_openmetrics({})
        assert out == "# EOF\n"

    def test_no_progress_skips_run_gauges(self):
        out = render_openmetrics({"counters": {"x": 1.0}})
        assert out == "# TYPE repro_x counter\nrepro_x_total 1\n# EOF\n"

    def test_labeled_merge_gauges_are_skipped(self):
        out = render_openmetrics({"gauges": {"a{t=0}": 1.0}})
        assert "a_t" not in out

    def test_rendering_real_recorder_snapshot(self):
        obs = Observer(out=None, sample_every_evals=64)
        rec = obs.recorder(0)
        rec.inc("breeding.evaluations", 10)
        rec.observe("sweep_us", 12.0)
        text = render_openmetrics(obs.registry.merged().snapshot())
        assert "repro_breeding_evaluations_total 10" in text
        assert text.endswith("# EOF\n")
        assert 'repro_sweep_us_bucket{le="+Inf"} 1' in text


class TestAtomicWrite:
    def test_write_and_replace(self, tmp_path):
        target = tmp_path / "live.json"
        atomic_write_json(target, {"a": 1})
        atomic_write_json(target, {"a": 2})
        assert json.loads(target.read_text()) == {"a": 2}
        # the temp file never survives
        assert [p.name for p in tmp_path.iterdir()] == ["live.json"]


class TestLivePublisher:
    def _observer(self, tmp_path, **kw):
        obs = Observer(out=tmp_path / "bundle", sample_every_evals=10**9, **kw)
        obs.meta.update({"engine": "threads", "instance": "tiny", "n_threads": 2})
        return obs

    def test_publish_writes_snapshot(self, tmp_path):
        obs = self._observer(tmp_path, live=True)
        obs.recorder(0).inc("breeding.evaluations", 5)
        pub = LivePublisher(
            obs, progress=lambda: {"generation": 1, "evaluations": 5, "best": 9.0},
            out=obs.out,
        )
        snap = pub.publish()
        on_disk = json.loads((obs.out / "live.json").read_text())
        assert on_disk == snap
        assert on_disk["meta"]["engine"] == "threads"
        assert on_disk["progress"]["evaluations"] == 5
        assert on_disk["progress"]["evals_per_s"] > 0
        assert on_disk["metrics"]["counters"]["breeding.evaluations"] == 5.0
        assert pub.n_published == 1

    def test_invalid_cadence(self, tmp_path):
        obs = self._observer(tmp_path, live=True)
        with pytest.raises(ValueError):
            LivePublisher(obs, out=obs.out, every_s=0.0)

    def test_snapshot_carries_latest_resources(self, tmp_path):
        obs = self._observer(tmp_path, live=True, resources=True)
        try:
            pub = LivePublisher(obs, out=obs.out)
            snap = pub.publish()
            res = snap["resources"]
            assert res["rss_mb"] > 0
            assert res["peak_rss_mb"] >= res["rss_mb"] - 1.0
            from repro.obs.top import render_frame

            assert "resources  rss " in render_frame(snap)
        finally:
            obs.finalize()

    def test_start_runtime_is_noop_without_live_settings(self, tmp_path):
        obs = Observer(out=tmp_path / "b", sample_every_evals=10**9)
        assert not obs.runtime_wanted
        obs.start_runtime(progress=lambda: {})
        assert obs.publisher is None and obs.watchdog is None

    def test_http_endpoint(self, tmp_path):
        obs = self._observer(tmp_path, live_port=0)
        obs.recorder(0).inc("breeding.evaluations", 7)
        obs.start_runtime(progress=lambda: {"generation": 2, "evaluations": 7, "best": 3.5})
        try:
            port = obs.publisher.port
            assert port != 0  # ephemeral port resolved at bind time
            base = f"http://127.0.0.1:{port}"

            with urllib.request.urlopen(f"{base}/metrics", timeout=5) as resp:
                body = resp.read().decode()
                assert resp.headers["Content-Type"] == OPENMETRICS_CONTENT_TYPE
            assert "repro_breeding_evaluations_total 7" in body
            assert body.endswith("# EOF\n")
            assert "repro_run_evaluations 7" in body

            with urllib.request.urlopen(f"{base}/live.json", timeout=5) as resp:
                snap = json.loads(resp.read().decode())
            assert snap["progress"]["generation"] == 2
            assert snap["metrics"]["counters"]["breeding.evaluations"] == 7.0

            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(f"{base}/nope", timeout=5)
            assert err.value.code == 404
        finally:
            obs.stop_runtime()
        assert obs.publisher is None

    def test_threaded_live_counts_match_finalized_bundle(self, tiny_instance, tmp_path):
        """Acceptance: live.json after the run carries the same
        evaluation counts as the finalized bundle."""
        out = tmp_path / "bundle"
        obs = Observer(out=out, sample_every_evals=64, live=True, live_every_s=0.05)
        eng = ThreadedPACGA(tiny_instance, CFG.with_(n_threads=2), seed=0, obs=obs)
        res = eng.run(StopCondition(max_evaluations=288))
        obs.finalize(meta={"engine": "threads"})

        live = json.loads((out / "live.json").read_text())
        metrics = json.loads((out / "metrics.json").read_text())
        assert (
            live["metrics"]["counters"]["breeding.evaluations"]
            == metrics["merged"]["counters"]["breeding.evaluations"]
        )
        assert live["progress"]["evaluations"] == res.evaluations
        assert live["progress"]["heartbeats"] == [g for g in res.extra["per_thread_generations"]]
        assert live["progress"]["workers_done"] == [True, True]
        # live.json rides along in the bundle next to the usual artifacts
        names = {p.name for p in out.iterdir()}
        assert "live.json" in names and "metrics.json" in names

    def test_live_served_during_run(self, tiny_instance, tmp_path):
        """/metrics responds while the engine is mid-run."""
        out = tmp_path / "bundle"
        obs = Observer(
            out=out, sample_every_evals=64, live_port=0, live_every_s=0.02
        )
        eng = ThreadedPACGA(tiny_instance, CFG.with_(n_threads=2), seed=0, obs=obs)
        bodies = []

        def scrape():
            port = obs.publisher.port
            with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/metrics", timeout=5
            ) as resp:
                bodies.append(resp.read().decode())

        runner = threading.Thread(
            target=lambda: eng.run(StopCondition(wall_time_s=0.6))
        )
        runner.start()
        try:
            for _ in range(200):  # wait for the publisher to come up
                if obs.publisher is not None and obs.publisher.port:
                    break
                import time

                time.sleep(0.005)
            assert obs.publisher is not None, "publisher must start with the run"
            scrape()
        finally:
            runner.join()
        obs.finalize()
        assert bodies and "repro_run_evaluations" in bodies[0]
        assert obs.publisher is None  # torn down with the run

