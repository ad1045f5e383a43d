"""``repro obs postmortem``: renderer + the injected-crash e2e contract."""

import io
import json

import pytest

from repro.cga import CGAConfig, StopCondition
from repro.obs import Observer
from repro.obs.flight import FlightRecorder, flight_paths, write_postmortem
from repro.obs.postmortem import (
    DEFAULT_EVENTS,
    load_postmortems,
    load_stack_dumps,
    postmortem,
    render_postmortem,
)

CFG = CGAConfig(grid_rows=4, grid_cols=4, ls_iterations=2, seed_with_minmin=False)


def _fake_crashed_bundle(root):
    """A hand-built partial bundle: ring + postmortem + resources."""
    (root / "meta.json").write_text(
        json.dumps(
            {
                "engine": "shm",
                "instance": "tiny",
                "seed": 0,
                "interrupted": {"type": "RuntimeError", "message": "workers failed"},
                "interrupted_by": {"role": "w1", "pid": 4242, "exitcode": 1},
            }
        )
    )
    ring = FlightRecorder(flight_paths(root, "w1")["ring"], slots=8, epoch_unix=0.0)
    ring.record("sweep", "pubs=2", 3.0)
    ring.record("crash", "RuntimeError: boom")
    ring.close()
    try:
        raise RuntimeError("boom")
    except RuntimeError as exc:
        write_postmortem(root, "w1", exc, resources={"rss_mb": 33.5, "fds": 9})
    (root / "resources.jsonl").write_text(
        json.dumps({"t_s": 0.1, "role": "main", "rss_mb": 50.0, "fds": 12}) + "\n"
    )
    return root


class TestRenderer:
    def test_full_report_sections(self, tmp_path):
        report = render_postmortem(_fake_crashed_bundle(tmp_path))
        assert "interrupted : RuntimeError: workers failed" in report
        assert "raised by   : role=w1  pid=4242  exitcode=1" in report
        assert "== crashed w1" in report
        assert "RuntimeError: boom" in report
        assert "final resources: rss 33.5MB  fds 9" in report
        assert "== flight ring w1" in report
        assert "sweep" in report and "pubs=2" in report
        assert "== resources:" in report
        assert "peak_rss_mb 50" in report

    def test_partial_bundle_renders_absences(self, tmp_path):
        (tmp_path / "flight").mkdir()
        ring = FlightRecorder(flight_paths(tmp_path, "w0")["ring"], slots=4)
        ring.record("sweep")
        ring.close()
        report = render_postmortem(tmp_path)
        assert "meta.json   : absent (run never finalized)" in report
        assert "no worker post-mortem records" in report
        assert "no resource rows" in report
        assert "== flight ring w0" in report

    def test_last_events_limit(self, tmp_path):
        ring = FlightRecorder(flight_paths(tmp_path, "main")["ring"], slots=64)
        for i in range(30):
            ring.record("sweep", value=float(i))
        ring.close()
        report = render_postmortem(tmp_path, last_events=5)
        assert "30 retained event(s), last 5 shown" in report
        assert "#29" in report and "#24 " not in report

    def test_default_event_count(self):
        assert DEFAULT_EVENTS == 12


class TestLoaders:
    def test_load_postmortems_skips_bad_json(self, tmp_path):
        _fake_crashed_bundle(tmp_path)
        (tmp_path / "flight" / "postmortem-w9.json").write_text("{not json")
        records = load_postmortems(tmp_path)
        assert [r["role"] for r in records] == ["w1"]

    def test_load_stack_dumps_role_keys(self, tmp_path):
        flight = tmp_path / "flight"
        flight.mkdir()
        (flight / "stacks-main.txt").write_text("=== stack dump pid=1\n")
        (flight / "stacks-w0.txt").write_text("=== stack dump pid=2\n")
        assert set(load_stack_dumps(tmp_path)) == {"main", "w0"}


class TestCliEntry:
    def test_exit_1_on_non_bundle(self, tmp_path):
        out = io.StringIO()
        assert postmortem(tmp_path / "missing", out=out) == 1
        assert postmortem(tmp_path, out=out) == 1  # empty dir: no artifacts
        assert "error:" in out.getvalue()

    def test_exit_0_on_partial_bundle(self, tmp_path):
        (tmp_path / "resources.jsonl").write_text(
            json.dumps({"role": "main", "rss_mb": 1.0}) + "\n"
        )
        out = io.StringIO()
        assert postmortem(tmp_path, out=out) == 0
        assert "postmortem:" in out.getvalue()


class TestInjectedCrashE2E:
    """Acceptance criterion: an injected mid-run worker crash in the shm
    engine yields a bundle from which the postmortem renders the failing
    worker's stack, last flight events, and final resource sample."""

    def test_shm_worker_crash_postmortem(self, tiny_instance, tmp_path, monkeypatch):
        from repro.parallel import ShmBlockPACGA

        monkeypatch.setenv("REPRO_SHM_CRASH_WORKER", "1")
        monkeypatch.setenv("REPRO_SHM_CRASH_AFTER", "2")
        out = tmp_path / "bundle"
        obs = Observer(
            out=out,
            sample_every_evals=10**9,
            flight=True,
            resources=True,
            resource_every_s=0.05,
            stack_sample_s=0.005,
        )
        # oversubscribe: the crash must land in worker 1's *own* forked
        # process even on a single-core box (no worker collapse)
        eng = ShmBlockPACGA(
            tiny_instance,
            CFG.with_(n_threads=2),
            seed=0,
            obs=obs,
            lockstep=False,
            oversubscribe=True,
        )
        try:
            with pytest.raises(RuntimeError, match="shm workers failed"):
                with obs:
                    eng.run(StopCondition(max_generations=50))
        finally:
            eng._arena.unlink()

        # who failed: the engine stamped the worker, not the main process
        meta = json.loads((out / "meta.json").read_text())
        assert meta["interrupted"]["type"] == "RuntimeError"
        assert meta["interrupted_by"]["role"] == "w1"
        assert meta["interrupted_by"]["exitcode"] == 1
        assert meta["interrupted_by"]["pid"] > 0

        # the crashed worker's own post-mortem record
        records = {r["role"]: r for r in load_postmortems(out)}
        assert "w1" in records
        exc = records["w1"]["exception"]
        assert exc["type"] == "RuntimeError"
        assert "injected crash" in exc["message"]
        assert records["w1"]["resources"] is not None  # final sample attached

        # and the rendered report carries stack + events + resources
        report = render_postmortem(out)
        assert "== crashed w1" in report
        assert "injected crash in shm worker 1" in report
        assert "final resources: rss" in report
        assert "== flight ring w1" in report
        assert "sweep" in report
        assert "crash" in report
        assert "== resources:" in report
        out_stream = io.StringIO()
        assert postmortem(out, out=out_stream) == 0

    def test_clean_shm_run_bundle_has_process_artifacts(
        self, tiny_instance, tmp_path
    ):
        from repro.parallel import ShmBlockPACGA

        out = tmp_path / "bundle"
        obs = Observer(
            out=out,
            sample_every_evals=10**9,
            flight=True,
            resources=True,
            resource_every_s=0.05,
            stack_sample_s=0.005,
        )
        # oversubscribe: one flight ring / resource stream per logical
        # worker requires one forked process per block
        eng = ShmBlockPACGA(
            tiny_instance,
            CFG.with_(n_threads=2),
            seed=0,
            obs=obs,
            lockstep=False,
            oversubscribe=True,
        )
        with obs:
            eng.run(StopCondition(max_generations=4))

        # one ring per process, all readable; no post-mortem records
        from repro.obs.flight import load_flight_dir

        rings = load_flight_dir(out)
        assert set(rings) == {"main", "w0", "w1"}
        assert any(e["kind"] == "sweep" for e in rings["w0"])
        assert rings["w0"][-1]["kind"] == "budget.done"
        assert load_postmortems(out) == []

        # per-worker resources + merged samples made it into the bundle
        from repro.obs.resources import load_resource_rows

        roles = {r["role"] for r in load_resource_rows(out)}
        assert {"main", "w0", "w1"} <= roles
        meta = json.loads((out / "meta.json").read_text())
        assert meta["resources"]["peak_rss_mb"] > 0
        assert (out / "samples.collapsed").exists()
        assert meta["n_stack_samples"] > 0

    def test_clean_shm_run_bundle_file_set(self, tiny_instance, tmp_path):
        """The exact artifact set of a clean observed shm(2) run: one
        ring, crash log, resource stream and sample file per worker
        process, the parent's resources and samples at the top level."""
        from repro.parallel import ShmBlockPACGA

        out = tmp_path / "bundle"
        obs = Observer(
            out=out,
            sample_every_evals=10**9,
            flight=True,
            resources=True,
            stack_sample_s=0.005,
        )
        eng = ShmBlockPACGA(
            tiny_instance,
            CFG.with_(n_threads=2),
            seed=0,
            obs=obs,
            lockstep=False,
            oversubscribe=True,
        )
        with obs:
            eng.run(StopCondition(max_generations=4))

        assert sorted(p.name for p in out.iterdir()) == [
            "flight",
            "grid.jsonl",
            "meta.json",
            "metrics.json",
            "report.md",
            "resources.jsonl",
            "samples.collapsed",
            "timeseries.jsonl",
            "trace.json",
        ]
        assert sorted(p.name for p in (out / "flight").iterdir()) == [
            "crash-main.log",
            "crash-w0.log",
            "crash-w1.log",
            "main.bin",
            "resources-w0.jsonl",
            "resources-w1.jsonl",
            "samples-w0.collapsed",
            "samples-w1.collapsed",
            "w0.bin",
            "w1.bin",
        ]
