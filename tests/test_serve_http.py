"""HTTP front end, `repro serve` CLI and the SIGTERM drain contract."""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.cli import main
from repro.serve import SolveService
from repro.serve.http import HttpFrontend

FAST_JOB = {
    "problem": "flowshop",
    "instance": "fs8x4.1",
    "engine": "sync",
    "config": {"grid_rows": 4, "grid_cols": 4},
    "budget": {"max_generations": 6},
}


def _request(base: str, method: str, path: str, payload=None, timeout=10.0):
    """(status, headers, parsed body) via urllib; never raises on 4xx/5xx."""
    data = json.dumps(payload).encode() if payload is not None else None
    req = urllib.request.Request(base + path, data=data, method=method)
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status, dict(resp.headers), resp.read()
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers), exc.read()


def _json(body: bytes):
    return json.loads(body.decode("utf-8"))


class _Frontend:
    """Run HttpFrontend in a private event-loop thread for sync tests."""

    def __init__(self, service):
        self.service = service
        self.loop = asyncio.new_event_loop()
        import threading

        self._thread = threading.Thread(target=self.loop.run_forever, daemon=True)
        self._thread.start()
        self.frontend = asyncio.run_coroutine_threadsafe(
            HttpFrontend(service, port=0).start(), self.loop
        ).result(timeout=10)
        self.base = f"http://127.0.0.1:{self.frontend.port}"

    def close(self):
        asyncio.run_coroutine_threadsafe(self.frontend.close(), self.loop).result(
            timeout=10
        )
        self.loop.call_soon_threadsafe(self.loop.stop)
        self._thread.join(timeout=10)
        self.loop.close()


@pytest.fixture
def unstarted(tmp_path):
    """Service whose scheduler never runs: the queue holds still."""
    svc = SolveService(tmp_path, workers=1, queue_limit=2)
    fe = _Frontend(svc)
    yield fe
    fe.close()


@pytest.fixture
def running(tmp_path):
    svc = SolveService(tmp_path, workers=1, queue_limit=16).start()
    fe = _Frontend(svc)
    yield fe
    fe.close()
    svc.stop()


class TestEndpoints:
    def test_submit_poll_complete(self, running):
        code, _, body = _request(running.base, "POST", "/jobs", FAST_JOB)
        assert code == 202
        accepted = _json(body)
        assert accepted["state"] == "queued" and accepted["url"].startswith("/jobs/")
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            code, _, body = _request(running.base, "GET", accepted["url"])
            rec = _json(body)
            if rec["state"] in ("done", "failed"):
                break
            time.sleep(0.1)
        assert code == 200 and rec["state"] == "done"
        assert rec["result"]["generations"] == 6
        code, _, body = _request(running.base, "GET", "/jobs")
        assert code == 200 and len(_json(body)["jobs"]) == 1

    def test_unknown_job_404_and_unknown_route(self, unstarted):
        code, _, body = _request(unstarted.base, "GET", "/jobs/feedfacef00d")
        assert code == 404 and "no such job" in _json(body)["error"]
        code, _, _ = _request(unstarted.base, "GET", "/nope")
        assert code == 404
        code, _, _ = _request(unstarted.base, "DELETE", "/jobs")
        assert code == 405

    def test_validation_error_is_400(self, unstarted):
        code, _, body = _request(unstarted.base, "POST", "/jobs", {"engine": "island"})
        assert code == 400
        assert "unknown engine 'island'" in _json(body)["error"]

    def test_unenforceable_budget_is_400(self, unstarted):
        job = {"engine": "threads", "budget": {"virtual_time": 0.5}}
        code, _, body = _request(unstarted.base, "POST", "/jobs", job)
        assert code == 400
        assert "virtual_time" in _json(body)["error"]

    def test_malformed_json_is_400(self, unstarted):
        req = urllib.request.Request(
            unstarted.base + "/jobs", data=b"{not json", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(req, timeout=10)
        assert exc.value.code == 400

    def test_backpressure_is_429_with_retry_after(self, unstarted):
        for _ in range(2):
            code, _, _ = _request(unstarted.base, "POST", "/jobs", FAST_JOB)
            assert code == 202
        code, headers, body = _request(unstarted.base, "POST", "/jobs", FAST_JOB)
        assert code == 429
        assert int(headers["Retry-After"]) >= 1
        rejected = _json(body)
        assert rejected["queue_depth"] == 2 and rejected["queue_limit"] == 2

    def test_draining_is_503(self, unstarted):
        unstarted.service._draining.set()
        code, _, body = _request(unstarted.base, "POST", "/jobs", FAST_JOB)
        assert code == 503 and "draining" in _json(body)["error"]

    def test_metrics_is_openmetrics(self, unstarted):
        _request(unstarted.base, "POST", "/jobs", FAST_JOB)
        code, headers, body = _request(unstarted.base, "GET", "/metrics")
        assert code == 200
        assert headers["Content-Type"].startswith("application/openmetrics-text")
        text = body.decode("utf-8")
        assert "repro_serve_jobs_submitted_total 1" in text
        assert "repro_serve_http_requests_total" in text
        assert text.rstrip().endswith("# EOF")

    def test_healthz_snapshot(self, unstarted):
        code, _, body = _request(unstarted.base, "GET", "/healthz")
        snap = _json(body)
        assert code == 200
        assert snap["queue_limit"] == 2 and snap["draining"] is False
        assert set(snap["jobs"]) == {
            "queued", "running", "retrying", "parked", "done", "failed",
        }


class TestCliFlagParity:
    """serve and solve share one obs-flag validation path (obsflags.py)."""

    def _stderr_of(self, capsys, argv):
        rc = main(argv)
        return rc, capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [["--obs-trace"], ["--obs-sample-every", "64"], ["--obs-stack-sample", "97"]],
    )
    def test_stray_obs_flags_same_error_text(self, capsys, flags):
        rc_solve, err_solve = self._stderr_of(capsys, ["solve", *flags])
        rc_serve, err_serve = self._stderr_of(capsys, ["serve", *flags])
        assert rc_solve == rc_serve == 2
        assert err_solve == err_serve  # byte-identical: one validation path
        assert "require --obs-out" in err_solve

    def test_serve_rejects_per_run_obs_flags_even_with_obs_out(
        self, capsys, tmp_path
    ):
        out = str(tmp_path / "bundle")
        for flags, needle in [
            (["--obs-trace"], "--obs-trace"),
            (["--obs-sample-every", "64"], "--obs-sample-every"),
            (["--obs-live", "0"], "--obs-live"),
            (["--obs-stack-sample", "97"], "--obs-stack-sample"),
        ]:
            rc = main(["serve", "--obs-out", out, *flags])
            err = capsys.readouterr().err
            assert rc == 2
            assert needle in err and "not applicable to `repro serve`" in err

    def test_serve_validates_worker_and_queue_counts(self, capsys):
        assert main(["serve", "--workers", "0"]) == 2
        assert "--workers" in capsys.readouterr().err
        assert main(["serve", "--queue-limit", "0"]) == 2
        assert "--queue-limit" in capsys.readouterr().err


class TestSigtermDrain:
    """The full contract: SIGTERM -> checkpoint -> exit 0 -> resume."""

    LONG_JOB = {
        "problem": "flowshop",
        "instance": "fs10x5.1",
        "engine": "sync",
        "config": {"grid_rows": 6, "grid_cols": 6, "ls_iterations": 30},
        "budget": {"max_generations": 50},
    }

    def _start_server(self, spool: Path):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0", "--workers", "1", "--spool", str(spool),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        port = None
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            line = proc.stdout.readline()
            if "serving on" in line:
                port = int(line.rsplit(":", 1)[1])
                break
            if not line and proc.poll() is not None:
                break
        assert port is not None, "server never reported its port"
        return proc, f"http://127.0.0.1:{port}"

    def test_sigterm_drains_and_restart_completes(self, tmp_path):
        spool = tmp_path / "spool"
        proc, base = self._start_server(spool)
        try:
            code, _, body = _request(base, "POST", "/jobs", self.LONG_JOB)
            assert code == 202
            jid = _json(body)["id"]
            # wait until demonstrably mid-flight so the drain has work to park
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                _, _, body = _request(base, "GET", f"/jobs/{jid}")
                progress = _json(body)["progress"] or {}
                if progress.get("generation", 0) >= 2:
                    break
                time.sleep(0.1)
            assert progress.get("generation", 0) >= 2
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60) == 0  # graceful drain exits 0
        finally:
            if proc.poll() is None:
                proc.kill()
        record = json.loads((spool / "jobs" / f"{jid}.json").read_text())
        assert record["state"] == "parked"
        assert (spool / "checkpoints" / f"{jid}.ckpt").is_file()

        proc, base = self._start_server(spool)
        try:
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                _, _, body = _request(base, "GET", f"/jobs/{jid}")
                rec = _json(body)
                if rec["state"] in ("done", "failed"):
                    break
                time.sleep(0.2)
            assert rec["state"] == "done", rec["error"]
            assert rec["resumed"] is True
            assert rec["result"]["generations"] == self.LONG_JOB["budget"]["max_generations"]
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60) == 0
        finally:
            if proc.poll() is None:
                proc.kill()

    def test_fault_injection_requires_env_gate(self, tmp_path):
        # without REPRO_SERVE_FAULT_INJECTION=1 a crash request is inert
        spool = tmp_path / "spool"
        proc, base = self._start_server(spool)
        try:
            code, _, body = _request(
                base,
                "POST",
                "/jobs",
                dict(FAST_JOB, inject={"crash_after_generations": 1}),
            )
            assert code == 202
            jid = _json(body)["id"]
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                _, _, body = _request(base, "GET", f"/jobs/{jid}")
                rec = _json(body)
                if rec["state"] in ("done", "failed"):
                    break
                time.sleep(0.1)
            assert rec["state"] == "done" and rec["attempts"] == 1
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
