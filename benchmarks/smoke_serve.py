#!/usr/bin/env python
"""CI serve smoke test: throughput, crash recovery, graceful drain.

Three phases against a real ``repro serve`` subprocess:

1. **Throughput + backpressure** — fire a burst of small solve jobs at
   the HTTP API and require sustained admission of at least 20
   requests/s; 429 responses must carry ``Retry-After`` and every
   *accepted* job must reach ``done``.  Then one ``threads`` and one
   ``shm`` job (2 workers each, the partitioned path) must finish
   ``done`` with progress reported.
2. **Crash recovery** — submit jobs (``sync``, and one ``threads``) that
   ask the (env-gated) fault injector to kill their worker mid-run; each
   must be retried from its checkpoint, finish ``done`` with
   ``resumed: true`` and link a postmortem record next to the job file.
3. **Drain/restart** — SIGTERM the server with work in flight; the
   process must exit 0, the in-flight job must be ``parked`` with a
   checkpoint on disk, and a restarted server on the same spool must
   run every unfinished job to ``done``.

Zero lost jobs overall: every job the service ever accepted (202) must
be ``done`` at the end.  Nonzero exit on any violation.

Usage: PYTHONPATH=src python benchmarks/smoke_serve.py
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request
from pathlib import Path

PY = sys.executable
ENV = {**os.environ, "PYTHONPATH": "src", "REPRO_SERVE_FAULT_INJECTION": "1"}

BURST = 60  # phase-1 submissions
MIN_RPS = 20.0  # admission floor the ISSUE requires

FAST_JOB = {
    "problem": "flowshop",
    "instance": "fs8x4.1",
    "engine": "sync",
    "config": {"grid_rows": 4, "grid_cols": 4},
    "budget": {"max_generations": 5},
}
#: the partitioned engines, served in their checkpointable lockstep mode
PARTITIONED_JOBS = [
    dict(
        FAST_JOB,
        engine=engine,
        config={"grid_rows": 4, "grid_cols": 4, "n_threads": 2},
    )
    for engine in ("threads", "shm")
]
LONG_JOB = {
    "problem": "flowshop",
    "instance": "fs10x5.1",
    "engine": "sync",
    "config": {"grid_rows": 6, "grid_cols": 6, "ls_iterations": 30},
    "budget": {"max_generations": 60},
}


def check(ok: bool, what: str) -> None:
    if not ok:
        print(f"FAIL: {what}", file=sys.stderr)
        sys.exit(1)


def kill_group(proc: subprocess.Popen) -> None:
    """SIGKILL the server and every engine worker it forked, then reap it.

    The server runs in its own session, so its process group holds the
    workers too; a plain ``proc.kill()`` would leave them running.
    """
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:  # the whole group already exited
        pass
    proc.wait()


def start_server(spool: Path, workers: int = 2) -> tuple[subprocess.Popen, str]:
    proc = subprocess.Popen(
        [
            PY, "-m", "repro", "serve",
            "--port", "0", "--workers", str(workers),
            "--spool", str(spool), "--queue-limit", "128",
            "--retry-backoff", "0.1",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=ENV,
        start_new_session=True,
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
    if port is None:
        kill_group(proc)
    check(port is not None, "server never reported its listen port")
    return proc, f"http://127.0.0.1:{port}"


def request(base: str, method: str, path: str, payload=None):
    data = json.dumps(payload).encode() if payload is not None else None
    req = urllib.request.Request(base + path, data=data, method=method)
    def parse(headers, raw):
        if headers.get("Content-Type", "").startswith("application/json"):
            return json.loads(raw)
        return raw.decode("utf-8")

    try:
        with urllib.request.urlopen(req, timeout=15) as resp:
            return resp.status, dict(resp.headers), parse(resp.headers, resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers), parse(exc.headers, exc.read())


def wait_states(base: str, ids: list[str], timeout_s: float) -> dict[str, dict]:
    deadline = time.monotonic() + timeout_s
    records: dict[str, dict] = {}
    while time.monotonic() < deadline:
        records = {}
        for jid in ids:
            _, _, rec = request(base, "GET", f"/jobs/{jid}")
            records[jid] = rec
        if all(r.get("state") in ("done", "failed") for r in records.values()):
            break
        time.sleep(0.25)
    return records


def main() -> int:
    # removed on success and on failure (check() exits via SystemExit)
    with tempfile.TemporaryDirectory(prefix="smoke-serve-") as tmp:
        return run(Path(tmp) / "spool")


def run(spool: Path) -> int:
    accepted: list[str] = []

    proc, base = start_server(spool)
    try:
        # -- phase 1: burst admission throughput + zero lost jobs ----------
        t0 = time.monotonic()
        rejected = 0
        for i in range(BURST):
            code, headers, body = request(
                base, "POST", "/jobs", dict(FAST_JOB, seed=i)
            )
            if code == 202:
                accepted.append(body["id"])
            else:
                check(code == 429, f"unexpected admission status {code}")
                check("Retry-After" in headers, "429 without Retry-After header")
                rejected += 1
        elapsed = time.monotonic() - t0
        rps = BURST / elapsed
        print(
            f"phase 1: {BURST} submissions in {elapsed:.2f}s "
            f"({rps:.1f} req/s, {len(accepted)} accepted, {rejected} rejected)"
        )
        check(rps >= MIN_RPS, f"admission rate {rps:.1f} req/s < {MIN_RPS}")
        check(len(accepted) >= BURST // 2, "queue rejected most of the burst")

        records = wait_states(base, accepted, timeout_s=120)
        lost = [j for j, r in records.items() if r.get("state") != "done"]
        check(not lost, f"phase 1 lost jobs: {lost}")
        print(f"phase 1: all {len(accepted)} accepted jobs done")

        partitioned = []
        for job in PARTITIONED_JOBS:
            code, _, body = request(base, "POST", "/jobs", dict(job, seed=7))
            check(code == 202, f"{job['engine']} job rejected with {code}")
            partitioned.append(body["id"])
        accepted.extend(partitioned)
        records = wait_states(base, partitioned, timeout_s=120)
        for job, jid in zip(PARTITIONED_JOBS, partitioned):
            rec, engine = records[jid], job["engine"]
            check(rec.get("state") == "done", f"{engine} job: {rec.get('state')}")
            check(rec.get("progress") is not None, f"{engine} job reported no progress")
        print("phase 1: threads and shm jobs done with progress")

        # -- phase 2: injected worker crash -> retry from checkpoint -------
        crash_ids = []
        for i, job in enumerate([FAST_JOB] * 3 + PARTITIONED_JOBS[:1]):
            code, _, body = request(
                base,
                "POST",
                "/jobs",
                dict(
                    job,
                    seed=100 + i,
                    budget={"max_generations": 8},
                    inject={"crash_after_generations": 3, "crash_attempts": 1},
                ),
            )
            check(code == 202, f"crash job rejected with {code}")
            crash_ids.append(body["id"])
        accepted.extend(crash_ids)
        records = wait_states(base, crash_ids, timeout_s=120)
        for jid in crash_ids:
            rec = records[jid]
            check(rec.get("state") == "done", f"crash job {jid}: {rec.get('state')}")
            check(rec.get("resumed") is True, f"crash job {jid} did not resume")
            check(rec.get("attempts") == 2, f"crash job {jid} attempts {rec.get('attempts')}")
            pm = rec.get("postmortem")
            check(pm is not None and Path(pm).is_file(), f"crash job {jid} has no postmortem")
        print(f"phase 2: {len(crash_ids)} crashed workers retried to done (postmortems linked)")

        # -- phase 3: SIGTERM drain with work in flight --------------------
        code, _, body = request(base, "POST", "/jobs", LONG_JOB)
        check(code == 202, "long job rejected")
        long_id = body["id"]
        accepted.append(long_id)
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            _, _, rec = request(base, "GET", f"/jobs/{long_id}")
            if (rec.get("progress") or {}).get("generation", 0) >= 2:
                break
            time.sleep(0.1)
        proc.send_signal(signal.SIGTERM)
        rc = proc.wait(timeout=60)
        check(rc == 0, f"drain exit code {rc}, expected 0")
        record = json.loads((spool / "jobs" / f"{long_id}.json").read_text())
        check(record["state"] == "parked", f"drained job state {record['state']}")
        check(
            (spool / "checkpoints" / f"{long_id}.ckpt").is_file(),
            "drained job has no checkpoint",
        )
        print("phase 3: SIGTERM drained cleanly (exit 0, in-flight job parked)")
    finally:
        kill_group(proc)

    # -- phase 3b: restart resumes the spool to completion -----------------
    proc, base = start_server(spool)
    try:
        records = wait_states(base, accepted, timeout_s=180)
        lost = [j for j, r in records.items() if r.get("state") != "done"]
        check(not lost, f"jobs lost across restart: {lost}")
        _, _, rec = request(base, "GET", f"/jobs/{long_id}")
        check(rec["resumed"] is True, "parked job restarted from scratch")
        check(
            rec["result"]["generations"] == LONG_JOB["budget"]["max_generations"],
            "parked job did not complete its budget",
        )
        _, headers, _ = request(base, "GET", "/metrics")
        check(
            headers.get("Content-Type", "").startswith("application/openmetrics-text"),
            "metrics endpoint content type",
        )
        proc.send_signal(signal.SIGTERM)
        check(proc.wait(timeout=60) == 0, "final drain exit code")
    finally:
        kill_group(proc)

    print(
        f"OK: {len(accepted)} accepted jobs, zero lost "
        "(burst + crash retries + drain/restart)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
