"""The solve service core: bounded queue, dispatch, retries, drain.

:class:`SolveService` is transport-agnostic — the asyncio HTTP front
end (:mod:`repro.serve.http`) is one thin client of it, tests drive it
directly.  One background scheduler thread owns every state
transition:

* **admission** — :meth:`submit` validates the payload
  (:func:`repro.serve.jobs.validate_job`), and applies backpressure:
  a full bounded queue raises :class:`~repro.serve.jobs.QueueFull`
  carrying a throughput-derived ``Retry-After`` estimate, a draining
  service raises :class:`~repro.serve.jobs.ServiceDraining`;
* **dispatch** — FIFO over idle workers of the persistent
  :class:`~repro.serve.pool.WorkerPool`;
* **failure handling** — a dead worker (crash, stall SIGKILL) is
  detected via its process sentinel; its job retries from the last
  checkpoint with exponential backoff up to ``max_retries``, and the
  worker's flight postmortem record is copied next to the job record
  and linked from it (``repro obs postmortem <spool>`` renders it);
* **drain** — :meth:`drain` (the CLI wires SIGTERM to it) stops
  admission, interrupts in-flight jobs at their next generation
  boundary (they checkpoint and report ``parked``) and stops the
  pool; a new service on the same spool re-queues parked/queued jobs
  and *resumes* them from their checkpoints.

Metrics live in one :class:`~repro.obs.metrics.MetricRecorder`
(`serve.*` namespace) rendered by
:func:`repro.obs.live.render_openmetrics` — the same exposition path
every solve bundle uses, so operators point the same scraper at
either.
"""

from __future__ import annotations

import shutil
import threading
import time
from collections import deque
from pathlib import Path

from repro.obs.flight import flight_paths
from repro.obs.live import atomic_write_json, render_openmetrics
from repro.obs.metrics import MetricRecorder
from repro.serve.jobs import JobStore, QueueFull, ServiceDraining, validate_job
from repro.serve.pool import WorkerPool

__all__ = ["SolveService"]


class SolveService:
    """A long-lived solve-as-a-service process (see module docstring)."""

    def __init__(
        self,
        spool,
        workers: int = 2,
        queue_limit: int = 64,
        max_retries: int = 2,
        retry_backoff_s: float = 0.25,
        stall_deadline_s: float | None = None,
        checkpoint_every: int = 1,
        fault_injection: bool = False,
        obs_out=None,
        obs_resources: bool = False,
    ):
        if queue_limit < 1:
            raise ValueError(f"queue_limit must be >= 1, got {queue_limit}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        self.spool = Path(spool)
        self.spool.mkdir(parents=True, exist_ok=True)
        self.queue_limit = int(queue_limit)
        self.max_retries = int(max_retries)
        self.retry_backoff_s = float(retry_backoff_s)
        self.stall_deadline_s = stall_deadline_s
        self.obs_out = Path(obs_out) if obs_out is not None else None
        self.store = JobStore(self.spool)
        self.metrics = MetricRecorder("serve")
        self.pool = WorkerPool(
            workers,
            self.spool,
            options={
                "checkpoint_every": int(checkpoint_every),
                "fault_injection": bool(fault_injection),
            },
        )
        self._queue: deque[str] = deque()  # job ids ready to dispatch
        self._retries: list[tuple[float, str]] = []  # (due_monotonic, job id)
        self._busy: dict[int, str] = {}  # wid -> in-flight job id
        self._ready: set[int] = set()  # workers that reported in
        self._activity: dict[str, float] = {}  # job id -> last progress (monotonic)
        self._engine_tput: dict[str, list[float]] = {}  # engine -> [evals, seconds]
        self._lock = threading.Lock()
        self._mlock = threading.Lock()  # guards self.metrics (see _inc)
        self._draining = threading.Event()
        self._stopped = threading.Event()
        self._drained = threading.Event()  # all in-flight jobs parked/finished
        self._thread: threading.Thread | None = None
        self._resources = None
        if obs_resources:
            out = (self.obs_out or self.spool) / "resources.jsonl"
            from repro.obs.resources import ResourceSampler

            self._resources = ResourceSampler(
                out_path=out, role="serve", recorder=self.metrics
            )

    # -- metrics --------------------------------------------------------------
    # Unlike the engine recorders (strictly single-writer by the obs
    # subsystem's rules), the service recorder has writers on the
    # scheduler thread, the asyncio event-loop thread (submit, HTTP
    # request counters, /metrics gauge refresh) and the resource
    # sampler, so every read-modify-write goes through these locked
    # helpers.  The sampler itself only ``set_gauge``s — one atomic
    # dict store per key — which needs no lock.
    def _inc(self, key: str, value: float = 1.0) -> None:
        with self._mlock:
            self.metrics.inc(key, value)

    def _observe(self, key: str, value: float) -> None:
        with self._mlock:
            self.metrics.observe(key, value)

    def _gauge(self, key: str, value: float) -> None:
        with self._mlock:
            self.metrics.set_gauge(key, value)

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> "SolveService":
        """Recover the spool, fork the pool, start the scheduler."""
        for job in self.store.recover():
            ckpt = self.spool / "checkpoints" / f"{job['id']}.ckpt"
            if ckpt.is_file():
                self.store.update(job["id"], checkpoint=str(ckpt), resumed=True)
                self._inc("serve.jobs.recovered_with_checkpoint")
            self._queue.append(job["id"])
            self._inc("serve.jobs.recovered")
        self.pool.start()
        if self._resources is not None:
            self._resources.start()
        self._thread = threading.Thread(target=self._loop, name="serve-scheduler", daemon=True)
        self._thread.start()
        return self

    def stop(self, timeout_s: float = 10.0) -> None:
        """Hard stop (tests/atexit); :meth:`drain` is the graceful path."""
        self._stopped.set()
        if self._thread is not None:
            self._thread.join(timeout=timeout_s)
            self._thread = None
        self.pool.stop()
        if self._resources is not None:
            self._resources.stop()

    def drain(self, timeout_s: float = 30.0) -> bool:
        """Graceful SIGTERM path; returns True when nothing was lost.

        Stops admission, asks every worker to park its job at the next
        generation boundary, waits for the in-flight set to empty, then
        stops the scheduler and pool.  Queued jobs stay ``queued`` in
        the spool — a restart picks every one of them up.
        """
        self._draining.set()
        self._inc("serve.drains")
        self.pool.drain()
        clean = self._drained.wait(timeout=timeout_s)
        self._stopped.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self.pool.stop(timeout_s=5.0)
        if self._resources is not None:
            self._resources.stop()
        self._publish_live(force=True)
        return clean

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    # -- admission ------------------------------------------------------------
    def submit(self, payload: dict) -> dict:
        """Validate + enqueue one job; returns its (copied) record."""
        if self._draining.is_set():
            self._inc("serve.jobs.rejected_draining")
            raise ServiceDraining("service is draining; retry against the restarted instance")
        spec = validate_job(payload)  # raises JobValidationError
        with self._lock:
            depth = len(self._queue) + len(self._retries)
            if depth >= self.queue_limit:
                self._inc("serve.jobs.rejected_full")
                raise QueueFull(depth, self.queue_limit, self._retry_after_s(depth))
            job = self.store.create(spec, max_retries=self.max_retries)
            self._queue.append(job["id"])
        self._inc("serve.jobs.submitted")
        return job

    def _retry_after_s(self, depth: int) -> float:
        """Back-of-envelope drain time of the current queue."""
        with self._mlock:
            hist = self.metrics.histograms.get("serve.job.duration_s")
            per_job = (hist.mean if hist is not None and hist.count else 1.0)
        return max(1.0, per_job * depth / max(1, self.pool.n_workers))

    # -- queries ----------------------------------------------------------------
    def job(self, job_id: str) -> dict | None:
        return self.store.get(job_id)

    def jobs(self) -> list[dict]:
        return self.store.list()

    def snapshot(self) -> dict:
        """One JSON-ready service snapshot (health endpoint, live.json)."""
        counts = self.store.counts()
        with self._lock:
            queue_depth = len(self._queue) + len(self._retries)
            inflight = len(self._busy)
        return {
            "draining": self._draining.is_set(),
            "queue_depth": queue_depth,
            "queue_limit": self.queue_limit,
            "inflight": inflight,
            "workers": self.pool.n_workers,
            "workers_alive": self.pool.n_alive(),
            "jobs": counts,
        }

    def openmetrics(self) -> str:
        """The ``/metrics`` body (OpenMetrics text exposition)."""
        snap = self.snapshot()
        with self._lock:
            # copy: the scheduler thread setdefault()s new engines
            tput = {k: tuple(v) for k, v in self._engine_tput.items()}
        with self._mlock:
            self.metrics.set_gauge("serve.queue.depth", snap["queue_depth"])
            self.metrics.set_gauge("serve.queue.limit", snap["queue_limit"])
            self.metrics.set_gauge("serve.jobs.inflight", snap["inflight"])
            self.metrics.set_gauge("serve.workers.alive", snap["workers_alive"])
            self.metrics.set_gauge("serve.draining", 1.0 if snap["draining"] else 0.0)
            for state, n in snap["jobs"].items():
                self.metrics.set_gauge(f"serve.jobs.state.{state}", float(n))
            for engine, (evals, seconds) in tput.items():
                if seconds > 0:
                    self.metrics.set_gauge(
                        f"serve.engine.{engine}.evals_per_s", evals / seconds
                    )
            return render_openmetrics(self.metrics.snapshot())

    # -- the scheduler thread ----------------------------------------------------
    def _loop(self) -> None:
        last_live = 0.0
        while not self._stopped.is_set():
            self._handle_message(self.pool.poll(timeout_s=0.05))
            self._handle_deaths()
            self._check_stalls()
            self._promote_due_retries()
            self._dispatch_ready()
            if self._draining.is_set() and not self._busy:
                self._drained.set()
            now = time.monotonic()
            if now - last_live >= 0.5:
                last_live = now
                self._publish_live()

    def _handle_message(self, msg: dict | None) -> None:
        if msg is None:
            return
        kind, wid = msg.get("kind"), msg.get("wid")
        if kind == "ready":
            self._ready.add(wid)
            return
        job_id = msg["job"]
        if kind == "progress":
            self._activity[job_id] = time.monotonic()
            self.store.update(
                job_id,
                progress={
                    "generation": msg["generation"],
                    "evaluations": msg["evaluations"],
                    "best": msg["best"],
                    "updated_unix": round(time.time(), 3),
                },
            )
            return
        # terminal-ish messages free the worker
        with self._lock:
            if self._busy.get(wid) == job_id:
                del self._busy[wid]
        self._activity.pop(job_id, None)
        caches = msg.get("caches")
        if caches:
            for name, stats in caches.items():
                if stats:
                    self._gauge(f"serve.cache.{name}.w{wid}.hits", stats["hits"])
                    self._gauge(f"serve.cache.{name}.w{wid}.misses", stats["misses"])
        if kind == "done":
            job = self.store.update(
                job_id,
                state="done",
                finished_unix=round(time.time(), 3),
                result=msg["result"],
                resumed=msg["resumed"],
                checkpoint=msg.get("checkpoint"),
            )
            self._inc("serve.jobs.completed")
            if msg["resumed"]:
                self._inc("serve.jobs.resumed")
            self._observe("serve.job.duration_s", msg["elapsed_s"])
            with self._lock:
                tput = self._engine_tput.setdefault(job["spec"]["engine"], [0.0, 0.0])
                tput[0] += msg["result"]["evaluations"]
                tput[1] += msg["elapsed_s"]
        elif kind == "parked":
            self.store.update(job_id, state="parked", checkpoint=msg.get("checkpoint"), worker=None)
            self._inc("serve.jobs.parked")
        elif kind == "error":
            self.store.update(
                job_id,
                state="failed",
                finished_unix=round(time.time(), 3),
                error=msg["error"],
            )
            self._inc("serve.jobs.failed")

    def _handle_deaths(self) -> None:
        for wid, exitcode in self.pool.reap_dead():
            self._ready.discard(wid)
            with self._lock:
                job_id = self._busy.pop(wid, None)
            if self._draining.is_set():
                # a worker exiting during drain is the normal path; a
                # job it still held parks via its checkpoint on restart
                if job_id is not None:
                    self.store.update(job_id, state="parked", worker=None)
                    self._inc("serve.jobs.parked")
                continue
            # restart before _crashed publishes the job's new state, so
            # whoever sees that state also sees the restart counted
            self.pool.restart(wid)
            self._inc("serve.workers.restarts")
            if job_id is not None:
                self._crashed(job_id, wid, exitcode)

    def _crashed(self, job_id: str, wid: int, exitcode: int) -> None:
        """Crash/stall handling: link postmortem, retry or fail."""
        self._inc("serve.jobs.crashed")
        self._activity.pop(job_id, None)
        postmortem = self._link_postmortem(job_id, wid)
        job = self.store.get(job_id)
        attempts = job["attempts"]
        ckpt = self.spool / "checkpoints" / f"{job_id}.ckpt"
        changes = {
            "worker": None,
            "postmortem": postmortem,
            "checkpoint": str(ckpt) if ckpt.is_file() else None,
            "error": f"worker w{wid} died (exit code {exitcode})",
        }
        if attempts > self.max_retries:
            self.store.update(
                job_id, state="failed", finished_unix=round(time.time(), 3), **changes
            )
            self._inc("serve.jobs.failed")
            return
        backoff = self.retry_backoff_s * (2 ** (attempts - 1))
        self.store.update(job_id, state="retrying", **changes)
        self._inc("serve.jobs.retried")
        with self._lock:
            self._retries.append((time.monotonic() + backoff, job_id))

    def _link_postmortem(self, job_id: str, wid: int) -> str | None:
        """Copy the dead worker's postmortem record next to the job."""
        source = flight_paths(self.spool, f"w{wid}")["postmortem"]
        if not source.is_file():
            return None
        dest = self.store.dir / f"{job_id}-postmortem.json"
        try:
            shutil.copyfile(source, dest)
        except OSError:
            return str(source)
        return str(dest)

    def _check_stalls(self) -> None:
        if self.stall_deadline_s is None or self._draining.is_set():
            return
        now = time.monotonic()
        with self._lock:
            stalled = [
                (wid, job_id)
                for wid, job_id in self._busy.items()
                if now - self._activity.get(job_id, now) > self.stall_deadline_s
            ]
        for wid, job_id in stalled:
            self._inc("serve.jobs.stalled")
            # SIGKILL only; the dead process stays in pool.procs so the
            # next _handle_deaths tick reaps it and runs the crash path
            # (retry/fail + restart) exactly like any other worker death
            self.pool.kill(wid)

    def _promote_due_retries(self) -> None:
        now = time.monotonic()
        with self._lock:
            due = [job_id for t, job_id in self._retries if t <= now]
            self._retries = [(t, j) for t, j in self._retries if t > now]
            self._queue.extend(due)
        for job_id in due:
            self.store.update(job_id, state="queued")

    def _dispatch_ready(self) -> None:
        if self._draining.is_set():
            return
        while True:
            with self._lock:
                idle = [
                    wid
                    for wid in self._ready
                    if wid not in self._busy
                    and self.pool.procs[wid] is not None
                    and self.pool.procs[wid].is_alive()
                ]
                if not idle or not self._queue:
                    return
                wid = idle[0]
                job_id = self._queue.popleft()
                self._busy[wid] = job_id
            job = self.store.get(job_id)
            job = self.store.update(
                job_id,
                state="running",
                worker=wid,
                attempts=job["attempts"] + 1,
                started_unix=job["started_unix"] or round(time.time(), 3),
            )
            self._activity[job_id] = time.monotonic()
            self.pool.dispatch(wid, {"id": job_id, "spec": job["spec"], "attempts": job["attempts"]})
            self._inc("serve.jobs.dispatched")

    def _publish_live(self, force: bool = False) -> None:
        if self.obs_out is None:
            return
        with self._mlock:
            metrics = self.metrics.snapshot()
        snap = {"service": self.snapshot(), "metrics": metrics}
        try:
            self.obs_out.mkdir(parents=True, exist_ok=True)
            atomic_write_json(self.obs_out / "live.json", snap)
        except OSError:  # pragma: no cover - disk full etc.; never kill the loop
            if force:
                raise
