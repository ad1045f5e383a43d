"""Job records, validation and the durable spool-backed job store.

A *job* is one solve request: problem, instance (registry spec or an
inline file payload), engine, config overrides, stop budget and seed.
Its record walks a small state machine::

    queued -> running -> done
                |   \\-> failed            (validation error, or retries
                |                           exhausted; postmortem linked)
                |-> retrying -> queued     (worker crash/stall, bounded
                |                           retries with backoff)
                \\-> parked  -> queued     (SIGTERM drain checkpointed it;
                                            requeued on restart)

Every state change is persisted as ``<spool>/jobs/<id>.json`` with the
same atomic write-temp + ``os.replace`` protocol the live publisher
uses, so a crashed or drained service recovers its queue exactly: on
startup :meth:`JobStore.recover` re-queues every non-terminal record,
and jobs that already wrote a checkpoint resume from it instead of
restarting (checkpoint format v3, :mod:`repro.runtime.checkpoint`).
"""

from __future__ import annotations

import threading
import time
import uuid
from dataclasses import fields
from pathlib import Path

from repro.obs.live import atomic_write_json

__all__ = [
    "TERMINAL_STATES",
    "JOB_STATES",
    "JobValidationError",
    "QueueFull",
    "ServiceDraining",
    "validate_job",
    "JobStore",
]

#: every state a job record can be in.
JOB_STATES = ("queued", "running", "retrying", "parked", "done", "failed")
#: states a recovered job is *not* re-queued from.
TERMINAL_STATES = ("done", "failed")


class JobValidationError(ValueError):
    """A submitted payload names an unknown problem/engine/field."""


class QueueFull(RuntimeError):
    """The bounded queue is at capacity (HTTP 429 + ``Retry-After``)."""

    def __init__(self, depth: int, limit: int, retry_after_s: float):
        super().__init__(f"queue full ({depth}/{limit} jobs queued)")
        self.depth = depth
        self.limit = limit
        self.retry_after_s = retry_after_s


class ServiceDraining(RuntimeError):
    """The service received SIGTERM and no longer accepts jobs (503)."""


def _validate_instance(problem, spec) -> str | dict:
    """An instance is a loader spec string or an inline file payload."""
    if isinstance(spec, str) and spec:
        return spec
    if isinstance(spec, dict):
        unknown = sorted(set(spec) - {"name", "content"})
        if unknown:
            raise JobValidationError(
                f"inline instance payload has unknown keys: {', '.join(unknown)} "
                "(expected {'name', 'content'})"
            )
        if not isinstance(spec.get("content"), str) or not spec["content"]:
            raise JobValidationError(
                "inline instance payload needs non-empty string 'content' "
                "(the instance file body the problem's loader understands)"
            )
        return {"name": str(spec.get("name") or "inline"), "content": spec["content"]}
    raise JobValidationError(
        "'instance' must be an instance spec string (see `repro problems`) "
        "or an inline payload {'name': ..., 'content': ...}"
    )


def validate_job(payload: dict) -> dict:
    """Normalize one submitted payload into a job ``spec`` dict.

    Raises :class:`JobValidationError` with the same registry-aware
    messages the CLI prints — unknown problems/engines list the valid
    names, config overrides are validated field-by-field by actually
    constructing the :class:`~repro.cga.config.CGAConfig`, and budgets
    by constructing the :class:`~repro.cga.config.StopCondition` and
    checking that the engine enforces one of its bounds.
    """
    from repro.cga.config import CGAConfig, StopCondition
    from repro.problems import resolve_problem
    from repro.runtime.registry import check_stop, resolve_engine

    if not isinstance(payload, dict):
        raise JobValidationError(f"job payload must be an object, got {type(payload).__name__}")
    known = {"problem", "instance", "engine", "config", "budget", "seed", "inject"}
    unknown = sorted(set(payload) - known)
    if unknown:
        raise JobValidationError(
            f"unknown job fields: {', '.join(unknown)} (valid fields: {', '.join(sorted(known))})"
        )

    try:
        problem = resolve_problem(payload.get("problem", "independent"))
    except ValueError as exc:
        raise JobValidationError(str(exc)) from None
    try:
        spec = resolve_engine(payload.get("engine", "async"))
    except ValueError as exc:
        raise JobValidationError(str(exc)) from None

    overrides = payload.get("config") or {}
    if not isinstance(overrides, dict):
        raise JobValidationError("'config' must be an object of CGAConfig overrides")
    bad = sorted(set(overrides) - ({f.name for f in fields(CGAConfig)} - {"problem"}))
    if bad:
        raise JobValidationError(
            f"invalid config overrides: {', '.join(bad)} "
            "(any CGAConfig field except 'problem')"
        )
    try:
        config = CGAConfig(problem=problem.name, **overrides)
    except (TypeError, ValueError) as exc:
        raise JobValidationError(f"invalid config overrides: {exc}") from None
    if spec.parallelism == "sequential" and config.n_threads != 1:
        raise JobValidationError(
            f"engine {spec.name!r} is single-stream; 'n_threads' must be 1"
        )

    budget = payload.get("budget") or {"max_evaluations": 5000}
    if not isinstance(budget, dict):
        raise JobValidationError("'budget' must be an object of StopCondition bounds")
    bad = sorted(set(budget) - {f.name for f in fields(StopCondition)})
    if bad:
        valid = ", ".join(f.name for f in fields(StopCondition))
        raise JobValidationError(f"invalid budget bounds: {', '.join(bad)} (valid: {valid})")
    try:
        check_stop(spec.name, StopCondition(**budget))
    except (TypeError, ValueError) as exc:
        raise JobValidationError(f"invalid budget: {exc}") from None

    seed = payload.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise JobValidationError(f"'seed' must be a non-negative integer, got {seed!r}")

    inject = payload.get("inject") or None
    if inject is not None:
        if not isinstance(inject, dict) or sorted(set(inject) - {"crash_after_generations", "crash_attempts", "hang_after_generations"}):
            raise JobValidationError(
                "'inject' supports crash_after_generations, crash_attempts "
                "and hang_after_generations (test-only; requires the service "
                "to run with fault injection enabled)"
            )

    return {
        "problem": problem.name,
        "instance": _validate_instance(problem, payload.get("instance", problem.default_instance)),
        "engine": spec.name,
        "config": dict(overrides),
        "budget": dict(budget),
        "seed": seed,
        "inject": inject,
    }


class JobStore:
    """In-memory job table mirrored to ``<spool>/jobs/*.json``.

    Thread-safe (one lock around the table); every mutation goes
    through :meth:`update` so the on-disk record can never drift from
    the in-memory one by more than the write in progress — and that
    write is atomic.
    """

    def __init__(self, spool):
        self.spool = Path(spool)
        self.dir = self.spool / "jobs"
        self.dir.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._jobs: dict[str, dict] = {}
        self._seq = 0

    # -- creation / recovery ----------------------------------------------
    def create(self, spec: dict, max_retries: int) -> dict:
        """Mint a queued job record for a validated ``spec``."""
        with self._lock:
            self._seq += 1
            job = {
                "id": uuid.uuid4().hex[:12],
                "seq": self._seq,
                "state": "queued",
                "spec": spec,
                "submitted_unix": round(time.time(), 3),
                "started_unix": None,
                "finished_unix": None,
                "attempts": 0,
                "max_retries": max_retries,
                "worker": None,
                "progress": None,
                "result": None,
                "error": None,
                "checkpoint": None,
                "resumed": False,
                "postmortem": None,
            }
            self._jobs[job["id"]] = job
            self._persist(job)
            return dict(job)

    def recover(self) -> list[dict]:
        """Load the spool; re-queue every non-terminal record.

        Returns the re-queued jobs in submission order.  Jobs that were
        ``running``/``retrying``/``parked`` when the previous process
        died come back as ``queued`` (their checkpoint, if any, makes
        the re-run a resume, not a restart).
        """
        requeued = []
        with self._lock:
            records = []
            for path in self.dir.glob("*.json"):
                try:
                    import json

                    record = json.loads(path.read_text(encoding="utf-8"))
                except (ValueError, OSError):
                    continue  # torn file: ignore, never crash recovery
                if isinstance(record, dict) and record.get("id"):
                    records.append(record)
                # anything else is a foreign file sharing the directory
                # (e.g. a linked <id>-postmortem.json crash record)
            records.sort(key=lambda j: j.get("seq", 0))
            for job in records:
                self._jobs[job["id"]] = job
                self._seq = max(self._seq, job.get("seq", 0))
                if job["state"] not in TERMINAL_STATES:
                    job["state"] = "queued"
                    job["worker"] = None
                    self._persist(job)
                    requeued.append(dict(job))
        return requeued

    # -- access ------------------------------------------------------------
    def get(self, job_id: str) -> dict | None:
        with self._lock:
            job = self._jobs.get(job_id)
            return dict(job) if job is not None else None

    def list(self) -> list[dict]:
        """All records, submission order (copies; safe to serialize)."""
        with self._lock:
            return [dict(j) for j in sorted(self._jobs.values(), key=lambda j: j["seq"])]

    def counts(self) -> dict[str, int]:
        """``state -> count`` over the whole table."""
        with self._lock:
            out = dict.fromkeys(JOB_STATES, 0)
            for job in self._jobs.values():
                out[job["state"]] = out.get(job["state"], 0) + 1
            return out

    # -- mutation -----------------------------------------------------------
    def update(self, job_id: str, **changes) -> dict:
        """Apply ``changes`` to one record and persist it atomically."""
        with self._lock:
            job = self._jobs[job_id]
            state = changes.get("state")
            if state is not None and state not in JOB_STATES:
                raise ValueError(f"unknown job state {state!r}")
            job.update(changes)
            self._persist(job)
            return dict(job)

    def _persist(self, job: dict) -> None:
        atomic_write_json(self.dir / f"{job['id']}.json", job)
