"""The engine worker process of the solve service.

One worker is a long-lived forked process running a task loop: take a
job from its task queue, build (or resume) the engine through the
:class:`~repro.runtime.registry.EngineSpec` registry, run it under
checkpoint v3, and stream progress back on the shared result queue.
Amortization is the whole point of keeping the process alive:

* instances are held in an :class:`~repro.serve.cache.LRUCache` keyed
  by ``(problem, instance spec)`` — a 512x16 benchmark matrix loads
  once, not once per request;
* the runtime's seed-schedule cache
  (:func:`repro.runtime.context.enable_seed_cache`) memoizes the
  Min-min/NEH seeding pass per instance, so population setup for the
  Nth job on an instance is array initialization only.

Durability: every job runs via
:func:`~repro.runtime.checkpoint.run_with_checkpoints` into
``<spool>/checkpoints/<job>.ckpt``.  A drain request (fork-shared
event, set by the service's SIGTERM handler) interrupts the run at the
next generation boundary, saves a final checkpoint and reports the job
``parked``; a crash simply kills the process — the checkpoint already
on disk is what the retry resumes from.  The whole loop runs inside
one :class:`~repro.obs.flight.ProcessObs` (flight ring + crash hooks),
so an escaping exception leaves ``flight/postmortem-w<i>.json`` behind
for the service to link into the job record (rendered by
``repro obs postmortem``).
"""

from __future__ import annotations

import hashlib
import os
import tempfile
import time
from pathlib import Path

__all__ = ["worker_main", "DrainInterrupt"]

#: progress messages are throttled to this cadence per running job.
PROGRESS_EVERY_S = 0.2


class DrainInterrupt(BaseException):
    """Raised from the generation hook to park the running job.

    Derives from ``BaseException`` so no engine-internal ``except
    Exception`` can accidentally swallow the drain request.
    """


def _resolve_instance(problem, instance_spec, spool: Path, cache):
    """Load the job's instance through the problem's loader, cached.

    Inline payloads are spooled (private temp, atomic replace) to a
    content-addressed file first, so identical payloads share one cache
    entry and a resumed job can rebuild its instance after a restart.
    """
    if isinstance(instance_spec, str):
        key = (problem.name, instance_spec)
        return cache.get_or_load(key, lambda: problem.load_instance(instance_spec))
    digest = hashlib.sha256(instance_spec["content"].encode("utf-8")).hexdigest()[:16]
    path = spool / "instances" / f"{instance_spec['name']}-{digest}.inst"
    if not path.is_file():
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(instance_spec["content"])
        os.replace(tmp, path)
    key = (problem.name, digest)
    return cache.get_or_load(key, lambda: problem.load_instance(str(path)))


def _build_engine(task: dict, instance, ckpt: Path):
    """Fresh engine or checkpoint resume; returns ``(engine, stop)``."""
    from repro.cga.config import CGAConfig, StopCondition
    from repro.runtime.checkpoint import resume_engine
    from repro.runtime.registry import resolve_engine

    spec = task["spec"]
    if ckpt.is_file():
        engine, stop = resume_engine(str(ckpt), instance=instance)
        if stop is None:
            stop = StopCondition(**spec["budget"])
        return engine, stop, True
    engine_spec = resolve_engine(spec["engine"])
    config = CGAConfig(problem=spec["problem"], **spec["config"])
    extras = {}
    if "lockstep" in engine_spec.extra_kwargs:
        # only the deterministic lockstep schedule quiesces at sweep
        # boundaries, which checkpoint durability requires
        extras["lockstep"] = True
    engine = engine_spec.create(instance, config, seed=spec["seed"], **extras)
    return engine, StopCondition(**spec["budget"]), False


def _run_job(task: dict, instance, spool: Path, result_q, drain_event, options, proc):
    """Execute one job; returns the terminal message for the parent."""
    from repro.runtime.checkpoint import run_with_checkpoints, save_checkpoint

    job_id = task["id"]
    ckpt = spool / "checkpoints" / f"{job_id}.ckpt"
    ckpt.parent.mkdir(parents=True, exist_ok=True)
    engine, stop, resumed = _build_engine(task, instance, ckpt)

    inject = task["spec"].get("inject") if options.get("fault_injection") else None
    crash_after = hang_after = None
    if inject:
        if task["attempts"] <= inject.get("crash_attempts", 1):
            crash_after = inject.get("crash_after_generations")
        hang_after = inject.get("hang_after_generations")

    last_sent = 0.0

    def on_generation(eng, generation, evaluations):
        nonlocal last_sent
        if crash_after is not None and generation >= crash_after:
            proc.record("inject", f"crash job={job_id[:8]}", float(generation))
            raise RuntimeError(
                f"injected worker crash (job {job_id}, generation {generation})"
            )
        if hang_after is not None and generation >= hang_after:
            proc.record("inject", f"hang job={job_id[:8]}", float(generation))
            time.sleep(3600.0)
        now = time.monotonic()
        if now - last_sent >= PROGRESS_EVERY_S or generation <= 1:
            last_sent = now
            _, best = eng.pop.best()
            result_q.put(
                {
                    "kind": "progress",
                    "wid": options["wid"],
                    "job": job_id,
                    "generation": int(generation),
                    "evaluations": int(evaluations),
                    "best": float(best),
                }
            )
        if drain_event.is_set():
            raise DrainInterrupt()

    engine.hooks.on_generation = on_generation
    proc.record("job.start", f"{job_id[:8]} {task['spec']['engine']}", task["attempts"])
    t0 = time.monotonic()
    try:
        result = run_with_checkpoints(
            engine, stop, ckpt, every_generations=options.get("checkpoint_every", 1)
        )
    except DrainInterrupt:
        # park at the current boundary: one explicit final snapshot so
        # the resume loses nothing, then hand the job back
        save_checkpoint(engine, ckpt, stop=stop)
        proc.record("job.parked", job_id[:8])
        return {
            "kind": "parked",
            "wid": options["wid"],
            "job": job_id,
            "checkpoint": str(ckpt),
        }
    elapsed = time.monotonic() - t0
    proc.record("job.done", job_id[:8], float(result.best_fitness))
    return {
        "kind": "done",
        "wid": options["wid"],
        "job": job_id,
        "elapsed_s": round(elapsed, 6),
        "resumed": resumed,
        "checkpoint": str(ckpt),
        "result": {
            "best_fitness": float(result.best_fitness),
            "evaluations": int(result.evaluations),
            "generations": int(result.generations),
        },
    }


def worker_main(wid: int, spool, task_q, result_q, drain_event, options: dict) -> None:
    """Entry point of one forked engine worker (runs until sentinel).

    ``options``: ``checkpoint_every``, ``fault_injection``,
    ``instance_cache`` (LRU capacity), ``seed_cache`` (LRU capacity).
    """
    from repro.obs.flight import ProcessObs
    from repro.problems import resolve_problem
    from repro.runtime.context import enable_seed_cache, seed_cache_stats
    from repro.serve.cache import LRUCache

    spool = Path(spool)
    options = dict(options, wid=wid)
    instances = LRUCache(options.get("instance_cache", 8))
    enable_seed_cache(options.get("seed_cache", 16))

    with ProcessObs(spool, f"w{wid}", flight=True) as proc:
        proc.record("worker.start", f"pid={os.getpid()}")
        result_q.put({"kind": "ready", "wid": wid, "pid": os.getpid()})
        while True:
            task = task_q.get()
            if task is None:  # shutdown sentinel
                proc.record("worker.stop")
                break
            try:
                problem = resolve_problem(task["spec"]["problem"])
                instance = _resolve_instance(
                    problem, task["spec"]["instance"], spool, instances
                )
                message = _run_job(
                    task, instance, spool, result_q, drain_event, options, proc
                )
            except DrainInterrupt:
                # drain arrived between generations of setup: requeue as-is
                message = {"kind": "parked", "wid": wid, "job": task["id"], "checkpoint": None}
            except (ValueError, OSError, TypeError) as exc:
                # deterministic job-level failure: no point retrying
                proc.record("job.error", f"{type(exc).__name__}"[:36])
                message = {
                    "kind": "error",
                    "wid": wid,
                    "job": task["id"],
                    "error": f"{type(exc).__name__}: {exc}",
                }
            message["caches"] = {
                "instances": instances.stats(),
                "seeds": seed_cache_stats(),
            }
            result_q.put(message)
            if drain_event.is_set():
                proc.record("worker.drain")
                break
