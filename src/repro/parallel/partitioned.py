"""The one run skeleton of every engine.

:class:`~repro.parallel.threads.ThreadedPACGA`,
:class:`~repro.parallel.shm.ShmBlockPACGA` and
:class:`~repro.parallel.simengine.SimulatedPACGA` are one algorithm (the
paper's Algorithm 2) on three substrates: the grid is split into
``n_threads`` blocks, each driven by its own RNG stream and evaluation
share.  The sequential engines of :mod:`repro.cga.engine` and
:mod:`repro.cga.vectorized` are the same algorithm with one block and
one stream (Algorithm 1).  :class:`PartitionedEngine` owns everything
that does not depend on the substrate — the checkpoint protocol and its
one payload (every engine's RNG streams, per-worker counters, history
rows, ``on_improvement``'s best and registry options), the per-worker
counters and their resume, the history rows, the result,
the end-of-sweep accounting, the round-boundary bookkeeping (history
row, ``on_improvement``, generation hook, ``target_fitness`` check) and
checkpoint cadence, the serialized (``lockstep``) loop and the
free-running one: a worker loop (sweep, then check the budget share)
and the parent's supervision loop (sampling, round-boundary
bookkeeping, telemetry merge, stall-kill, loud failure).  A subclass
supplies one block sweep (``_step_block(tid, rng, rec)``) and how one
free-running worker starts (``_start_worker``): an OS thread, or a
forked process — an engine whose workers are processes sets ``_mpctx``
to a fork context, so the per-worker counters live in fork-shared
arrays.  The simulator replaces the serialized schedule (``_rounds``)
with a virtual-clock scheduler, whose state it adds to the checkpoint
payload (``_schedule_state``).
"""

from __future__ import annotations

import functools
import math
import os
import signal
import time
from dataclasses import asdict, is_dataclass
from typing import NamedTuple, Sequence

from repro.cga.config import StopCondition
from repro.cga.engine import RunResult
from repro.cga.hooks import as_hooks
from repro.obs.watchdog import HeartbeatBoard, Watchdog
from repro.runtime.budget import Budget
from repro.runtime.context import attach_runtime, detach_runtime, finish_run
from repro.runtime.registry import check_stop, resolve_engine

__all__ = ["PartitionedEngine"]


class _Progress(NamedTuple):
    """Per-worker run state: workers write it, the parent reads it.
    ``board`` holds the heartbeats and budget-exhausted flags the
    watchdogs read; the parent sets ``halt[0]`` to stop every worker
    after its sweep; forked workers put ``(tid, metrics snapshot, trace
    events)`` on ``telemetry``."""

    evals: Sequence[int]
    gens: Sequence[int]
    board: HeartbeatBoard
    halt: Sequence[int]
    telemetry: object | None


class PartitionedEngine:
    """Checkpoint protocol, counters, history, result and both run loops
    of every engine; ``ctx`` is the engine's
    :class:`~repro.runtime.context.RunContext`, one block per worker."""

    #: fork context of an engine whose free-running workers are processes
    _mpctx = None
    #: free-running: terminate the workers and raise when a heartbeat
    #: stalls this long (processes only — a thread cannot be killed)
    stall_kill_s: float | None = None
    #: append a ``(generation, evaluations, best, mean)`` history row at
    #: run start and after every generation (the sequential engines)
    record_history = False

    def __init__(self, instance, ctx, hooks=None, lockstep: bool = False):
        self.instance = instance
        self.config = ctx.config
        self.hooks = as_hooks(hooks)
        self.lockstep = lockstep
        self.grid = ctx.grid
        self.neighbors = ctx.neighbors
        self.blocks = ctx.blocks
        self.orders = ctx.orders
        self.ops = ctx.ops
        self._worker_rngs = ctx.worker_rngs
        self.pop = ctx.pop
        #: does cell idx's neighborhood leave its own block?
        self.crosses = ctx.crosses
        #: boundary breeding steps per sweep of each block (cells whose
        #: neighborhood leaves the block), recorded as ``boundary_evals``
        self._boundary_per_sweep = [int(self.crosses[b].sum()) for b in self.blocks]
        self.obs = ctx.obs
        n = len(self.blocks)
        self._eval_counts = [0] * n
        self._gen_counts = [0] * n
        #: the latest run's history rows and the best fitness its
        #: ``on_improvement`` compares against
        self._history: list = []
        self._best_seen = math.inf
        self._improvements = 0
        self._budget: Budget | None = None
        self._resume: dict | None = None
        self._ckpt = None
        #: per-worker step tallies of the scalar breeding step (async,
        #: sync, threads, simulator), built on the worker's first
        #: observed sweep
        self._tallies: dict = {}

    # ------------------------------------------------------------------
    # checkpoint protocol (runtime.checkpoint)
    # ------------------------------------------------------------------
    def arm_checkpoint(self, every, saver) -> None:
        """Install a round-boundary checkpoint callback (lockstep only)."""
        if saver is not None and not self.lockstep:
            raise ValueError(
                "mid-run checkpoints require lockstep=True: free-running "
                "workers interleave block updates nondeterministically and "
                "cannot be snapshotted at a consistent boundary"
            )
        self._ckpt = None if saver is None else (every, saver)

    def _streams(self) -> dict:
        """The engine's RNG streams by checkpoint ``rng_streams`` key."""
        return {"workers": self._worker_rngs}

    def _schedule_state(self) -> dict:
        """The serialized schedule's own ``progress`` keys (the
        simulator's scheduler state); the round-robin one has none."""
        return {}

    def capture_state(self) -> dict:
        """The one checkpoint payload of every engine: the RNG streams,
        the run's counters, history and the best fitness
        ``on_improvement`` has seen (plus :meth:`_schedule_state`), and
        the values of the registry spec's ``extra_kwargs``."""
        spec = resolve_engine(self.engine_name)
        options = {k: getattr(self, k) for k in spec.extra_kwargs}
        return {
            "rng_streams": {
                key: [r.bit_generator.state for r in rngs]
                for key, rngs in self._streams().items()
            },
            "progress": {
                "eval_counts": list(self._eval_counts),
                "gen_counts": list(self._gen_counts),
                "history": [list(row) for row in self._history],
                "best_seen": None if math.isinf(self._best_seen) else self._best_seen,
                **self._schedule_state(),
            },
            "engine_options": {
                k: asdict(v) if is_dataclass(v) else v for k, v in options.items()
            },
        }

    def restore_state(self, payload: dict) -> None:
        """Adopt a :meth:`capture_state` payload; the next ``run``
        resumes it once it holds a started run."""
        streams = payload["rng_streams"]
        for key, rngs in self._streams().items():
            if len(streams[key]) != len(rngs):
                raise ValueError(
                    f"checkpoint has {len(streams[key])} {key!r} streams, "
                    f"engine has {len(rngs)}"
                )
            for rng, state in zip(rngs, streams[key]):
                rng.bit_generator.state = state
        progress = payload.get("progress")
        started = progress and (any(progress["eval_counts"]) or progress["history"])
        self._resume = progress if started else None

    # ------------------------------------------------------------------
    def run(self, stop: StopCondition) -> RunResult:
        """Algorithm 2: parallel block evolution until ``stop``.

        The bounds the engine's registry spec enforces are supported
        (``check_stop``); the evaluation budget is split evenly across
        workers (each checks its share after a full block sweep,
        mirroring the paper's "check the time after evolving the whole
        block" approximation); ``target_fitness`` is checked at round
        boundaries.
        """
        check_stop(self.engine_name, stop)
        resume, self._resume = self._resume, None
        n = len(self.blocks)
        self._eval_counts = list(resume["eval_counts"]) if resume else [0] * n
        self._gen_counts = list(resume["gen_counts"]) if resume else [0] * n
        self._history = [tuple(row) for row in resume["history"]] if resume else []
        _, best = self.pop.best()
        seen = resume["best_seen"] if resume else None
        self._best_seen = best if seen is None else seen
        if resume is None and self.record_history:
            self._history.append((0, 0, best, self.pop.mean_fitness()))
        self._improvements = 0
        self._budget = budget = Budget(stop)
        if self.lockstep:
            return self._run_lockstep(budget, resume)
        return self._run_free(budget)

    def _result(self, budget: Budget, meta=None, **extra) -> RunResult:
        eval_counts, gen_counts = self._eval_counts, self._gen_counts
        n = len(self.blocks)
        if self.obs is not None and self._improvements:
            # recorded once the workers have quiesced: worker 0's
            # recorder is written by worker 0 alone while they run
            self.obs.recorder(0).inc("improvements", self._improvements)
        best_idx, best_fit = self.pop.best()
        now = self._virtual_clock()
        result = RunResult(
            best_fitness=best_fit,
            best_assignment=self.pop.s[best_idx].copy(),
            evaluations=sum(eval_counts),
            generations=min(gen_counts) if gen_counts else 0,
            elapsed_s=budget.elapsed if now is None else now,
            history=self._history,
            extra={
                "per_thread_evaluations": list(eval_counts),
                "per_thread_generations": list(gen_counts),
                "n_threads": n,
                "lockstep": self.lockstep,
                **extra,
            },
        )
        return finish_run(
            self, result, engine_name=self.engine_name,
            meta={"n_threads": n, **(meta or {})}, t_s=now,
        )

    def _detach(self) -> None:
        """Release what the run holds outside the engine, on success and
        failure alike: the observer's live runtime."""
        detach_runtime(self)

    def _virtual_clock(self) -> float | None:
        """The run's virtual time (s), stamping samples and the result's
        ``elapsed_s``; None on a wall-clock substrate."""
        return None

    # ------------------------------------------------------------------
    # per-worker pieces shared by both loops
    # ------------------------------------------------------------------
    def _progress(self, shared: bool) -> _Progress:
        """This run's per-worker state.  Forked workers (``shared`` and
        ``_mpctx``) get fork-shared arrays seeded from the resumed
        counters; otherwise the counters are the engine's own lists, so a
        lockstep checkpoint reads them live."""
        n = len(self.blocks)
        mp = self._mpctx if shared else None
        new = mp.RawArray if mp is not None else lambda typecode, init: init
        return _Progress(
            new("l", self._eval_counts), new("l", self._gen_counts),
            HeartbeatBoard(n, counters=new("l", [0] * n), done=new("b", [0] * n)),
            new("b", [0]),
            mp.SimpleQueue() if mp is not None and self.obs is not None else None,
        )

    def _worker_name(self, tid: int) -> str:
        """Name of worker ``tid``: its thread/process and its trace lane."""
        return f"pacga-{self.engine_name}-w{tid}"

    def _sinks(self, tid: int) -> tuple:
        """In-process worker ``tid``'s metric recorder and trace lane."""
        obs = self.obs
        if obs is None:
            return None, None
        return obs.recorder(tid), obs.thread_tracer(tid, self._worker_name(tid))

    def _sweep(self, gid: int, members, rng, progress: _Progress, rec, tracer):
        """One timed sweep of unit ``gid`` over its ``members`` (block
        ids), then :meth:`_sweep_done`.  Returns ``_step_block``'s value."""
        start = time.perf_counter()
        out = self._step_block(gid, rng, rec)
        for t in members:
            progress.evals[t] += self.blocks[t].size
        dur = 0.0 if rec is None else time.perf_counter() - start
        epoch = 0.0 if tracer is None else tracer.epoch
        self._sweep_done(members, progress, rec, tracer, start - epoch, dur)
        return out

    def _sweep_done(self, members, progress: _Progress, rec, tracer, start_s, dur_s):
        """The accounting of one finished sweep of ``members``: their
        generation counters and heartbeats, ``sweep_us`` into ``rec`` and
        a ``sweep`` span on ``tracer`` starting ``start_s`` seconds into
        the trace (wall clock, or the simulator's virtual clock)."""
        gens, board = progress.gens, progress.board
        for t in members:
            gens[t] += 1
            board.beat(t)
        if rec is not None:
            rec.observe("sweep_us", dur_s * 1e6)
        if tracer is not None:
            tracer.complete("sweep", start_s, dur_s, {"generation": gens[members[0]]})

    def _tally(self, tid: int, rec):
        """Worker ``tid``'s :class:`~repro.obs.dynamics.StepTally` (None
        unobserved); its 1-in-8 observed steps take ``_tally_locks``."""
        if rec is not None and tid not in self._tallies:
            from repro.obs.dynamics import StepTally

            self._tallies[tid] = StepTally(rec, self.ops, self._tally_locks(rec))
        return self._tallies.get(tid)

    def _tally_locks(self, rec):
        """The timed lock view observed steps run under (None: no locks)."""

    def _record_steps(self, tid: int, rec, boundary: int, sweeps: int = 1) -> None:
        """Record worker ``tid``'s tallied steps since the last call:
        ``sweeps`` finished sweeps, ``boundary`` boundary breeding steps
        and the tally's ``breeding.*``/``op.*``/``ls.*`` counters."""
        rec.inc("sweeps", sweeps)
        rec.inc("boundary_evals", boundary)
        self._tallies[tid].flush()

    def _boundary(self, progress: _Progress, fired: int) -> int:
        """Round-boundary bookkeeping, after a lockstep round or a
        free-running supervision poll: the history row, ``on_improvement``
        when the population best strictly improved, ``on_generation`` for
        every generation in ``(fired, generation]`` and the
        ``target_fitness`` check, which halts the workers.  The
        generation is the slowest worker's sweep count, as in the
        result's ``generations``; returns the new mark."""
        generation, evaluations = min(progress.gens), sum(progress.evals)
        _, best = self.pop.best()
        if self.record_history and generation > fired:
            row = (generation, evaluations, best, self.pop.mean_fitness())
            self._history.append(row)
        if best < self._best_seen:
            self._best_seen = best
            self._improvements += 1
            if self.hooks.on_improvement is not None:
                self.hooks.on_improvement(self, generation, evaluations, best)
        if self.hooks.on_generation is not None:
            for g in range(fired + 1, generation + 1):
                self.hooks.on_generation(self, g, evaluations)
        self._check_target(progress, best)
        return max(fired, generation)

    def _check_target(self, progress: _Progress, best: float) -> None:
        """Halt the workers once ``best`` meets the run's target."""
        target = self._budget.stop.target_fitness
        if target is not None and best <= target:
            progress.halt[0] = 1

    def _sample(self, progress: _Progress) -> None:
        """Tick the time-series sampler from the run loop's thread."""
        obs, total = self.obs, sum(progress.evals)
        obs.maybe_sample(
            total, lambda: obs.engine_row(self, min(progress.gens), total),
            t_s=self._virtual_clock(),
        )

    # ------------------------------------------------------------------
    # lockstep
    # ------------------------------------------------------------------
    def _run_lockstep(self, budget: Budget, resume: dict | None) -> RunResult:
        """Deterministic serialized mode: the calling thread drives the
        workers through :meth:`_rounds`, so the interleaving (and
        therefore the run) is a pure function of the seed.  After each
        round comes the round-boundary bookkeeping, then, every
        ``every``-th round, the checkpoint callback.
        """
        n = len(self.blocks)
        progress = self._progress(shared=False)
        evals, gens = progress.evals, progress.gens
        attach_runtime(self, progress.board, lambda: (min(gens), sum(evals)))
        obs = self.obs
        # lockstep runs in one thread, so every worker's metrics land
        # directly in the parent registry
        sinks = [self._sinks(tid) for tid in range(n)]
        fired = min(gens)
        self._check_target(progress, self.pop.best()[1])
        budget.start()
        rounds = 0
        try:
            for more in self._rounds(budget, progress, sinks, resume):
                rounds += 1
                if obs is not None:
                    obs.flight_event("sweep", "round", float(rounds))
                    self._sample(progress)
                fired = self._boundary(progress, fired)
                if self._ckpt is not None and rounds % self._ckpt[0] == 0 and more:
                    self._ckpt[1](self)
                    if obs is not None:
                        obs.flight_event("checkpoint", value=float(rounds))
        finally:
            self._detach()
        return self._result(budget)

    def _rounds(self, budget: Budget, progress: _Progress, sinks, resume):
        """Round-robin block sweeps: each active worker sweeps its block
        once per round, in block order.  Budget semantics match the
        free-running mode: per-worker evaluation shares, checked at sweep
        boundaries, and the halt flag.  Yields after each round whether a
        worker is active."""
        share = budget.eval_share(len(self.blocks))
        evals, gens, halt = progress.evals, progress.gens, progress.halt
        active = [True] * len(self.blocks)
        while any(active):
            for tid, rng in enumerate(self._worker_rngs):
                if active[tid] and (
                    halt[0] or budget.worker_exhausted(evals[tid], gens[tid], share)
                ):
                    active[tid] = False
                    progress.board.mark_done(tid)
                if active[tid]:
                    self._sweep(tid, (tid,), rng, progress, *sinks[tid])
            yield any(active)

    # ------------------------------------------------------------------
    # free-running
    # ------------------------------------------------------------------
    def _worker_groups(self) -> list[list[int]]:
        """The free-running workers as groups of block ids; a group is
        one worker breeding one sweep unit (default: a block each)."""
        return [[t] for t in range(len(self.blocks))]

    def _worker_loop(
        self, gid: int, members, budget: Budget, share, progress: _Progress,
        rec, tracer, after_sweep=None,
    ) -> int:
        """One free-running worker: sweep unit ``gid`` until every member
        block's budget share is spent or the parent halts the run, calling
        ``after_sweep(out, generation)`` after each sweep.  Returns the
        final sweep count."""
        rng = self._worker_rngs[members[0]]
        evals, gens = progress.evals, progress.gens
        while not progress.halt[0] and not all(
            budget.worker_exhausted(evals[t], gens[t], share) for t in members
        ):
            out = self._sweep(gid, members, rng, progress, rec, tracer)
            if after_sweep is not None:
                after_sweep(out, gens[members[0]])
        for t in members:
            progress.board.mark_done(t)  # budget exhausted != stalled
        if progress.telemetry is not None:
            events = tracer.events if tracer is not None else []
            progress.telemetry.put((members[0], rec.snapshot(), events))
        return gens[members[0]]

    def _run_free(self, budget: Budget) -> RunResult:
        """Free-running workers (the paper's concurrent execution)."""
        n = len(self.blocks)
        share = budget.eval_share(n)
        groups = self._worker_groups()
        progress = self._progress(shared=True)
        evals, gens = progress.evals, progress.gens
        attach_runtime(self, progress.board, lambda: (min(gens), sum(evals)))
        killer = None
        if self.stall_kill_s is not None:
            killer = Watchdog(progress.board, deadline_s=self.stall_kill_s)
        workers = []
        # read before any worker starts: a fast one may finish sweeps
        # before the parent reaches its supervision loop
        fired = min(gens)
        self._check_target(progress, self.pop.best()[1])
        budget.start()
        try:
            for gid, members in enumerate(groups):
                loop = functools.partial(
                    self._worker_loop, gid, members, budget, share, progress
                )
                workers.append(self._start_worker(gid, members, loop))
            self._supervise(workers, groups, progress, killer, fired)
        except BaseException:
            progress.halt[0] = 1
            for w in workers:
                if w.is_alive():
                    w.terminate()  # a no-op for threads: they halt instead
            for w in workers:
                w.join()
            raise
        finally:
            # final live.json publish happens after the workers'
            # recorders have quiesced, so live counts == bundle counts
            self._detach()
        self._eval_counts = [int(e) for e in evals]
        self._gen_counts = [int(g) for g in gens]
        return self._result(budget)

    def _supervise(
        self, workers, groups, progress: _Progress, killer, fired: int
    ) -> None:
        """The parent's loop until every worker has exited: merge forked
        workers' telemetry (while they run — a finishing worker blocks in
        ``put`` once its payload outgrows the pipe), sample, do the
        round-boundary bookkeeping for the generations past ``fired``
        (a met target halts the workers), and fail on a dead or
        (stall-kill) stalled worker; the caller then stops the rest."""
        obs = self.obs
        while True:
            alive = [w for w in workers if w.is_alive()]
            if progress.telemetry is not None:
                self._adopt_telemetry(progress.telemetry)
            if obs is not None:
                try:
                    self._sample(progress)
                except Exception as exc:
                    # the population is read while workers mutate it —
                    # a torn read must not kill an otherwise healthy run
                    obs.flight_event("sample.error", repr(exc)[:36])
            fired = self._boundary(progress, fired)
            failed = next(
                (g for g, w in enumerate(workers) if w.exitcode not in (None, 0)), None
            )
            if failed is None and not alive:
                return
            stalled = None
            if failed is None and killer is not None:
                stalled = next((ev for ev in killer.poll() if not ev.recovered), None)
            if failed is not None or stalled is not None:
                self._fail(workers, groups, failed, stalled)
            alive[0].join(0.02)

    def _adopt_telemetry(self, queue) -> None:
        """Merge the metric snapshots and trace events forked workers
        shipped at exit into the parent's observer."""
        from repro.obs.metrics import MetricRecorder

        obs = self.obs
        while not queue.empty():
            tid, snapshot, events = queue.get()
            obs.registry.adopt(MetricRecorder.from_snapshot(snapshot))
            if obs.tracer is not None:
                obs.tracer.adopt(tid, events, self._worker_name(tid))

    def _fail(self, workers, groups, failed, stalled) -> None:
        """Stamp the failed (exited nonzero) or ``stalled`` worker into
        ``obs.meta["interrupted_by"]`` and raise ``RuntimeError``."""
        if failed is None:
            failed = next(g for g, m in enumerate(groups) if stalled.worker in m)
        w, lead = workers[failed], groups[failed][0]
        error = getattr(w, "error", None)
        if stalled is None:
            by = {"role": f"w{lead}", "pid": w.pid, "exitcode": w.exitcode}
            detail = f": {error!r}" if error is not None else ""
            message = f"{self.engine_name} workers failed: {[w.name]}{detail}"
        else:
            self._capture_stalled_stacks(w, f"w{lead}", stalled)
            by = {"role": f"w{stalled.worker}", "pid": w.pid, "reason": "stall",
                  "stalled_s": round(stalled.stalled_s, 3)}
            message = (
                f"{self.engine_name} worker {stalled.worker} stalled for "
                f"{stalled.stalled_s:.1f}s (heartbeat {stalled.heartbeat}); "
                "worker group terminated"
            )
        if self.obs is not None:
            self.obs.meta.setdefault("interrupted_by", by)
        raise RuntimeError(message) from error

    def _capture_stalled_stacks(self, victim, role, stalled, wait_s: float = 1.5) -> None:
        """Stall escalation: SIGUSR1 the stalled worker process (flight
        role ``role``) and wait, bounded, for its handler's stack dump in
        ``flight/stacks-<role>.txt``, so the evidence lands in the bundle
        before the group is terminated.  No-op without flight recording
        or when the worker is already gone."""
        obs = self.obs
        if obs is None or obs.proc.ring is None or not victim.is_alive():
            return
        from repro.obs.flight import flight_paths

        stacks_path = flight_paths(obs.out, role)["stacks"]
        before = stacks_path.stat().st_size if stacks_path.exists() else 0
        try:
            os.kill(victim.pid, signal.SIGUSR1)
        except (ProcessLookupError, OSError):  # pragma: no cover - racing exit
            return
        deadline = time.perf_counter() + wait_s
        while time.perf_counter() < deadline:
            if stacks_path.exists() and stacks_path.stat().st_size > before:
                break
            time.sleep(0.02)
        obs.flight_event("stall", f"w{stalled.worker}", stalled.stalled_s)
