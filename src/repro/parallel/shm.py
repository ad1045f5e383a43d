"""Block-parallel PA-CGA over POSIX shared memory and batch kernels.

The thread engine (:mod:`repro.parallel.threads`) reproduces the
paper's architecture but the GIL serializes its scalar breeding loop.
:class:`ShmBlockPACGA` escapes the GIL: each forked worker breeds its
*whole block at once* through :func:`repro.kernels.breed.breed` (one
NumPy generation per sweep — the batch breeding step
:class:`~repro.cga.vectorized.VectorizedSyncCGA` runs per generation,
fed here with seqlock row gathers), and the population arrays live in
named ``multiprocessing.shared_memory`` segments — zero-copy across
the fork, nothing pickled, no locks.

Asynchrony and the seqlock boundary protocol
--------------------------------------------
Within a block a sweep is synchronous (children bred against the block
as frozen at sweep start — the vectorized semantics); *across* blocks
updates are asynchronous exactly as in the paper: a worker publishes
accepted children immediately and neighbors read whatever version is
current.  Torn reads of a row that is mid-write are prevented without
locks by per-cell sequence counters (seqlock):

* the writer bumps ``seq[c]`` to an odd value, writes the row
  (``s``, ``ct``, ``fitness``), then bumps it back to even;
* a reader snapshots ``seq``, copies the rows, re-reads ``seq`` and
  retries any row whose counter changed or was odd.

Only cells some *other* block reads (the boundary set computed by
:func:`repro.runtime.context.partition_ownership`) pay the two stamp
writes; interior cells — the vast majority for the paper's grids — are
written with plain array stores.  The protocol assumes aligned 8-byte
loads/stores are atomic and store order is preserved (true on x86-64's
TSO model and for CPython's serialized bytecode dispatch; each numpy
element store is a single machine store).

Stale *values* are fine — that is the paper's asynchronous semantics —
the seqlock only guarantees each row read is internally consistent, so
the CT-invariant (``ct`` exact for ``s``) holds for every row a worker
breeds from.

Shared-memory lifecycle
-----------------------
Segments are created named (visible in ``/dev/shm``) at construction
and unlinked in ``run()``'s ``finally`` — on normal exit, on any
exception, and after a stall-kill — plus a ``weakref.finalize``
backstop for engines that are never run.  Unlinking removes the name
only; the mappings stay valid in the parent and every forked child, so
the population outlives the name and repeated ``run()`` calls need no
re-attachment.

Determinism: free-running forked workers interleave block publications
nondeterministically (real asynchrony); ``lockstep=True`` serializes
the block sweeps round-robin in the calling process — identical
genetics, streams and budget split, pinned interleaving — which is the
mode the universal checkpoint layer snapshots and resumes bit-exactly.

Worker collapse on oversubscribed hosts
---------------------------------------
Forking more workers than the machine has cores cannot add
parallelism — it only shrinks each worker's batch from ``pop/N`` rows
toward zero while every sweep still pays the same fixed Python/numpy
kernel-dispatch cost (the ``shm(4) < shm(1)`` throughput anomaly on
single-core boxes).  Free-running mode therefore forks only
``min(n_threads, cpu_count)`` processes and hands each one a
contiguous *group* of blocks that it breeds as a single fused batch:
block ownership, budget shares and per-worker counters keep the
configured ``n_threads`` granularity, but the kernel batch stays at
``pop/n_procs`` rows, so the per-sweep fixed cost is paid once per
process instead of once per logical worker.  On a machine with enough
cores the groups are singletons and nothing changes.  Pass
``oversubscribe=True`` (or set ``REPRO_SHM_OVERSUBSCRIBE=1``) to force
the full one-process-per-block fan-out — the observability smokes use
this to exercise real multi-process crash/stall attribution anywhere.

``stall_kill_s`` arms a parent-side watchdog over the fork-shared
heartbeat counters (free-running mode): a worker whose heartbeat does
not advance for that long gets the whole worker group terminated and
the run fails loudly instead of hanging — segments are still unlinked.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import time
import weakref
from multiprocessing import shared_memory
from multiprocessing.connection import wait as wait_for_sentinels

import numpy as np

from repro.cga.config import CGAConfig, StopCondition
from repro.cga.engine import RunResult
from repro.cga.hooks import as_hooks
from repro.kernels import resolve_batch_ops
from repro.kernels.breed import breed
from repro.runtime.budget import Budget
from repro.runtime.context import (
    attach_runtime,
    build_context,
    detach_runtime,
    finish_run,
    partition_ownership,
)

__all__ = ["ShmBlockPACGA"]

#: process-local counter making segment names unique within one parent.
_ARENA_IDS = itertools.count()


def _release_segment_handles(seg: shared_memory.SharedMemory) -> None:
    """Drop ``seg``'s own handles on the mapping, keeping views alive.

    The numpy arrays created from ``seg.buf`` keep the underlying mmap
    alive through their base chain; the fd is not needed once mapped.
    Without this, ``SharedMemory.__del__`` → ``close()`` raises
    ``BufferError: cannot close exported pointers exist`` at interpreter
    shutdown in every process (parent and forked children) that still
    holds a view.  ``unlink()`` only needs the name and still works.
    """
    if seg._fd >= 0:
        os.close(seg._fd)
        seg._fd = -1
    seg._buf = None
    seg._mmap = None


class _ShmArena:
    """Named shared-memory segments backing one engine's arrays.

    ``fields`` maps array name -> ``(dtype, shape)``; one segment is
    created per field so layouts stay independent and a leak is
    attributable by name (``repro-shm-<pid>-<id>-<field>``).
    """

    __slots__ = ("segments", "arrays", "_unlinked")

    def __init__(self, fields: dict):
        self.segments: dict[str, shared_memory.SharedMemory] = {}
        self.arrays: dict[str, np.ndarray] = {}
        self._unlinked = False
        token = f"repro-shm-{os.getpid()}-{next(_ARENA_IDS)}"
        try:
            for name, (dtype, shape) in fields.items():
                count = int(np.prod(shape))
                seg = shared_memory.SharedMemory(
                    create=True,
                    name=f"{token}-{name}",
                    size=max(count * np.dtype(dtype).itemsize, 1),
                )
                arr = np.frombuffer(seg.buf, dtype=dtype, count=count).reshape(shape)
                arr[...] = 0
                _release_segment_handles(seg)
                self.segments[name] = seg
                self.arrays[name] = arr
        except BaseException:
            self.unlink()
            raise

    def unlink(self) -> None:
        """Remove the ``/dev/shm`` names (idempotent); mappings survive."""
        if self._unlinked:
            return
        self._unlinked = True
        for seg in self.segments.values():
            try:
                seg.unlink()
            except FileNotFoundError:  # pragma: no cover - racing cleanup
                pass


class ShmBlockPACGA:
    """PA-CGA: one forked worker per block, batch kernels per sweep.

    Parameters
    ----------
    instance:
        ETC instance to schedule.
    config:
        Algorithm parameterization; ``config.n_threads`` blocks/workers.
        Operator names must have batch kernels (``ValueError`` at
        construction otherwise — same rule as the vectorized engine).
    seed:
        Root of the per-worker seed tree (same topology as threads:
        stream 0 initializes the population, streams 1..n drive the
        workers).
    obs:
        Optional :class:`repro.obs.Observer`; workers record private
        metrics shipped back over a queue at exit, heartbeats live on a
        fork-shared RawArray the parent's watchdog/publisher read.
    hooks:
        Optional :class:`~repro.cga.hooks.EngineHooks`.
    lockstep:
        Serialize the block sweeps round-robin in the calling process
        (deterministic, checkpointable) instead of forking free-running
        workers.
    stall_kill_s:
        Free-running mode: terminate the worker group and raise if any
        worker's heartbeat stalls this long (None disables).
    oversubscribe:
        Free-running mode: fork one process per block even when that
        exceeds the core count (default collapses workers to
        ``min(n_threads, cpu_count)`` fused-batch processes — see the
        module docstring).  ``REPRO_SHM_OVERSUBSCRIBE=1`` forces this
        from the environment.
    """

    engine_name = "shm"

    def __init__(
        self,
        instance,
        config: CGAConfig | None = None,
        seed: int | None = 0,
        obs=None,
        hooks=None,
        lockstep: bool = False,
        stall_kill_s: float | None = None,
        oversubscribe: bool = False,
    ):
        try:
            self._mpctx = multiprocessing.get_context("fork")
        except ValueError as exc:  # pragma: no cover - non-POSIX platforms
            raise RuntimeError(
                "ShmBlockPACGA requires the 'fork' start method (POSIX); "
                "use ThreadedPACGA or SimulatedPACGA instead"
            ) from exc
        cfg = config or CGAConfig()
        n_cells = cfg.grid.size
        self._arena = _ShmArena(
            {
                "s": (np.int32, (n_cells, instance.ntasks)),
                "ct": (np.float64, (n_cells, instance.nmachines)),
                "fitness": (np.float64, (n_cells,)),
                "seq": (np.uint64, (n_cells,)),
            }
        )
        arrays = self._arena.arrays
        ctx = build_context(
            instance,
            config,
            seed=seed,
            workers=cfg.n_threads,
            pop_arrays=(arrays["s"], arrays["ct"], arrays["fitness"]),
            obs=obs,
        )
        self.instance = instance
        self.config = ctx.config
        self.hooks = as_hooks(hooks)
        self.lockstep = lockstep
        self.stall_kill_s = stall_kill_s
        self.oversubscribe = oversubscribe
        self.grid = ctx.grid
        self.neighbors = ctx.neighbors
        self.blocks = ctx.blocks
        self.ops = ctx.ops
        self._init_rng, self._worker_rngs = ctx.init_rng, ctx.worker_rngs
        self.pop = ctx.pop
        self.crosses = ctx.crosses
        self.obs = ctx.obs
        self._batch = resolve_batch_ops(self.config, problem=self.pop.problem)
        self._seq = arrays["seq"]
        self._block_id, self._shared_read = partition_ownership(
            self.neighbors, self.blocks, n_cells
        )
        #: per-block neighbor tables, pre-gathered once
        self._nb_blocks = [self.neighbors[block] for block in self.blocks]
        #: boundary breeding steps per sweep of each block (cells whose
        #: neighborhood leaves the block — the same count the threads
        #: engine reports as ``boundary_evals``)
        self._boundary_per_sweep = [int(self.crosses[b].sum()) for b in self.blocks]
        n = self.config.n_threads
        self._eval_counts = [0] * n
        self._gen_counts = [0] * n
        #: per-leader fused sweep plans, set by :meth:`_run_free` when
        #: workers collapse (None = one sweep unit per block)
        self._plans: dict | None = None
        self._n_procs = 0
        self._resume: dict | None = None
        self._ckpt = None
        self._finalizer = weakref.finalize(self, self._arena.unlink)

    # ------------------------------------------------------------------
    # checkpoint protocol (runtime.checkpoint) — mirrors ThreadedPACGA
    # ------------------------------------------------------------------
    def arm_checkpoint(self, every, saver) -> None:
        """Install a round-boundary checkpoint callback (lockstep only)."""
        if saver is not None and not self.lockstep:
            raise ValueError(
                "mid-run checkpoints require lockstep=True: free-running "
                "forked workers interleave block publications "
                "nondeterministically and cannot be snapshotted at a "
                "consistent boundary"
            )
        self._ckpt = None if saver is None else (every, saver)

    def capture_state(self) -> dict:
        """Per-worker RNG streams plus the cumulative worker counters."""
        return {
            "rng_streams": {
                "workers": [r.bit_generator.state for r in self._worker_rngs]
            },
            "progress": {
                "eval_counts": list(self._eval_counts),
                "gen_counts": list(self._gen_counts),
            },
            "engine_options": {"lockstep": self.lockstep},
        }

    def restore_state(self, payload: dict) -> None:
        """Adopt a :meth:`capture_state` payload; next ``run`` resumes it."""
        states = payload["rng_streams"]["workers"]
        if len(states) != len(self._worker_rngs):
            raise ValueError(
                f"checkpoint has {len(states)} worker streams, "
                f"engine has {len(self._worker_rngs)}"
            )
        for rng, state in zip(self._worker_rngs, states):
            rng.bit_generator.state = state
        progress = payload.get("progress")
        if progress and any(progress.get("eval_counts", ())):
            self._resume = {
                "eval_counts": [int(e) for e in progress["eval_counts"]],
                "gen_counts": [int(g) for g in progress["gen_counts"]],
            }
        else:
            self._resume = None

    # ------------------------------------------------------------------
    # the block sweep (one batch generation over one block)
    # ------------------------------------------------------------------
    def _seq_gather(self, ids: np.ndarray, arrays=None) -> tuple[np.ndarray, ...]:
        """Consistent copies of foreign rows of ``arrays`` (default
        ``(s, ct)``) via the seqlock protocol."""
        seq = self._seq
        if arrays is None:
            arrays = (self.pop.s, self.pop.ct)
        outs = tuple(np.empty((ids.size, a.shape[1]), dtype=a.dtype) for a in arrays)
        pending = np.arange(ids.size)
        spins = 0
        while pending.size:
            pids = ids[pending]
            before = seq[pids].copy()
            for out, a in zip(outs, arrays):
                out[pending] = a[pids]
            after = seq[pids]
            ok = (before == after) & (before % 2 == 0)
            if ok.all():
                break
            pending = pending[~ok]
            spins += 1
            if spins > 4:  # pragma: no cover - timing-dependent
                time.sleep(0)  # yield so the writer can finish the row
        return outs

    def _foreign(self, tid: int, ids: np.ndarray, plan: dict | None) -> np.ndarray:
        """Positions in ``ids`` owned by another process' sweep unit."""
        if plan is None:
            return np.flatnonzero(self._block_id[ids] != tid)
        return np.flatnonzero(plan["group_id"][ids] != plan["gid"])

    def _gather_rows(
        self, tid: int, ids: np.ndarray, plan: dict | None = None, arrays=None
    ) -> tuple[np.ndarray, ...]:
        """Copy rows of ``arrays`` (default ``(s, ct)``); foreign rows
        go through :meth:`_seq_gather`."""
        if arrays is None:
            arrays = (self.pop.s, self.pop.ct)
        outs = tuple(a[ids] for a in arrays)  # fancy indexing copies
        foreign = self._foreign(tid, ids, plan)
        if foreign.size:
            for out, rows in zip(outs, self._seq_gather(ids[foreign], arrays)):
                out[foreign] = rows
        return outs

    def _publish(
        self,
        rows: np.ndarray,
        s_rows: np.ndarray,
        ct_rows: np.ndarray,
        fit_rows: np.ndarray,
        shared_read: np.ndarray | None = None,
    ) -> int:
        """Write accepted children back; boundary rows seqlock-stamped.

        Returns the number of seqlock-stamped (boundary) publications.
        ``shared_read`` overrides the block-granularity visibility mask
        (fused sweep units stamp only rows some *other process* reads).
        """
        pop, seq = self.pop, self._seq
        mask = self._shared_read if shared_read is None else shared_read
        shared = mask[rows]
        sh = np.flatnonzero(shared)
        if sh.size:
            srows = rows[sh]
            seq[srows] += 1  # odd: readers retry these rows
            pop.s[srows] = s_rows[sh]
            pop.ct[srows] = ct_rows[sh]
            pop.fitness[srows] = fit_rows[sh]
            seq[srows] += 1  # even: rows consistent again
        pr = np.flatnonzero(~shared)
        if pr.size:
            prows = rows[pr]
            pop.s[prows] = s_rows[pr]
            pop.ct[prows] = ct_rows[pr]
            pop.fitness[prows] = fit_rows[pr]
        return int(sh.size)

    def _step_block(self, tid: int, rng: np.random.Generator, rec=None) -> int:
        """Breed block ``tid`` once with :func:`repro.kernels.breed.breed`
        and publish the accepted children; returns the number of
        seqlock-stamped (boundary) publications.

        ``rec`` is the worker's private metric recorder.  The second
        parent's genome is gathered alone, but still through the seqlock,
        so a torn half-written permutation never enters a crossover.

        When :meth:`_run_free` collapsed oversubscribed workers, ``tid``
        is a group leader and the sweep covers the group's fused cells
        (``self._plans[tid]``) in one batch.
        """
        plan = self._plans.get(tid) if self._plans is not None else None
        if plan is None:
            block, nb, shared_read = self.blocks[tid], self._nb_blocks[tid], None
        else:
            block, nb, shared_read = plan["cells"], plan["nb"], plan["shared"]
        pop = self.pop
        child_s, child_ct, child_fit, accept = breed(
            self._batch, self.config, self.instance, rng, block, nb, pop.fitness,
            lambda ids: self._gather_rows(tid, ids, plan),
            lambda ids: self._gather_rows(tid, ids, plan, (pop.s,))[0],
            rec,
        )
        acc = np.flatnonzero(accept)
        if not acc.size:
            return 0
        return self._publish(
            block[acc], child_s[acc], child_ct[acc], child_fit[acc], shared_read
        )

    # ------------------------------------------------------------------
    def run(self, stop: StopCondition) -> RunResult:
        """Evolve all blocks until ``stop``; unlink the segments after."""
        resume, self._resume = self._resume, None
        n = self.config.n_threads
        self._eval_counts = list(resume["eval_counts"]) if resume else [0] * n
        self._gen_counts = list(resume["gen_counts"]) if resume else [0] * n
        self._n_procs = 0  # reported only by free-running runs
        try:
            if self.lockstep:
                return self._run_lockstep(stop)
            return self._run_free(stop)
        finally:
            self._plans = None
            self._arena.unlink()

    def _result(self, budget: Budget) -> RunResult:
        eval_counts, gen_counts = self._eval_counts, self._gen_counts
        best_idx, best_fit = self.pop.best()
        result = RunResult(
            best_fitness=best_fit,
            best_assignment=self.pop.s[best_idx].copy(),
            evaluations=sum(eval_counts),
            generations=min(gen_counts) if gen_counts else 0,
            elapsed_s=budget.elapsed,
            history=[],
            extra={
                "per_thread_evaluations": list(eval_counts),
                "per_thread_generations": list(gen_counts),
                "n_threads": self.config.n_threads,
                "lockstep": self.lockstep,
                "boundary_cells": int(self._shared_read.sum()),
                **(
                    {"worker_processes": self._n_procs} if self._n_procs else {}
                ),
            },
        )
        return finish_run(
            self,
            result,
            engine_name=self.engine_name,
            meta={"n_threads": self.config.n_threads},
        )

    # ------------------------------------------------------------------
    def _run_lockstep(self, stop: StopCondition) -> RunResult:
        """Deterministic serialized mode: round-robin block sweeps."""
        n = self.config.n_threads
        budget = Budget(stop)
        share = budget.eval_share(n)
        evals, gens = self._eval_counts, self._gen_counts
        board = attach_runtime(self, n, lambda: (min(gens), sum(evals)))
        obs = self.obs
        # per-block recorders: lockstep runs in one process, so the
        # workers' sweep/boundary/attribution metrics land directly in
        # the parent registry (free-running ships them over the queue)
        recs = [obs.recorder(str(tid)) for tid in range(n)] if obs is not None else None
        budget.start()
        rounds = 0
        try:
            active = [True] * n
            while any(active):
                for tid in range(n):
                    if not active[tid]:
                        continue
                    if budget.worker_exhausted(evals[tid], gens[tid], share):
                        active[tid] = False
                        if board is not None:
                            board.mark_done(tid)
                        continue
                    rec = recs[tid] if recs is not None else None
                    pubs = self._step_block(tid, self._worker_rngs[tid], rec)
                    evals[tid] += self.blocks[tid].size
                    gens[tid] += 1
                    if rec is not None:
                        rec.inc("boundary_evals", self._boundary_per_sweep[tid])
                        rec.inc("boundary_publishes", pubs)
                    if board is not None:
                        board.beat(tid)
                rounds += 1
                if obs is not None:
                    obs.flight_event("sweep", "round", float(rounds))
                    total = sum(evals)
                    if self.sampler_due(total):
                        obs.maybe_sample(
                            total, lambda: obs.engine_row(self, min(gens), total)
                        )
                if self._ckpt is not None and rounds % self._ckpt[0] == 0 and any(active):
                    self._ckpt[1](self)
                    if obs is not None:
                        obs.flight_event("checkpoint", value=float(rounds))
        finally:
            detach_runtime(self, board)
        return self._result(budget)

    # ------------------------------------------------------------------
    def _free_plan(self, n_procs: int) -> tuple[list[list[int]], dict | None]:
        """Group the ``n_threads`` blocks into ``n_procs`` sweep units.

        Returns ``(groups, plans)``: ``groups[g]`` is the list of block
        ids process ``g`` owns; ``plans`` (None when every group is a
        singleton) maps each group's *leader* block id to the fused
        sweep structures :meth:`_step_block` consumes — concatenated
        cells, stacked neighbor table, group ownership for the gathers,
        and the group-granularity shared-read mask so only rows some
        other process reads pay seqlock stamps.
        """
        n = self.config.n_threads
        groups = [
            [int(t) for t in g] for g in np.array_split(np.arange(n), n_procs)
        ]
        if n_procs == n:
            return groups, None
        fused = [np.concatenate([self.blocks[t] for t in g]) for g in groups]
        group_id, group_shared = partition_ownership(
            self.neighbors, fused, self.grid.size
        )
        plans = {}
        for gid, g in enumerate(groups):
            crosses = (group_id[self.neighbors[fused[gid]]] != gid).any(axis=1)
            plans[g[0]] = {
                "gid": gid,
                "cells": fused[gid],
                "nb": np.vstack([self._nb_blocks[t] for t in g]),
                "group_id": group_id,
                "shared": group_shared,
                "boundary": int(crosses.sum()),
            }
        return groups, plans

    def _run_free(self, stop: StopCondition) -> RunResult:
        """Free-running forked workers (the paper's concurrent execution).

        Always forks — even at ``n_threads=1`` — so measured rates are
        comparable across worker counts (the speedup benchmark divides
        them) and the lifecycle is exercised identically.  Workers
        beyond the core count are collapsed into fused-batch processes
        (module docstring) unless ``oversubscribe`` is set.
        """
        n = self.config.n_threads
        budget = Budget(stop)
        share = budget.eval_share(n)
        oversub = self.oversubscribe or (
            os.environ.get("REPRO_SHM_OVERSUBSCRIBE") == "1"
        )
        n_procs = n if oversub else min(n, os.cpu_count() or 1)
        groups, plans = self._free_plan(n_procs)
        self._plans = plans
        self._n_procs = n_procs
        gid_of_tid = {t: gid for gid, g in enumerate(groups) for t in g}
        mp = self._mpctx
        eval_counts = mp.RawArray("l", n)
        gen_counts = mp.RawArray("l", n)
        beats = mp.RawArray("l", n)
        done = mp.RawArray("b", n)
        for tid in range(n):
            eval_counts[tid] = self._eval_counts[tid]
            gen_counts[tid] = self._gen_counts[tid]
        obs = self.obs
        telemetry_q = mp.SimpleQueue() if obs is not None else None
        board = attach_runtime(
            self,
            n,
            lambda: (None, int(sum(eval_counts))),
            counters=beats,
            done=done,
        )
        watchdog = None
        if self.stall_kill_s is not None:
            from repro.obs.watchdog import HeartbeatBoard, Watchdog

            watchdog = Watchdog(
                HeartbeatBoard(n, counters=beats, done=done),
                deadline_s=self.stall_kill_s,
            )
        budget.start()
        t0 = time.perf_counter()

        # fault injection for the post-mortem e2e/CI smoke: worker
        # REPRO_SHM_CRASH_WORKER raises after REPRO_SHM_CRASH_AFTER sweeps
        crash_tid = int(os.environ.get("REPRO_SHM_CRASH_WORKER", "-1"))
        crash_after = int(os.environ.get("REPRO_SHM_CRASH_AFTER", "3"))

        def body(gid: int, scope) -> None:
            members = groups[gid]
            lead = members[0]
            rng = self._worker_rngs[lead]
            rec = tracer = None
            if obs is not None:
                from repro.obs.metrics import MetricRecorder
                from repro.obs.trace import ThreadTracer

                rec = MetricRecorder(str(lead))
                tracer = ThreadTracer(lead, t0) if obs.tracer is not None else None
            sizes = [self.blocks[t].size for t in members]
            if plans is None:
                boundary_size = self._boundary_per_sweep[lead]
            else:
                boundary_size = plans[lead]["boundary"]
            # members are a contiguous tid range (np.array_split), so
            # the shared progress arrays update with slice stores — one
            # ctypes call per array per sweep, not one per member
            lo, hi = lead, members[-1] + 1
            evals_m = [int(eval_counts[t]) for t in members]
            gens_m = [int(gen_counts[t]) for t in members]
            beats_m = [int(beats[t]) for t in members]
            start_gens = gens_m[0]
            crash_here = crash_tid in members
            perf = time.perf_counter
            while not all(
                budget.worker_exhausted(e, g, share)
                for e, g in zip(evals_m, gens_m)
            ):
                sweep_start = perf()
                pubs = self._step_block(lead, rng, rec)
                for i, sz in enumerate(sizes):
                    evals_m[i] += sz
                    gens_m[i] += 1
                    beats_m[i] += 1
                eval_counts[lo:hi] = evals_m
                gen_counts[lo:hi] = gens_m
                beats[lo:hi] = beats_m
                gens = gens_m[0]
                if scope is not None:
                    scope.record("sweep", f"pubs={pubs}", float(gens))
                if rec is not None:
                    sweep_end = perf()
                    rec.observe("sweep_us", (sweep_end - sweep_start) * 1e6)
                    rec.inc("boundary_evals", boundary_size)
                    rec.inc("boundary_publishes", pubs)
                    if tracer is not None:
                        tracer.complete(
                            "sweep",
                            sweep_start - t0,
                            sweep_end - sweep_start,
                            {"generation": gens},
                        )
                if crash_here and gens - start_gens >= crash_after:
                    raise RuntimeError(
                        f"injected crash in shm worker {crash_tid} "
                        "(REPRO_SHM_CRASH_WORKER)"
                    )
            for t in members:
                done[t] = 1  # budget exhausted != stalled
            if scope is not None:
                scope.record("budget.done", value=float(gens_m[0]))
            if rec is not None:
                telemetry_q.put(
                    (lead, rec.snapshot(), tracer.events if tracer is not None else [])
                )

        def worker(gid: int) -> None:
            if obs is not None:
                # per-process observability (flight ring, crash hooks,
                # resource/stack samplers) must be built post-fork so it
                # observes this worker, not the parent
                with obs.process_scope(f"w{groups[gid][0]}") as scope:
                    body(gid, scope)
            else:
                body(gid, None)

        procs = [
            mp.Process(
                target=worker, args=(gid,), name=f"pacga-shm-w{groups[gid][0]}"
            )
            for gid in range(n_procs)
        ]
        def drain_telemetry() -> None:
            # Drain while workers are still alive, not just after join: a
            # finishing worker blocks in telemetry_q.put() once the end-of-run
            # payload (metrics snapshot + per-sweep trace events) outgrows the
            # pipe buffer, so a join-first parent deadlocks on long runs.
            if obs is None:
                return
            while not telemetry_q.empty():
                tid, snapshot, events = telemetry_q.get()
                from repro.obs.metrics import MetricRecorder

                obs.registry.adopt(MetricRecorder.from_snapshot(snapshot))
                if obs.tracer is not None:
                    obs.tracer.adopt(tid, events, f"pacga-shm-w{tid}")

        stalled = None
        try:
            for p in procs:
                p.start()
            while alive := [p.sentinel for p in procs if p.is_alive()]:
                drain_telemetry()
                if obs is not None:
                    total = int(sum(eval_counts))
                    if self.sampler_due(total):
                        try:
                            obs.maybe_sample(
                                total, lambda: obs.engine_row(self, 0, total)
                            )
                        except Exception as exc:
                            # the parent samples the shared arena while
                            # workers mutate it — a torn read must not
                            # kill an otherwise healthy run
                            obs.flight_event("sample.error", repr(exc)[:36])
                if watchdog is not None:
                    stalled = next(
                        (ev for ev in watchdog.poll() if not ev.recovered), None
                    )
                    if stalled is not None:
                        # escalate before killing: ask the stalled
                        # worker to dump its own stacks (its SIGUSR1
                        # handler, installed by the flight scope) so the
                        # evidence lands in the bundle before terminate
                        lead = groups[gid_of_tid[stalled.worker]][0]
                        self._capture_stalled_stacks(
                            procs[gid_of_tid[stalled.worker]], f"w{lead}", stalled
                        )
                        for p in procs:
                            if p.is_alive():
                                p.terminate()
                        break
                # live sentinels only: an exited one is always ready (spin)
                wait_for_sentinels(alive, timeout=0.02)
            for p in procs:
                p.join()
            if stalled is not None:
                if obs is not None:
                    obs.meta.setdefault(
                        "interrupted_by",
                        {
                            "role": f"w{stalled.worker}",
                            "pid": procs[gid_of_tid[stalled.worker]].pid,
                            "reason": "stall",
                            "stalled_s": round(stalled.stalled_s, 3),
                        },
                    )
                raise RuntimeError(
                    f"shm worker {stalled.worker} stalled for "
                    f"{stalled.stalled_s:.1f}s (heartbeat {stalled.heartbeat}); "
                    "worker group terminated"
                )
            failed = [
                (groups[gid][0], p)
                for gid, p in enumerate(procs)
                if p.exitcode != 0
            ]
            if failed:
                if obs is not None:
                    tid0, p0 = failed[0]
                    obs.meta.setdefault(
                        "interrupted_by",
                        {"role": f"w{tid0}", "pid": p0.pid, "exitcode": p0.exitcode},
                    )
                raise RuntimeError(
                    f"shm workers failed: {[p.name for _, p in failed]}"
                )
        except BaseException:
            if obs is not None:
                obs.stop_runtime()
            raise
        self._eval_counts = [int(e) for e in eval_counts]
        self._gen_counts = [int(g) for g in gen_counts]

        if obs is not None:
            drain_telemetry()
            obs.stop_runtime()
        return self._result(budget)

    def _capture_stalled_stacks(self, victim, role, stalled, wait_s: float = 1.5) -> None:
        """Stall escalation: SIGUSR1 the stalled worker, wait for its dump.

        ``victim`` is the process hosting the stalled block, ``role``
        its flight-scope role (the group leader's ``w<tid>``).  The
        worker's signal handler appends an all-thread stack dump to
        ``flight/stacks-<role>.txt``; the parent waits (bounded) for
        that file so the capture lands in the bundle *before* the group
        is terminated.  No-op without flight recording or when the
        worker is already gone.
        """
        obs = self.obs
        if obs is None or not obs.flight_enabled:
            return
        if not victim.is_alive() or victim.pid is None:
            return
        from repro.obs.flight import flight_paths

        stacks_path = flight_paths(obs.out, role)["stacks"]
        before = stacks_path.stat().st_size if stacks_path.exists() else 0
        try:
            import signal as _signal

            os.kill(victim.pid, _signal.SIGUSR1)
        except (ProcessLookupError, OSError):  # pragma: no cover - racing exit
            return
        deadline = time.perf_counter() + wait_s
        while time.perf_counter() < deadline:
            if stacks_path.exists() and stacks_path.stat().st_size > before:
                break
            time.sleep(0.02)
        obs.flight_event("stall", f"w{stalled.worker}", stalled.stalled_s)

    def sampler_due(self, evaluations: int) -> bool:
        """Cheap parent-side cadence check (avoids provider invocation)."""
        return self.obs is not None and self.obs.sampler.due(
            evaluations, self.obs.elapsed()
        )
