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

Only cells some *other* sweep unit reads (the boundary set computed by
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

Run loops: the checkpoint protocol, counter resume, result and the
``lockstep`` loop are the shared partitioned skeleton
:class:`~repro.parallel.partitioned.PartitionedEngine` (shared with the
threads engine); this module supplies the sweep of one unit
``_step_block`` (which also records
``boundary_evals``/``boundary_publishes``) and the forked free-running
loop ``_run_free``.

Sweep units
-----------
A sweep unit (:class:`_SweepUnit`) is what one process breeds as one
batch: its cells, their stacked neighbor table, the cell -> unit owner
map (a neighbor owned by another unit is gathered through the seqlock)
and the mask of rows another unit reads (published with stamps).  The
constructor builds one unit per block, which lockstep and the full
one-process-per-block fan-out breed; collapsed workers (below) breed
one unit per group of blocks.

Worker collapse on oversubscribed hosts
---------------------------------------
Forking more workers than the machine has cores cannot add
parallelism — it only shrinks each worker's batch from ``pop/N`` rows
toward zero while every sweep still pays the same fixed Python/numpy
kernel-dispatch cost (the ``shm(4) < shm(1)`` throughput anomaly on
single-core boxes).  Free-running mode therefore forks only
``min(n_threads, cpu_count)`` processes and hands each one a
contiguous *group* of blocks that it breeds as a single sweep unit:
block ownership, budget shares and per-worker counters keep the
configured ``n_threads`` granularity, but the kernel batch stays at
``pop/n_procs`` rows, so the per-sweep fixed cost is paid once per
process instead of once per logical worker.  On a machine with enough
cores every group is one block, so the units are the per-block ones.
Pass ``oversubscribe=True`` (or set ``REPRO_SHM_OVERSUBSCRIBE=1``) to force
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
from typing import NamedTuple

import numpy as np

from repro.cga.config import CGAConfig, StopCondition
from repro.cga.engine import RunResult
from repro.kernels import resolve_batch_ops
from repro.kernels.breed import breed
from repro.parallel.partitioned import PartitionedEngine
from repro.runtime.budget import Budget
from repro.runtime.context import attach_runtime, build_context, partition_ownership

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


class _SweepUnit(NamedTuple):
    """What one process breeds as one batch (module docstring)."""

    #: this unit's id in ``owner``
    gid: int
    #: the unit's cells, member blocks in order
    cells: np.ndarray
    #: neighbor table of ``cells``
    nb: np.ndarray
    #: cell -> owning unit id (shared by all units of one partition)
    owner: np.ndarray
    #: cells some other unit reads: published with seqlock stamps
    shared: np.ndarray
    #: breeding steps per sweep whose neighborhood leaves the unit
    boundary: int


class ShmBlockPACGA(PartitionedEngine):
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
        super().__init__(instance, ctx, hooks, lockstep)
        self.stall_kill_s = stall_kill_s
        self.oversubscribe = oversubscribe
        self._batch = resolve_batch_ops(self.config, problem=self.pop.problem)
        self._seq = arrays["seq"]
        #: one sweep unit per block; collapsed free-running workers
        #: breed the group units :meth:`_run_free` builds instead
        self._units = self._sweep_units([[t] for t in range(cfg.n_threads)])
        self._boundary_cells = int(self._units[0].shared.sum())
        self._n_procs = 0
        self._finalizer = weakref.finalize(self, self._arena.unlink)

    # ------------------------------------------------------------------
    # the unit sweep (one batch generation over one sweep unit)
    # ------------------------------------------------------------------
    def _sweep_units(self, groups: list[list[int]]) -> list[_SweepUnit]:
        """One sweep unit per group of block ids, with ownership and
        seqlock visibility at group granularity."""
        cells = [np.concatenate([self.blocks[t] for t in g]) for g in groups]
        owner, shared = partition_ownership(self.neighbors, cells, self.grid.size)
        units = []
        for gid, unit_cells in enumerate(cells):
            nb = self.neighbors[unit_cells]
            boundary = int((owner[nb] != gid).any(axis=1).sum())
            units.append(_SweepUnit(gid, unit_cells, nb, owner, shared, boundary))
        return units

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

    def _gather_rows(
        self, unit: _SweepUnit, ids: np.ndarray, arrays=None
    ) -> tuple[np.ndarray, ...]:
        """Copy rows of ``arrays`` (default ``(s, ct)``); rows another
        unit owns go through :meth:`_seq_gather`."""
        if arrays is None:
            arrays = (self.pop.s, self.pop.ct)
        outs = tuple(a[ids] for a in arrays)  # fancy indexing copies
        foreign = np.flatnonzero(unit.owner[ids] != unit.gid)
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
        shared_read: np.ndarray,
    ) -> int:
        """Write accepted children back; rows set in ``shared_read``
        (read by another unit) are seqlock-stamped.

        Returns the number of seqlock-stamped (boundary) publications.
        """
        pop, seq = self.pop, self._seq
        shared = shared_read[rows]
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
        """Breed sweep unit ``tid`` once with
        :func:`repro.kernels.breed.breed` and publish the accepted
        children; returns the number of seqlock-stamped (boundary)
        publications.

        ``tid`` indexes ``self._units``: a block id, or a group id in a
        collapsed worker (:meth:`_run_free`).  ``rec`` is the worker's
        private metric recorder; besides the breeding telemetry it
        receives the sweep's ``boundary_evals`` and
        ``boundary_publishes``.  The second parent's genome is gathered
        alone, but still through the seqlock, so a torn half-written
        permutation never enters a crossover.
        """
        unit = self._units[tid]
        pop = self.pop
        child_s, child_ct, child_fit, accept = breed(
            self._batch, self.config, self.instance, rng, unit.cells, unit.nb,
            pop.fitness,
            lambda ids: self._gather_rows(unit, ids),
            lambda ids: self._gather_rows(unit, ids, (pop.s,))[0],
            rec,
        )
        acc = np.flatnonzero(accept)
        pubs = 0
        if acc.size:
            pubs = self._publish(
                unit.cells[acc], child_s[acc], child_ct[acc], child_fit[acc],
                unit.shared,
            )
        if rec is not None:
            rec.inc("boundary_evals", unit.boundary)
            rec.inc("boundary_publishes", pubs)
        return pubs

    # ------------------------------------------------------------------
    def run(self, stop: StopCondition) -> RunResult:
        """Evolve all blocks until ``stop``; unlink the segments after."""
        self._n_procs = 0  # reported only by free-running runs
        try:
            return super().run(stop)
        finally:
            self._arena.unlink()

    def _result(self, budget: Budget) -> RunResult:
        extra = {"boundary_cells": self._boundary_cells}
        if self._n_procs:
            extra["worker_processes"] = self._n_procs
        return super()._result(budget, **extra)

    # ------------------------------------------------------------------
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
        groups = [
            [int(t) for t in g] for g in np.array_split(np.arange(n), n_procs)
        ]
        units = self._units if n_procs == n else self._sweep_units(groups)
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
            # this forked process breeds units[gid]; the parent keeps
            # its one-unit-per-block table
            self._units = units
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
                pubs = self._step_block(gid, rng, rec)
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
