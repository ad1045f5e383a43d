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
and unlinked in the run loop's ``finally`` — on normal exit, on any
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

Run loops: both live in the partitioned skeleton shared with threads,
:class:`~repro.parallel.partitioned.PartitionedEngine`; this module
supplies the sweep of one unit (``_step_block``, which also records
``boundary_evals``/``boundary_publishes``), the worker grouping and the
fork.

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
Forking more workers than cores cannot add parallelism — it only
shrinks each batch while every sweep still pays the same fixed
Python/numpy dispatch cost (the ``shm(4) < shm(1)`` anomaly on
single-core boxes).  Free-running mode therefore forks
``min(n_threads, cpu_count)`` processes, each breeding a contiguous
*group* of blocks as one sweep unit; block ownership, budget shares
and per-worker counters keep the ``n_threads`` granularity.
``oversubscribe=True`` (or ``REPRO_SHM_OVERSUBSCRIBE=1``) forces one
process per block — the observability smokes use it to exercise real
multi-process crash/stall attribution anywhere.

``stall_kill_s`` (free-running mode): a worker whose heartbeat does not
advance for that long gets the whole worker group terminated and the
run fails loudly instead of hanging — segments are still unlinked.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import time
import weakref
from contextlib import nullcontext
from multiprocessing import shared_memory
from typing import NamedTuple

import numpy as np

from repro.cga.config import CGAConfig
from repro.cga.engine import RunResult
from repro.kernels import resolve_batch_ops
from repro.kernels.breed import breed
from repro.parallel.partitioned import PartitionedEngine
from repro.runtime.budget import Budget
from repro.runtime.context import build_context, partition_ownership

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
        Optional :class:`~repro.cga.hooks.EngineHooks`; ``on_generation``
        fires in the calling process.
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
        #: breed the group units :meth:`_worker_groups` builds instead
        self._units = self._sweep_units([[t] for t in range(cfg.n_threads)])
        self._boundary_cells = int(self._units[0].shared.sum())
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

    def _gather_rows(
        self, unit: _SweepUnit, ids: np.ndarray, arrays=None
    ) -> tuple[np.ndarray, ...]:
        """Copy rows of ``arrays`` (default ``(s, ct)``).  Rows another
        unit owns follow the seqlock protocol: they are copied again
        until their stamp reads even and unchanged across the copy."""
        if arrays is None:
            arrays = (self.pop.s, self.pop.ct)
        outs = tuple(a[ids] for a in arrays)  # fancy indexing copies
        seq = self._seq
        pending = np.flatnonzero(unit.owner[ids] != unit.gid)
        spins = 0
        while pending.size:
            pids = ids[pending]
            before = seq[pids].copy()
            for out, a in zip(outs, arrays):
                out[pending] = a[pids]
            pending = pending[(before != seq[pids]) | (before % 2 == 1)]
            spins += 1
            if spins > 4:  # pragma: no cover - timing-dependent
                time.sleep(0)  # yield so the writer can finish the row
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
        (read by another unit) are seqlock-stamped around the write.

        Returns the number of seqlock-stamped (boundary) publications.
        """
        pop, seq = self.pop, self._seq
        stamped = rows[shared_read[rows]]
        seq[stamped] += 1  # odd: readers retry these rows
        pop.s[rows] = s_rows
        pop.ct[rows] = ct_rows
        pop.fitness[rows] = fit_rows
        seq[stamped] += 1  # even: rows consistent again
        return int(stamped.size)

    def _step_block(self, tid: int, rng: np.random.Generator, rec=None) -> int:
        """Breed sweep unit ``tid`` once with
        :func:`repro.kernels.breed.breed` and publish the accepted
        children; returns the number of seqlock-stamped (boundary)
        publications.

        ``tid`` indexes ``self._units``: a block id, or a group id in a
        collapsed worker (:meth:`_worker_groups`).  ``rec`` is the worker's
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
    def _detach(self) -> None:
        """Also unlink the segment names; the mappings survive for the
        next ``run``."""
        super()._detach()
        self._arena.unlink()

    def _result(self, budget: Budget) -> RunResult:
        extra = {"boundary_cells": self._boundary_cells}
        if not self.lockstep:  # only free-running runs fork
            extra["worker_processes"] = self._n_procs
        return super()._result(budget, **extra)

    # ------------------------------------------------------------------
    # the free-running fan-out (the loops are PartitionedEngine's)
    # ------------------------------------------------------------------
    def _worker_groups(self) -> list[list[int]]:
        """One contiguous group of blocks per forked process (module
        docstring), with the group sweep units the children breed.  Always
        forks, even at ``n_threads=1``, so rates are comparable across
        worker counts and the lifecycle is the same."""
        n = self.config.n_threads
        oversub = self.oversubscribe or (
            os.environ.get("REPRO_SHM_OVERSUBSCRIBE") == "1"
        )
        n_procs = n if oversub else min(n, os.cpu_count() or 1)
        groups = [
            [int(t) for t in g] for g in np.array_split(np.arange(n), n_procs)
        ]
        self._group_units = self._units if n_procs == n else self._sweep_units(groups)
        self._n_procs = n_procs
        return groups

    def _start_worker(self, gid: int, members, loop):
        """Fork worker ``gid``: it breeds its group's sweep unit under its
        own flight scope, into a private recorder and trace lane shipped
        to the parent at exit.  Fault injection for the post-mortem
        smoke: the worker hosting block ``REPRO_SHM_CRASH_WORKER`` raises
        after ``REPRO_SHM_CRASH_AFTER`` sweeps."""
        obs = self.obs
        lead = members[0]
        crash = int(os.environ.get("REPRO_SHM_CRASH_WORKER", "-1"))
        crash_after = int(os.environ.get("REPRO_SHM_CRASH_AFTER", "3"))
        start_gens = self._gen_counts[lead]

        def body() -> None:
            self._units = self._group_units  # the parent keeps its own
            rec = tracer = None
            if obs is not None:
                from repro.obs.metrics import MetricRecorder
                from repro.obs.trace import ThreadTracer

                rec = MetricRecorder(str(lead))
                if obs.tracer is not None:
                    tracer = ThreadTracer(lead, obs.tracer.epoch)
            # built post-fork, so the flight ring, crash hooks and
            # samplers observe this worker, not the parent
            scope_cm = nullcontext() if obs is None else obs.proc.child(f"w{lead}")
            with scope_cm as scope:

                def after_sweep(pubs: int, gens: int) -> None:
                    if scope is not None:
                        scope.record("sweep", f"pubs={pubs}", float(gens))
                    if crash in members and gens - start_gens >= crash_after:
                        raise RuntimeError(
                            f"injected crash in shm worker {crash} "
                            "(REPRO_SHM_CRASH_WORKER)"
                        )

                gens = loop(rec, tracer, after_sweep)
                if scope is not None:
                    scope.record("budget.done", value=float(gens))

        worker = self._mpctx.Process(target=body, name=self._worker_name(lead))
        worker.start()
        return worker
