"""PA-CGA on real OS threads (the paper's architecture, §3.2).

The population is partitioned into contiguous row-major blocks, one per
thread; every thread sweeps its block in fixed line order with *no*
generation barrier, and per-individual RW locks make cross-block
neighborhood access safe — exactly Algorithms 2 and 3.

CPython note: the GIL serializes the pure-Python breeding loop, so this
engine demonstrates correctness under true concurrency (races would
corrupt the CT invariants, and the test suite checks they never do) but
not wall-clock speedup; use :class:`repro.parallel.shm.ShmBlockPACGA`
for real parallelism or :class:`repro.parallel.simengine.SimulatedPACGA`
for the paper's performance model.

Run loops: both live in the skeleton shared with shm and the simulator,
:class:`~repro.parallel.partitioned.PartitionedEngine`; this module
supplies the block sweep, its timed locks and the worker start.

Observability: pass ``obs=repro.obs.Observer(...)`` and every worker
gets a private metric recorder (sweeps, sweep latency, boundary
evaluations) and the skeleton's :class:`~repro.obs.dynamics.StepTally`.
Every breeding step reports into the tally, which records the
``breeding.*``/``op.*``/``ls.*`` counters once per sweep.  One step in
eight is observed in full: its phases are lapped and it takes the
shared per-individual locks through the worker's
:class:`~repro.parallel.rwlock.TimedLocks` view, whose wait/hold totals
are scaled to all steps.  The other seven, and every step with
``obs=None``, run the plain operators and locks.  The parent thread
samples the convergence time series while the workers run.

Determinism: free-running threads are *not* reproducible — the GIL
hands the interpreter between workers at arbitrary bytecode boundaries,
so two runs with the same seed interleave block updates differently.
``lockstep=True`` trades the concurrency for determinism: workers take
turns in thread-id order, one full block sweep per turn, in the calling
thread.  Genetics, budget split and per-thread RNG streams are
identical to the free-running mode; only the interleaving is pinned.
This is the mode the universal checkpoint layer
(:mod:`repro.runtime.checkpoint`) snapshots and resumes bit-exactly.
"""

from __future__ import annotations

import os
import threading

from repro.cga.config import CGAConfig
from repro.cga.engine import evolve_individual
from repro.parallel.partitioned import PartitionedEngine
from repro.parallel.rwlock import LockManager, TimedLocks
from repro.runtime.context import build_context

__all__ = ["ThreadedPACGA"]


class ThreadedPACGA(PartitionedEngine):
    """Parallel asynchronous cellular GA on ``config.n_threads`` threads.

    Parameters
    ----------
    instance:
        ETC instance to schedule.
    config:
        Algorithm parameterization; ``config.n_threads`` blocks are
        created (Table 1 uses 1–4).
    seed:
        Root of the per-thread seed tree (thread ``t`` receives spawn
        ``t``, plus one stream for population init).
    obs:
        Optional :class:`repro.obs.Observer` for run telemetry.  With
        live export or a stall deadline configured on the observer, the
        run additionally publishes ``live.json``/OpenMetrics and runs
        the worker-heartbeat watchdog.
    hooks:
        Optional :class:`~repro.cga.hooks.EngineHooks`; this engine
        dispatches ``on_generation`` (from the run loop's thread),
        ``on_stall`` (from the watchdog monitor thread) and ``on_stop``.
    lockstep:
        Run the workers serialized in deterministic round-robin order
        instead of free-running OS threads (see module docstring).
    """

    engine_name = "threads"

    def __init__(
        self,
        instance,
        config: CGAConfig | None = None,
        seed: int | None = 0,
        obs=None,
        hooks=None,
        lockstep: bool = False,
    ):
        ctx = build_context(
            instance, config, seed=seed, workers=(config or CGAConfig()).n_threads, obs=obs
        )
        super().__init__(instance, ctx, hooks, lockstep)
        self.locks = LockManager(self.grid.size)

    def _tally_locks(self, rec) -> TimedLocks:
        return TimedLocks(self.locks, rec)

    def _step_block(self, tid: int, rng, rec=None) -> None:
        """Sweep block ``tid`` once in its fixed line order.

        With a recorder ``rec`` every step reports into the worker's
        step tally, whose 1-in-8 observed steps are lapped and run under
        the worker's timed locks; the sweep then records itself, its
        boundary breeding steps and the tally.
        """
        tally = self._tally(tid, rec)
        pop, neighbors, ops, locks = self.pop, self.neighbors, self.ops, self.locks
        for idx in self.orders[tid]:
            evolve_individual(pop, int(idx), neighbors[idx], ops, rng, locks, tally)
        if tally is not None:
            self._record_steps(tid, rec, self._boundary_per_sweep[tid])

    def _start_worker(self, gid: int, members, loop) -> "_WorkerThread":
        """Start free-running worker ``gid`` as an OS thread; its metrics
        and trace lane go straight into the observer."""
        worker = _WorkerThread(
            target=loop, args=self._sinks(gid), name=self._worker_name(gid)
        )
        worker.start()
        return worker


class _WorkerThread(threading.Thread):
    """A worker thread with the process-handle surface the supervision
    loop reads: ``exitcode`` (1 with the exception in ``error``),
    ``pid`` and ``terminate`` — a no-op: the halt flag stops a thread."""

    exitcode: int | None = None
    error: BaseException | None = None

    @property
    def pid(self) -> int:
        return os.getpid()

    def run(self) -> None:
        try:
            super().run()
        except BaseException as exc:
            self.error, self.exitcode = exc, 1
        else:
            self.exitcode = 0

    def terminate(self) -> None:
        pass
