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

Run loops: the checkpoint protocol, counter resume, result and the
deterministic ``lockstep`` loop live in the shared partitioned skeleton
:class:`~repro.parallel.partitioned.PartitionedEngine` (shared with the
shm engine); this module supplies one block sweep (``_step_block``) and
the free-running OS-thread loop (``_run_free``).

Observability: pass ``obs=repro.obs.Observer(...)`` and every worker
gets a private metric recorder (sweeps, sweep latency, boundary
evaluations) and a private :class:`~repro.obs.dynamics.StepTally`.
Every breeding step reports into the tally, which records the
``breeding.*``/``op.*``/``ls.*`` counters once per sweep.  One step in
eight is observed in full: its phases are lapped and it takes the
shared per-individual locks through the worker's
:class:`~repro.parallel.rwlock.TimedLocks` view, whose wait/hold totals
are scaled to all steps.  The other seven, and every step with
``obs=None``, run the plain operators and locks.  Worker 0 samples the
convergence time series.

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

import threading
import time

from repro.cga.config import CGAConfig, StopCondition
from repro.cga.engine import RunResult, evolve_individual
from repro.parallel.partitioned import PartitionedEngine
from repro.parallel.rwlock import LockManager, TimedLocks
from repro.runtime.budget import Budget
from repro.runtime.context import attach_runtime, build_context, detach_runtime

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
        dispatches ``on_stall`` (from the
        watchdog monitor thread) and ``on_stop``.
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
        #: per-worker step tally (with its timed lock view), built on
        #: the worker's first observed sweep
        self._obs_views: dict = {}

    def _step_block(self, tid: int, rng, rec=None) -> None:
        """Sweep block ``tid`` once in its fixed line order.

        With a recorder ``rec`` every step reports into the worker's
        step tally (built once per worker), whose 1-in-8 observed steps
        are lapped and run under the worker's timed locks; the sweep
        then records itself, its boundary breeding steps and the tally.
        """
        tally = None
        if rec is not None:
            tally = self._obs_views.get(tid)
            if tally is None:
                from repro.obs.dynamics import StepTally

                tally = self._obs_views[tid] = StepTally(
                    rec, self.ops, TimedLocks(self.locks, rec)
                )
        pop, neighbors, ops, locks = self.pop, self.neighbors, self.ops, self.locks
        for idx in self.orders[tid]:
            evolve_individual(pop, int(idx), neighbors[idx], ops, rng, locks, tally)
        if tally is not None:
            rec.inc("sweeps")
            rec.inc("boundary_evals", self._boundary_per_sweep[tid])
            tally.flush()

    def _run_free(self, stop: StopCondition) -> RunResult:
        """Free-running OS threads (the paper's concurrent execution)."""
        n = self.config.n_threads
        budget = Budget(stop)
        eval_share = budget.eval_share(n)
        eval_counts, gen_counts = self._eval_counts, self._gen_counts
        obs = self.obs
        evals_live = list(eval_counts)  # sweep-granular, read by the sampler
        board = attach_runtime(self, n, lambda: (None, sum(evals_live)))
        budget.start()

        def worker(tid: int) -> None:
            rng = self._worker_rngs[tid]
            size = self.blocks[tid].size
            rec = obs.recorder(tid) if obs is not None else None
            tracer = obs.thread_tracer(tid, f"pacga-{tid}") if obs is not None else None
            perf = time.perf_counter
            evals = eval_counts[tid]
            gens = gen_counts[tid]
            while not budget.worker_exhausted(evals, gens, eval_share):
                sweep_start = perf()
                self._step_block(tid, rng, rec)
                evals += size
                gens += 1
                if rec is None:
                    continue
                sweep_end = perf()
                if board is not None:
                    board.beat(tid)
                rec.observe("sweep_us", (sweep_end - sweep_start) * 1e6)
                if tracer is not None:
                    tracer.complete(
                        "sweep",
                        sweep_start - obs.epoch,
                        sweep_end - sweep_start,
                        {"generation": gens},
                    )
                evals_live[tid] = evals
                if tid == 0:
                    # a single designated sampler thread: the population
                    # snapshot is read lock-free (approximate by design)
                    total = sum(evals_live)
                    obs.maybe_sample(
                        total, lambda: obs.engine_row(self, gens, total)
                    )
            if board is not None:
                board.mark_done(tid)  # budget exhausted != stalled
            eval_counts[tid] = evals
            gen_counts[tid] = gens

        threads = [
            threading.Thread(target=worker, args=(tid,), name=f"pacga-{tid}")
            for tid in range(n)
        ]
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            # final live.json publish happens after the workers'
            # recorders have quiesced, so live counts == bundle counts
            detach_runtime(self, board)
        return self._result(budget)
