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

Observability: pass ``obs=repro.obs.Observer(...)`` and every worker
gets a private metric recorder (evals, sweep latency, boundary reads,
phase timings via instrumented operators), the per-individual locks are
wrapped in a :class:`~repro.parallel.rwlock.TrackedLockManager` for
wait/hold timing, and worker 0 samples the convergence time series.
With ``obs=None`` the original untimed loop runs — the two code paths
are kept separate so the disabled mode costs nothing.

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
from repro.cga.hooks import as_hooks
from repro.parallel.rwlock import LockManager, TrackedLockManager
from repro.runtime.budget import Budget
from repro.runtime.context import (
    attach_runtime,
    build_context,
    detach_runtime,
    finish_run,
)

__all__ = ["ThreadedPACGA"]


class ThreadedPACGA:
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
        self.instance = instance
        self.config = ctx.config
        self.hooks = as_hooks(hooks)
        self.lockstep = lockstep
        self.grid = ctx.grid
        self.neighbors = ctx.neighbors
        self.blocks = ctx.blocks
        self.orders = ctx.orders
        self.ops = ctx.ops
        self._init_rng, self._thread_rngs = ctx.init_rng, ctx.worker_rngs
        self.pop = ctx.pop
        self.locks = LockManager(self.grid.size)
        #: does cell idx's neighborhood leave its own block?
        self.crosses = ctx.crosses
        n = self.config.n_threads
        self._eval_counts = [0] * n
        self._gen_counts = [0] * n
        self._resume: dict | None = None
        self._ckpt = None
        self.obs = ctx.obs
        if self.obs is not None:
            # lock wait/hold timing routes to each acquiring thread's
            # private recorder (bound in the worker)
            self.locks = TrackedLockManager(self.locks)

    # ------------------------------------------------------------------
    # checkpoint protocol (runtime.checkpoint)
    # ------------------------------------------------------------------
    def arm_checkpoint(self, every, saver) -> None:
        """Install a round-boundary checkpoint callback (lockstep only)."""
        if saver is not None and not self.lockstep:
            raise ValueError(
                "mid-run checkpoints require lockstep=True: free-running "
                "threads interleave nondeterministically and cannot be "
                "snapshotted at a consistent boundary"
            )
        self._ckpt = None if saver is None else (every, saver)

    def capture_state(self) -> dict:
        """Per-thread RNG streams plus the cumulative worker counters."""
        return {
            "rng_streams": {
                "workers": [r.bit_generator.state for r in self._thread_rngs]
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
        if len(states) != len(self._thread_rngs):
            raise ValueError(
                f"checkpoint has {len(states)} worker streams, "
                f"engine has {len(self._thread_rngs)}"
            )
        for rng, state in zip(self._thread_rngs, states):
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
    def run(self, stop: StopCondition) -> RunResult:
        """Algorithm 2: parallel block evolution until ``stop``.

        Wall-time and evaluation budgets are supported; the evaluation
        budget is split evenly across threads (each thread checks its
        share after a full block sweep, mirroring the paper's
        "check the time after evolving the whole block" approximation).
        """
        resume, self._resume = self._resume, None
        n = self.config.n_threads
        self._eval_counts = list(resume["eval_counts"]) if resume else [0] * n
        self._gen_counts = list(resume["gen_counts"]) if resume else [0] * n
        if self.lockstep:
            return self._run_lockstep(stop)
        return self._run_free(stop)

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
            },
        )
        return finish_run(
            self, result, engine_name=self.engine_name,
            meta={"n_threads": self.config.n_threads},
        )

    # ------------------------------------------------------------------
    def _run_lockstep(self, stop: StopCondition) -> RunResult:
        """Deterministic serialized mode: round-robin block sweeps.

        Workers act in thread-id order, one full block sweep per turn,
        so the interleaving (and therefore the run) is a pure function
        of the seed.  Budget semantics match the free-running mode:
        per-worker evaluation shares, checked at sweep boundaries.
        """
        n = self.config.n_threads
        budget = Budget(stop)
        share = budget.eval_share(n)
        evals, gens = self._eval_counts, self._gen_counts
        pop, ops, neighbors, locks = self.pop, self.ops, self.neighbors, self.locks
        board = attach_runtime(self, n, lambda: (min(gens), sum(evals)))
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
                    rng = self._thread_rngs[tid]
                    for idx in self.orders[tid]:
                        evolve_individual(pop, int(idx), neighbors[idx], ops, rng, locks)
                        evals[tid] += 1
                    gens[tid] += 1
                    if board is not None:
                        board.beat(tid)
                rounds += 1
                if self._ckpt is not None and rounds % self._ckpt[0] == 0 and any(active):
                    self._ckpt[1](self)
        finally:
            detach_runtime(self, board)
        return self._result(budget)

    # ------------------------------------------------------------------
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
            block = self.orders[tid]
            rng = self._thread_rngs[tid]
            pop, ops, neighbors, locks = self.pop, self.ops, self.neighbors, self.locks
            evals = eval_counts[tid]
            gens = gen_counts[tid]
            while not budget.worker_exhausted(evals, gens, eval_share):
                for idx in block:
                    evolve_individual(pop, int(idx), neighbors[idx], ops, rng, locks)
                    evals += 1
                gens += 1
            eval_counts[tid] = evals
            gen_counts[tid] = gens

        def instrumented_worker(tid: int) -> None:
            from repro.obs.instrument import instrumented_ops

            block = self.orders[tid]
            rng = self._thread_rngs[tid]
            pop, neighbors = self.pop, self.neighbors
            rec = obs.recorder(tid)
            # the bound view skips the thread-local lookup per acquisition
            locks = self.locks.bind(rec)
            ops = instrumented_ops(self.ops, rec)
            tracer = obs.thread_tracer(tid, f"pacga-{tid}")
            crosses = self.crosses
            perf = time.perf_counter
            evals = eval_counts[tid]
            gens = gen_counts[tid]
            boundary = 0
            while not budget.worker_exhausted(evals, gens, eval_share):
                sweep_start = perf()
                for idx in block:
                    i = int(idx)
                    evolve_individual(pop, i, neighbors[i], ops, rng, locks)
                    evals += 1
                    if crosses[i]:
                        boundary += 1
                sweep_end = perf()
                gens += 1
                if board is not None:
                    board.beat(tid)
                rec.observe("sweep_us", (sweep_end - sweep_start) * 1e6)
                rec.inc("sweeps")
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
            rec.counters["boundary_evals"] = rec.counters.get("boundary_evals", 0.0) + boundary
            locks.flush()  # publish this thread's buffered lock wait/hold totals
            if board is not None:
                board.mark_done(tid)  # budget exhausted != stalled
            eval_counts[tid] = evals
            gen_counts[tid] = gens

        target = worker if obs is None else instrumented_worker
        threads = [
            threading.Thread(target=target, args=(tid,), name=f"pacga-{tid}")
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
