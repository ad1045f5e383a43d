"""The shared skeleton of the block-partitioned PA-CGA engines.

:class:`~repro.parallel.threads.ThreadedPACGA` and
:class:`~repro.parallel.shm.ShmBlockPACGA` are one algorithm (the
paper's Algorithm 2) on two substrates: the grid is split into
``n_threads`` blocks, each driven by its own RNG stream and evaluation
share.  :class:`PartitionedEngine` owns everything that does not depend
on the substrate — the checkpoint protocol, the per-worker counters and
their resume, the result, and the deterministic ``lockstep`` run loop.
A subclass supplies its constructor, one block sweep
(``_step_block(tid, rng, rec)``) and its free-running loop
(``_run_free(stop)``).
"""

from __future__ import annotations

from repro.cga.config import StopCondition
from repro.cga.engine import RunResult
from repro.cga.hooks import as_hooks
from repro.runtime.budget import Budget
from repro.runtime.context import attach_runtime, detach_runtime, finish_run

__all__ = ["PartitionedEngine"]


class PartitionedEngine:
    """Checkpoint protocol, counters, result and lockstep loop of the
    block-partitioned engines; ``ctx`` is the engine's
    :class:`~repro.runtime.context.RunContext` (``workers=n_threads``)."""

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
        self._init_rng, self._worker_rngs = ctx.init_rng, ctx.worker_rngs
        self.pop = ctx.pop
        #: does cell idx's neighborhood leave its own block?
        self.crosses = ctx.crosses
        #: boundary breeding steps per sweep of each block (cells whose
        #: neighborhood leaves the block), recorded as ``boundary_evals``
        self._boundary_per_sweep = [int(self.crosses[b].sum()) for b in self.blocks]
        self.obs = ctx.obs
        n = self.config.n_threads
        self._eval_counts = [0] * n
        self._gen_counts = [0] * n
        self._resume: dict | None = None
        self._ckpt = None

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
    def run(self, stop: StopCondition) -> RunResult:
        """Algorithm 2: parallel block evolution until ``stop``.

        Wall-time, generation and evaluation budgets are supported; the
        evaluation budget is split evenly across workers (each checks
        its share after a full block sweep, mirroring the paper's
        "check the time after evolving the whole block"
        approximation).
        """
        resume, self._resume = self._resume, None
        n = self.config.n_threads
        self._eval_counts = list(resume["eval_counts"]) if resume else [0] * n
        self._gen_counts = list(resume["gen_counts"]) if resume else [0] * n
        if self.lockstep:
            return self._run_lockstep(stop)
        return self._run_free(stop)

    def _result(self, budget: Budget, **extra) -> RunResult:
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
                **extra,
            },
        )
        return finish_run(
            self, result, engine_name=self.engine_name,
            meta={"n_threads": self.config.n_threads},
        )

    def _run_lockstep(self, stop: StopCondition) -> RunResult:
        """Deterministic serialized mode: round-robin block sweeps.

        Workers act in block order, one full block sweep per turn, in
        the calling thread, so the interleaving (and therefore the run)
        is a pure function of the seed.  Budget semantics match the
        free-running mode: per-worker evaluation shares, checked at
        sweep boundaries.
        """
        n = self.config.n_threads
        budget = Budget(stop)
        share = budget.eval_share(n)
        evals, gens = self._eval_counts, self._gen_counts
        board = attach_runtime(self, n, lambda: (min(gens), sum(evals)))
        obs = self.obs
        # per-block recorders: lockstep runs in one process, so the
        # workers' metrics land directly in the parent registry
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
                    self._step_block(tid, self._worker_rngs[tid], rec)
                    evals[tid] += self.blocks[tid].size
                    gens[tid] += 1
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

    def sampler_due(self, evaluations: int) -> bool:
        """Cheap parent-side cadence check (avoids provider invocation)."""
        return self.obs is not None and self.obs.sampler.due(
            evaluations, self.obs.elapsed()
        )
