"""Deterministic virtual-time simulation of PA-CGA.

The partitioned skeleton (:class:`~repro.parallel.partitioned.PartitionedEngine`)
with a discrete-event scheduler as its serialized schedule: ``n_threads``
*logical* threads each sweep a block in fixed line order, and a
contention policy of :mod:`repro.parallel.costmodel` charges every
breeding step a modeled duration.  The thread with the smallest virtual
clock always acts next, so a run is a deterministic function of the
seed — yet the interleaving of block updates, the cross-boundary
information flow and the time-budgeted evaluation counts behave like
the paper's real threads.  Everything else (counters, end-of-sweep
accounting with virtual-clock spans, step tallies, generation hook,
checkpoint cadence and payload, result) is the skeleton's; the
scheduler only adds its clocks, positions and policy state to the
payload's ``progress``.

Fidelity notes (matching §3.2/§4.2):

* threads check the time and generation bounds only after a *full
  block sweep*, so they overrun the budget by up to one sweep, exactly
  like the paper's "we accept this approximation";
* neighborhoods cross block boundaries, so a logical thread sees
  offspring written by others mid-sweep (asynchronous model);
* with ``n_threads=1`` the simulation replays the canonical
  asynchronous CGA, sweep for sweep.
"""

from __future__ import annotations

import heapq

from repro.cga.config import CGAConfig
from repro.cga.engine import RunResult, evolve_individual
from repro.parallel.costmodel import (
    CONTENTION_POLICIES,
    XEON_E5440,
    CostModel,
    MeanFieldContention,
)
from repro.parallel.partitioned import PartitionedEngine
from repro.runtime.context import build_context

__all__ = ["SimulatedPACGA"]


class SimulatedPACGA(PartitionedEngine):
    """PA-CGA under a virtual-time discrete-event scheduler.

    Parameters
    ----------
    instance:
        ETC instance to schedule.
    config:
        Algorithm parameterization (``n_threads`` = logical threads).
    seed:
        Seed-tree root; spawns one init stream plus two per logical
        thread (genetics, cost jitter) so changing the cost model never
        perturbs the genetic stream.
    cost_model:
        Virtual platform (default: the calibrated Xeon E5440 model), or
        its fields as a mapping (how a checkpoint records it).
    history_stride:
        Record a history row every this many block completions
        (1 = every completion; raise it for long runs).
    contention:
        How cross-thread synchronization is charged
        (:data:`~repro.parallel.costmodel.CONTENTION_POLICIES`):
        ``"meanfield"`` (default), a calibrated surcharge on every
        boundary-crossing step (Fig. 4), or ``"tracked"``, lock
        bookkeeping in virtual time from which contention emerges
        (DESIGN.md A7 compares both).
    obs:
        Optional :class:`repro.obs.Observer`.  Every logical thread gets
        a recorder, a step tally and a trace lane whose spans carry
        *virtual* clocks; ``tracked`` lock waits land in the
        ``lock.*_wait_s_total`` counters.
    hooks:
        Optional :class:`~repro.cga.hooks.EngineHooks`, fired from the
        scheduler's thread at its round boundaries.
    """

    engine_name = "sim"

    def __init__(
        self,
        instance,
        config: CGAConfig | None = None,
        seed: int | None = 0,
        cost_model: CostModel | dict = XEON_E5440,
        history_stride: int = 1,
        contention: str = "meanfield",
        obs=None,
        hooks=None,
    ):
        if history_stride < 1:
            raise ValueError(f"history_stride must be >= 1, got {history_stride}")
        if contention not in CONTENTION_POLICIES:
            raise ValueError(
                f"contention must be 'meanfield' or 'tracked', got {contention!r}"
            )
        workers = (config or CGAConfig()).n_threads
        ctx = build_context(instance, config, seed=seed, workers=workers, jitter=True, obs=obs)
        # the virtual schedule is serialized and deterministic: lockstep
        super().__init__(instance, ctx, hooks, lockstep=True)
        self.contention = contention
        self.cost_model = (
            CostModel(**cost_model) if isinstance(cost_model, dict) else cost_model
        )
        self.history_stride = history_stride
        self.boundary_fraction = ctx.boundary_fraction
        self._jitter_rngs = ctx.jitter_rngs
        #: the latest run's scheduler state (None before the first run):
        #: per-thread clocks and sweep positions, policy
        self._clocks = self._positions = self._policy = None

    def _streams(self) -> dict:
        # genetics and cost jitter: a new cost model never moves genetics
        return {"gene": self._worker_rngs, "jitter": self._jitter_rngs}

    def _schedule_state(self) -> dict:
        """Once a run started (clocks re-zero at every fresh ``run``):
        its contention policy, the per-thread clocks and sweep positions
        and the policy's state."""
        if self._clocks is None:
            return {}
        return {
            "contention": self.contention,
            "clocks": list(self._clocks),
            "positions": list(self._positions),
            **self._policy.state(),
        }

    # ------------------------------------------------------------------
    # the virtual-clock scheduler
    # ------------------------------------------------------------------
    def _rounds(self, budget, progress, sinks, resume):
        """Breed one cell at a time for the logical thread with the
        smallest virtual clock; yields each time the slowest thread
        finishes a generation.

        ``virtual_time`` bounds every thread's clock and
        ``max_generations`` its sweep count, both checked at sweep
        boundaries; ``max_evaluations`` caps the total exactly.  A
        thread that meets a bound, or finds the run halted, leaves the
        schedule.  History rows go to the skeleton's list, one every
        ``history_stride`` block completions.  A resumed schedule must
        have been captured under the engine's contention policy.
        """
        if resume is not None and resume.get("contention") != self.contention:
            raise ValueError(
                f"checkpoint was taken with contention="
                f"{resume.get('contention')!r}, engine has {self.contention!r}"
            )
        cfg, stop = self.config, budget.stop
        n = cfg.n_threads
        ls_depth = cfg.ls_iterations * cfg.p_ls if cfg.local_search else 0.0
        # one thread has no cross traffic: tracked degenerates to meanfield
        policy_cls = CONTENTION_POLICIES[self.contention] if n > 1 else MeanFieldContention
        policy = self._policy = policy_cls(
            self.cost_model, n, ls_depth, self.crosses, self.neighbors,
            self._jitter_rngs, resume,
        )
        pop, history = self.pop, self._history
        if resume is None:
            clocks, positions = [0.0] * n, [0] * n
            _, best = pop.best()
            history.append((0.0, 0, best, pop.mean_fitness()))
        else:
            clocks = [float(c) for c in resume["clocks"]]
            positions = [int(p) for p in resume["positions"]]
        self._clocks, self._positions = clocks, positions

        evals, gens, halt = progress.evals, progress.gens, progress.halt
        neighbors, ops, rngs = self.neighbors, self.ops, self._worker_rngs
        tallies = [self._tally(tid, rec) for tid, (rec, _) in enumerate(sinks)]
        # the position each thread's tally began at, and its sweep's start
        begun, starts = list(positions), list(clocks)
        vt, max_gen, cap = stop.virtual_time, stop.max_generations, stop.max_evaluations
        heap = [(c, tid) for tid, c in enumerate(clocks)]  # tid breaks ties
        heapq.heapify(heap)
        total = sum(evals)
        mark = min(gens)
        while heap:
            clock, tid = heapq.heappop(heap)
            pos = positions[tid]
            swept = pos == 0 and (
                (vt is not None and clock >= vt)
                or (max_gen is not None and gens[tid] >= max_gen)
            )
            if halt[0] or swept or (cap is not None and total >= cap):
                progress.board.mark_done(tid)
                continue
            if pos == 0:
                starts[tid] = clock
            block = self.orders[tid]
            idx = int(block[pos])
            evolve_individual(pop, idx, neighbors[idx], ops, rngs[tid], tally=tallies[tid])
            clock = clocks[tid] = policy.charge(tid, idx, clock)
            evals[tid] += 1
            total += 1
            pos = positions[tid] = (pos + 1) % len(block)
            if pos == 0:
                rec, tracer = sinks[tid]
                self._sweep_done(
                    (tid,), progress, rec, tracer, starts[tid], clock - starts[tid]
                )
                if rec is not None:
                    self._flush(tid, rec, begun[tid], len(block))
                    begun[tid] = 0
                if sum(gens) % self.history_stride == 0:
                    _, best = pop.best()
                    history.append((total / pop.size, total, best, pop.mean_fitness()))
            heapq.heappush(heap, (clock, tid))
            if pos == 0 and min(gens) > mark:
                mark += 1
                yield True
        # the steps of sweeps a bound cut short
        for tid, (rec, _) in enumerate(sinks):
            if rec is not None:
                self._flush(tid, rec, begun[tid], positions[tid], sweeps=0)

    def _flush(self, tid: int, rec, lo: int, hi: int, sweeps: int = 1) -> None:
        """Record thread ``tid``'s steps at sweep positions ``[lo, hi)``:
        the step tally and the policy's contention telemetry."""
        boundary = int(self.crosses[self.orders[tid][lo:hi]].sum())
        self._record_steps(tid, rec, boundary, sweeps)
        self._policy.flush(tid, rec)

    def _virtual_clock(self) -> float:
        return max(self._clocks)

    def _result(self, budget) -> RunResult:
        clocks = self._clocks
        return super()._result(
            budget,
            meta={"contention": self.contention},
            per_thread_clocks=list(clocks),
            boundary_fraction=self.boundary_fraction,
            virtual_time=budget.stop.virtual_time,
            contention=self.contention,
            **self._policy.extra(),
        )
