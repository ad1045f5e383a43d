"""Sequential cellular GA engines and the shared breeding step.

``evolve_individual`` implements lines 3–9 of Algorithm 3 — it is the
single code path reused by *every* engine in the library (sequential,
threaded, process-based, simulated), so the parallel variants differ
only in scheduling and synchronization, never in genetics.

:class:`AsyncCGA` is the canonical asynchronous CGA of Algorithm 1
(fixed line-sweep, immediate replacement); the paper notes that PA-CGA
with one thread *is* this algorithm.  :class:`SyncCGA` is the
synchronous variant (offspring written to an auxiliary population,
swapped once per generation), used by the async-vs-sync ablation.

Run loop: :meth:`_EngineBase.run` is the one run skeleton of the
sequential engines (async, sync and the vectorized engine in
:mod:`repro.cga.vectorized`) — resume, budget, live runtime and
heartbeat, snapshots, hooks, checkpoints and the result.  Each engine
supplies only ``_generation(budget)``, one generation of breeding.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

import numpy as np

from repro.cga.config import CGAConfig, StopCondition
from repro.cga.crossover import child_with_ct
from repro.cga.hooks import EngineHooks, as_hooks
from repro.cga.population import Population
from repro.runtime.budget import Budget
from repro.runtime.context import (
    attach_runtime,
    build_context,
    detach_runtime,
    finish_run,
)
from repro.runtime.registry import check_stop

__all__ = [
    "EvolutionOps",
    "EngineHooks",
    "NullLocks",
    "RunResult",
    "evolve_individual",
    "AsyncCGA",
    "SyncCGA",
]


@dataclass(frozen=True)
class EvolutionOps:
    """Concrete operator bundle produced by :meth:`CGAConfig.resolve`."""

    fitness: Callable
    select: Callable
    crossover: Callable
    p_comb: float
    mutate: Callable
    p_mut: float
    local_search: Callable | None
    p_ls: float
    ls_iterations: int
    ls_candidates: int | None
    replace: Callable
    #: problem hook applying ``crossover`` and deriving the child's CT;
    #: defaults to the independent-task delta rule so hand-built bundles
    #: keep their historical behavior.
    recombine: Callable = child_with_ct


class NullLocks:
    """No-op lock manager: the sequential engines' synchronization.

    The thread engine substitutes a real per-individual RW-lock manager
    with the same two-method protocol.
    """

    def read(self, idx: int):
        """Context manager guarding a read of individual ``idx``."""
        return nullcontext()

    def write(self, idx: int):
        """Context manager guarding a write of individual ``idx``."""
        return nullcontext()


_NULL_LOCKS = NullLocks()


def evolve_individual(
    pop: Population,
    idx: int,
    neighbors: np.ndarray,
    ops: EvolutionOps,
    rng: np.random.Generator,
    locks: NullLocks = _NULL_LOCKS,
    tally=None,
) -> bool:
    """One breeding step for cell ``idx`` (Algorithm 3, lines 3–9).

    Selection reads neighbor fitnesses, recombination reads the two
    parents, replacement writes the current cell — each access goes
    through ``locks`` so concurrent engines stay safe.  Returns True
    when the offspring replaced the incumbent.

    ``tally`` is set only on the observed path (a
    :class:`repro.obs.dynamics.StepTally`): the step then reports what
    it applied, both fitness values and whether it replaced, and on the
    tally's observed 1-in-8 step it laps its phases and runs under the
    tally's timed locks.  The tally draws no random numbers.
    """
    inst = pop.instance
    laps = None
    if tally is not None:
        laps = tally.begin()
        if laps is not None and tally.locks is not None:
            locks = tally.locks
    unlocked = locks is _NULL_LOCKS
    # -- selection: snapshot neighbor fitnesses under read locks --------
    if unlocked:
        fit = pop.fitness[neighbors]
    else:
        fit = np.empty(neighbors.shape[0])
        for j, n in enumerate(neighbors):
            with locks.read(int(n)):
                fit[j] = pop.fitness[n]
    a, b = ops.select(fit, rng)
    p1, p2 = int(neighbors[a]), int(neighbors[b])
    if laps is not None:
        laps.append(perf_counter())

    # -- recombination: copy parents under read locks --------------------
    if unlocked:
        p1_s = pop.s[p1].copy()
        p1_ct = pop.ct[p1].copy()
    else:
        with locks.read(p1):
            p1_s = pop.s[p1].copy()
            p1_ct = pop.ct[p1].copy()
    crossed = rng.random() < ops.p_comb
    if crossed:
        if unlocked:
            p2_s = pop.s[p2]  # read-only use inside child_with_ct
        else:
            with locks.read(p2):
                p2_s = pop.s[p2].copy()
        child_s, child_ct = ops.recombine(inst, p1_s, p1_ct, p2_s, ops.crossover, rng)
    else:
        child_s, child_ct = p1_s, p1_ct
    if laps is not None:
        laps.append(perf_counter())

    # -- mutation, local search, evaluation (lock-free: private data) ----
    mutated = rng.random() < ops.p_mut
    if mutated:
        ops.mutate(child_s, child_ct, inst, rng)
    if laps is not None:
        laps.append(perf_counter())
    moves = -1
    if ops.local_search is not None and ops.ls_iterations > 0 and rng.random() < ops.p_ls:
        moves = ops.local_search(
            child_s, child_ct, inst, rng, ops.ls_iterations, ops.ls_candidates
        )
    if laps is not None:
        laps.append(perf_counter())
    child_fit = float(ops.fitness(child_s, child_ct, inst))
    if laps is not None:
        laps.append(perf_counter())

    # -- replacement under a write lock ----------------------------------
    if unlocked:
        incumbent = float(pop.fitness[idx])
        replaced = ops.replace(child_fit, incumbent)
        if replaced:
            pop.write_individual(idx, child_s, child_ct, child_fit)
    else:
        with locks.write(idx):
            incumbent = float(pop.fitness[idx])
            replaced = ops.replace(child_fit, incumbent)
            if replaced:
                pop.write_individual(idx, child_s, child_ct, child_fit)
    if tally is not None:
        tally.reports.append((crossed, mutated, moves, child_fit, incumbent, replaced))
    return replaced


@dataclass
class RunResult:
    """Outcome of one engine run."""

    best_fitness: float
    best_assignment: np.ndarray
    evaluations: int
    generations: int
    elapsed_s: float
    #: per-generation trace rows ``(generation, evaluations, best, mean)``
    history: list[tuple[int, int, float, float]] = field(default_factory=list)
    #: extra engine-specific measurements (threads, contention, …)
    extra: dict = field(default_factory=dict)

    def best_schedule(self, instance):
        """Materialize the best-found schedule (problem-appropriate type)."""
        from repro.problems import problem_of

        return problem_of(instance).as_schedule(instance, self.best_assignment)


class _EngineBase:
    """Shared setup and run loop for the sequential engines.

    Setup (operator resolution, population init, RNG, observer) is the
    runtime's :func:`~repro.runtime.context.build_context`; the engine
    keeps its historical attribute surface (``instance``, ``config``,
    ``rng``, ``grid``, ``neighbors``, ``ops``, ``sweep``, ``pop``,
    ``obs``) so callers and subclasses are unaffected.
    """

    #: canonical registry name (overridden per engine class).
    engine_name = ""

    def __init__(
        self,
        instance,
        config: CGAConfig | None = None,
        rng: np.random.Generator | int | None = None,
        record_history: bool = True,
        hooks: EngineHooks | None = None,
        obs=None,
    ):
        ctx = build_context(instance, config, rng=rng, obs=obs)
        self.instance = instance
        self.config = ctx.config
        self.rng = ctx.rng
        self.record_history = record_history
        #: lifecycle hooks (``on_generation``, ``on_improvement``,
        #: ``on_stop``)
        self.hooks = as_hooks(hooks)
        self.grid = ctx.grid
        self.neighbors = ctx.neighbors
        self.ops = ctx.ops
        self.sweep = ctx.sweep
        self.pop = ctx.pop
        self._best_seen = math.inf
        self._ckpt: tuple[int, Callable] | None = None
        self._resume: dict | None = None
        self.obs = ctx.obs
        self._obs_hooks: EngineHooks | None = None
        #: the scalar steps' telemetry, flushed once per generation (the
        #: vectorized engine records through ``breed`` and leaves it empty)
        self._tally = None
        if self.obs is not None:
            from repro.obs.dynamics import StepTally

            self._tally = StepTally(self.obs.recorder("main"), self.ops)
            self._obs_hooks = self.obs.engine_hooks()

    # -- checkpoint protocol (runtime.checkpoint) ------------------------
    def arm_checkpoint(self, every: int | None, saver: Callable | None) -> None:
        """Install (or clear) a generation-boundary checkpoint callback."""
        self._ckpt = None if saver is None else (every, saver)

    def _maybe_checkpoint(self, generation: int) -> None:
        if self._ckpt is not None and generation % self._ckpt[0] == 0:
            self._ckpt[1](self)

    def capture_state(self) -> dict:
        """Engine-specific checkpoint payload (single-stream engines)."""
        budget = getattr(self, "_budget", None)
        return {
            "rng_streams": {"main": self.rng.bit_generator.state},
            "progress": {
                "evaluations": budget.evaluations if budget is not None else 0,
                "generations": budget.generations if budget is not None else 0,
                "history": [list(row) for row in getattr(self, "_history", [])],
                "best_seen": None if math.isinf(self._best_seen) else self._best_seen,
            },
        }

    def restore_state(self, payload: dict) -> None:
        """Adopt a :meth:`capture_state` payload; next ``run`` resumes it."""
        self.rng.bit_generator.state = payload["rng_streams"]["main"]
        progress = payload.get("progress")
        if progress and (progress.get("generations") or progress.get("history")):
            self._resume = {
                "evaluations": int(progress.get("evaluations", 0)),
                "generations": int(progress.get("generations", 0)),
                "history": [tuple(row) for row in progress.get("history", [])],
                "best_seen": progress.get("best_seen"),
            }
        else:
            self._resume = None

    def _consume_resume(self) -> dict | None:
        """Pop the pending resume payload and apply its best-seen mark."""
        resume, self._resume = self._resume, None
        if resume is not None:
            best = resume.get("best_seen")
            self._best_seen = math.inf if best is None else best
        return resume

    def _snapshot(self, generation: int, evaluations: int, history: list) -> None:
        hooks, obs_hooks = self.hooks, self._obs_hooks
        best = None
        if self.record_history:
            _, best = self.pop.best()
            history.append((generation, evaluations, best, self.pop.mean_fitness()))
        track_best = hooks.on_improvement is not None or obs_hooks is not None
        if track_best:
            if best is None:
                _, best = self.pop.best()
            if best < self._best_seen:
                improved = generation > 0  # the initial snapshot only seeds
                self._best_seen = best
                if improved:
                    if hooks.on_improvement is not None:
                        hooks.on_improvement(self, generation, evaluations, best)
                    if obs_hooks is not None and obs_hooks.on_improvement is not None:
                        obs_hooks.on_improvement(self, generation, evaluations, best)
        if generation > 0:
            if hooks.on_generation is not None:
                hooks.on_generation(self, generation, evaluations)
            if obs_hooks is not None and obs_hooks.on_generation is not None:
                obs_hooks.on_generation(self, generation, evaluations)

    def run(self, stop: StopCondition) -> RunResult:
        """Evolve until ``stop`` triggers; returns the run trace.

        The one run loop of the sequential engines: resume, budget,
        live runtime, snapshots, hooks and checkpoints live here, and
        each generation is the subclass's :meth:`_generation`.
        """
        check_stop(self.engine_name, stop)
        resume = self._consume_resume()
        history: list[tuple[int, int, float, float]] = (
            resume["history"] if resume else []
        )
        budget = self._budget = Budget(
            stop,
            evaluations=resume["evaluations"] if resume else 0,
            generations=resume["generations"] if resume else 0,
        )
        self._history = history
        # the engine is its own single "worker": the heartbeat advances
        # once per generation, so a generation stuck inside one breeding
        # step (a hung fitness function, a livelocked local search) is
        # flagged by the watchdog; board is None without live settings
        board = attach_runtime(
            self, 1, lambda: (budget.generations, budget.evaluations)
        )
        budget.start()
        try:
            if resume is None:
                self._snapshot(0, 0, history)
            while True:
                _, best = self.pop.best()
                if budget.exhausted(best):
                    break
                self._generation(budget)
                if self._tally is not None:
                    self._tally.flush()
                generation = budget.next_generation()
                if board is not None:
                    board.beat(0)
                self._snapshot(generation, budget.evaluations, history)
                self._maybe_checkpoint(generation)
        finally:
            detach_runtime(self, board, mark_done=(0,))
        return self._result(
            budget.evaluations, budget.generations, budget.elapsed, history
        )

    def _result(self, evaluations, generations, elapsed, history, **extra) -> RunResult:
        best_idx, best_fit = self.pop.best()
        result = RunResult(
            best_fitness=best_fit,
            best_assignment=self.pop.s[best_idx].copy(),
            evaluations=evaluations,
            generations=generations,
            elapsed_s=elapsed,
            history=history,
            extra=extra,
        )
        return finish_run(self, result, engine_name=self.engine_name)


class AsyncCGA(_EngineBase):
    """Canonical asynchronous CGA (Algorithm 1) with fixed line sweep.

    Offspring replace their cell immediately, so later cells in the same
    sweep already see them — the faster-converging update scheme the
    paper builds on.
    """

    engine_name = "async"

    def _generation(self, budget: Budget) -> None:
        """One line sweep, stopping on the exact evaluation cap."""
        pop, ops, rng, neighbors = self.pop, self.ops, self.rng, self.neighbors
        tally = self._tally
        for idx in self.sweep.tolist():
            evolve_individual(pop, idx, neighbors[idx], ops, rng, tally=tally)
            budget.spend()
            if budget.cap_reached():
                break


class SyncCGA(_EngineBase):
    """Synchronous CGA: one auxiliary population per generation.

    All offspring are bred against the *previous* generation and the
    whole population is swapped at once — slower convergence, provided
    for the async/sync ablation (DESIGN.md A3).
    """

    engine_name = "sync"

    def _generation(self, budget: Budget) -> None:
        """Breed every cell into an auxiliary population, then swap."""
        pop, ops, rng, neighbors = self.pop, self.ops, self.rng, self.neighbors
        aux = pop.clone()
        # breed against the frozen parent generation (pop), write into
        # aux so no offspring is visible this generation
        view = _SyncView(pop, aux)
        tally = self._tally
        for idx in range(pop.size):
            evolve_individual(view, idx, neighbors[idx], ops, rng, tally=tally)
            budget.spend()
            if budget.cap_reached():
                break
        pop.s[:] = aux.s
        pop.ct[:] = aux.ct
        pop.fitness[:] = aux.fitness


class _SyncView:
    """Read-from-parents / write-to-aux adapter for the sync engine.

    Duck-types the small slice of :class:`Population` that
    ``evolve_individual`` touches: reads (``s``, ``ct``, ``fitness``)
    come from the frozen parent population; ``write_individual`` goes to
    the auxiliary one.  Replacement still compares against the parent's
    fitness, the classical synchronous rule.
    """

    __slots__ = ("_parents", "_aux")

    def __init__(self, parents: Population, aux: Population):
        self._parents = parents
        self._aux = aux

    @property
    def instance(self):
        return self._parents.instance

    @property
    def s(self):
        return self._parents.s

    @property
    def ct(self):
        return self._parents.ct

    @property
    def fitness(self):
        return self._parents.fitness

    def write_individual(self, idx: int, s, ct, fitness: float) -> None:
        self._aux.write_individual(idx, s, ct, fitness)
