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

Run loop: every engine runs the one skeleton,
:meth:`repro.parallel.partitioned.PartitionedEngine.run`.  The
sequential engines (these two and the vectorized engine in
:mod:`repro.cga.vectorized`) are partitioned engines with one block —
the whole grid, in ``config.sweep`` order — and one stream, the
generator that seeded the population (``engine.rng``), run through the
skeleton's lockstep loop, and checkpointed by the skeleton's
``capture_state``/``restore_state``.  Each supplies only
``_step_block``, one generation of breeding.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

import numpy as np

from repro.cga.config import CGAConfig
from repro.cga.crossover import child_with_ct
from repro.cga.hooks import EngineHooks
from repro.cga.population import Population
from repro.runtime.context import build_context

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


# imported below the step and the result: the skeleton's package imports
# both from this module
from repro.parallel.partitioned import PartitionedEngine  # noqa: E402


class _OneBlock(PartitionedEngine):
    """A sequential engine: one block, one stream, the lockstep loop.

    The block is the whole grid in ``config.sweep`` order and the stream
    is the generator that seeded the population, readable and assignable
    as ``rng``.  A generation stops on the exact evaluation cap (the
    partitioned workers check theirs between sweeps) and records no
    ``sweep_us``: its telemetry is its breeding's, plus a ``sweep`` span.
    Each engine supplies ``_step_block(steps, rng, rec)``: one
    generation making at most ``steps`` evaluations, returning how many
    it made.  Checkpoints are the skeleton's payload, with one stream
    and one counter per list.
    """

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
        super().__init__(instance, ctx, hooks, lockstep=True)
        self.record_history = record_history

    @property
    def rng(self) -> np.random.Generator:
        """The one stream: population init, then evolution."""
        return self._worker_rngs[0]

    @rng.setter
    def rng(self, rng: np.random.Generator) -> None:
        self._worker_rngs[0] = rng

    def _sweep(self, gid, members, rng, progress, rec, tracer) -> None:
        steps, cap = self.pop.size, self._budget.stop.max_evaluations
        if cap is not None:
            steps = min(steps, cap - progress.evals[0])
        start = perf_counter()
        progress.evals[0] += self._step_block(steps, rng, rec)
        dur = perf_counter() - start
        epoch = 0.0 if tracer is None else tracer.epoch
        self._sweep_done(members, progress, None, tracer, start - epoch, dur)


class AsyncCGA(_OneBlock):
    """Canonical asynchronous CGA (Algorithm 1) with fixed line sweep.

    Offspring replace their cell immediately, so later cells in the same
    sweep already see them — the faster-converging update scheme the
    paper builds on.
    """

    engine_name = "async"

    def _step_block(self, steps: int, rng, rec=None) -> int:
        """The first ``steps`` cells of the line sweep."""
        pop, ops, neighbors = self.pop, self.ops, self.neighbors
        tally = self._tally(0, rec)
        for idx in self.orders[0][:steps].tolist():
            evolve_individual(pop, idx, neighbors[idx], ops, rng, tally=tally)
        if tally is not None:
            tally.flush()
        return steps


class SyncCGA(_OneBlock):
    """Synchronous CGA: one auxiliary population per generation.

    All offspring are bred against the *previous* generation and the
    whole population is swapped at once — slower convergence, provided
    for the async/sync ablation (DESIGN.md A3).
    """

    engine_name = "sync"

    def _step_block(self, steps: int, rng, rec=None) -> int:
        """Breed cells ``0..steps-1`` into an auxiliary population, then
        swap it in."""
        pop, ops, neighbors = self.pop, self.ops, self.neighbors
        aux = pop.clone()
        # breed against the frozen parent generation (pop), write into
        # aux so no offspring is visible this generation
        view = _SyncView(pop, aux)
        tally = self._tally(0, rec)
        for idx in range(steps):
            evolve_individual(view, idx, neighbors[idx], ops, rng, tally=tally)
        pop.s[:] = aux.s
        pop.ct[:] = aux.ct
        pop.fitness[:] = aux.fitness
        if tally is not None:
            tally.flush()
        return steps


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
