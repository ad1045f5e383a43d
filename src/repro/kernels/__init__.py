"""Batch, whole-population NumPy kernels.

The scalar operators in :mod:`repro.cga` breed one cell at a time —
clear, lock-friendly, and the semantic reference for everything here —
but a synchronous generation is embarrassingly data-parallel: all
``pop_size`` selections, crossovers, mutations, local-search passes and
evaluations can be expressed as a handful of array operations over the
flat population buffers (``s``: ``(P, ntasks)``, ``ct``:
``(P, nmachines)``, ``fitness``: ``(P,)``) that
:class:`repro.cga.population.Population` already stores.

Every kernel is the batch analogue of a scalar operator and is gated by
equivalence tests (``tests/test_kernels.py``): batch completion times
must match :func:`repro.scheduling.schedule.compute_completion_times`
row by row, the ETC recombine's CT delta must match
:meth:`Schedule.apply_delta`, and the batch H2LL pass must preserve the
same invariants as :func:`repro.cga.local_search.h2ll` (makespan never
increases, CT stays exact).  :func:`repro.kernels.breed.breed` composes these kernels into
the one batch breeding step that both
:class:`repro.cga.vectorized.VectorizedSyncCGA` and the shared-memory
block engine (:mod:`repro.parallel.shm`) run.
"""

from repro.kernels.batch_ct import batch_completion_times, batch_resync_drift
from repro.kernels.batch_fitness import (
    BATCH_FITNESS,
    batch_makespan,
    batch_mean_flowtime,
    batch_weighted_fitness,
)
from repro.kernels.batch_select import (
    BATCH_SELECTIONS,
    batch_best_two,
    batch_center_plus_best,
    batch_random_pair,
    batch_tournament_pair,
    resolve_batch_selection,
)
from repro.kernels.batch_variation import (
    BATCH_CROSSOVER_MASKS,
    BATCH_MUTATIONS,
    batch_move_mutation,
    batch_rebalance_mutation,
    batch_swap_mutation,
    crossover_mask,
)
from repro.kernels.batch_ls import BATCH_LOCAL_SEARCHES, batch_h2ll

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

#: replacement-rule name -> vectorized accept mask (child fit vs incumbent fit).
BATCH_REPLACEMENTS = {
    "if-better": lambda child, cur: child < cur,
    "if-not-worse": lambda child, cur: child <= cur,
    "always": lambda child, cur: np.ones(child.shape, dtype=bool),
}


@dataclass(frozen=True)
class BatchOps:
    """The resolved batch-kernel suite for one engine configuration.

    Produced by :func:`resolve_batch_ops` and consumed by
    :func:`repro.kernels.breed.breed`, the batch breeding step both
    :class:`repro.cga.vectorized.VectorizedSyncCGA` and the
    shared-memory block engine (:mod:`repro.parallel.shm`) run, so
    "does this config have batch kernels?" is answered in exactly one
    place.  ``cross_mask`` draws the boolean
    inheritance masks (``(P, n, rng, active) -> mask``) and
    ``recombine`` applies them with the problem's CT derivation
    (``(instance, child_s, child_ct, p2_s, mask) -> new_s``).
    """

    select: Callable
    fitness: Callable
    mutate: Callable
    local_search: Callable | None
    accept: Callable
    cross_mask: Callable
    recombine: Callable


def resolve_batch_ops(config, problem=None) -> BatchOps:
    """Resolve a config's operator *names* against a problem's batch suite.

    ``config`` only needs the operator-name attributes of
    ``repro.cga.config.CGAConfig`` (duck-typed to keep this package
    import-independent of ``repro.cga``).  ``problem`` defaults to the
    config's registered problem (the independent workload when the
    config predates the problem field).  Raises ``ValueError`` for any
    operator without a batch kernel — never a silent fallback.
    """
    if problem is None:
        from repro.problems import resolve_problem

        problem = resolve_problem(getattr(config, "problem", "independent"))
    if not problem.has_batch_kernels:
        raise ValueError(
            f"problem {problem.name!r} provides no batch-kernel suite; "
            f"use a scalar engine"
        )
    try:
        select = resolve_batch_selection(config.selection)
    except KeyError as exc:
        raise ValueError(str(exc)) from None
    try:
        fitness = problem.batch_fitness[config.fitness]
        mutate = problem.batch_mutations[config.mutation]
        local_search = (
            problem.batch_local_searches[config.local_search]
            if config.local_search is not None
            else None
        )
    except KeyError as exc:
        raise ValueError(
            f"no batch kernel for {exc.args[0]!r} on problem {problem.name!r}"
        ) from None
    if config.crossover not in problem.batch_cross_masks:
        raise ValueError(
            f"no batch crossover kernel for {config.crossover!r} "
            f"on problem {problem.name!r}"
        )
    try:
        accept = BATCH_REPLACEMENTS[config.replacement]
    except KeyError:
        raise ValueError(
            f"no batch replacement rule for {config.replacement!r}"
        ) from None
    return BatchOps(
        select,
        fitness,
        mutate,
        local_search,
        accept,
        partial(crossover_mask, problem.batch_cross_masks[config.crossover]),
        problem.batch_recombine,
    )


__all__ = [
    "BATCH_REPLACEMENTS",
    "BatchOps",
    "resolve_batch_ops",
    "batch_completion_times",
    "batch_resync_drift",
    "BATCH_FITNESS",
    "batch_makespan",
    "batch_mean_flowtime",
    "batch_weighted_fitness",
    "BATCH_SELECTIONS",
    "batch_best_two",
    "batch_center_plus_best",
    "batch_random_pair",
    "batch_tournament_pair",
    "resolve_batch_selection",
    "BATCH_CROSSOVER_MASKS",
    "BATCH_MUTATIONS",
    "batch_move_mutation",
    "batch_rebalance_mutation",
    "batch_swap_mutation",
    "crossover_mask",
    "BATCH_LOCAL_SEARCHES",
    "batch_h2ll",
]
