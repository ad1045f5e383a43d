"""The paper's workload as a :class:`SchedulingProblem`.

Independent tasks on heterogeneous machines (ETC matrix, paper §3.1)
with the (S, CT) representation of §3.3.  This module only *adapts*
the existing stack — :mod:`repro.etc`, :mod:`repro.scheduling`,
:mod:`repro.cga` operators, :mod:`repro.kernels` batch suites, Min-min
seeding — into the protocol; every callable either is the pre-existing
function object or reproduces its array arithmetic verbatim, so
registering the problem changes no trajectory (pinned by
``tests/golden_capture.py``).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.cga.crossover import CROSSOVERS, child_with_ct
from repro.cga.fitness import FITNESS
from repro.cga.local_search import LOCAL_SEARCHES
from repro.cga.mutation import MUTATIONS, move_mutation
from repro.etc.model import ETCMatrix
from repro.etc.registry import BENCHMARK_INSTANCES, load_benchmark
from repro.etc import io as etc_io
from repro.kernels.batch_ct import _scatter_ct_delta, batch_completion_times
from repro.kernels.batch_fitness import BATCH_FITNESS
from repro.kernels.batch_ls import BATCH_LOCAL_SEARCHES
from repro.kernels.batch_variation import BATCH_CROSSOVER_MASKS, BATCH_MUTATIONS
from repro.problems.base import SchedulingProblem
from repro.scheduling.schedule import Schedule, compute_completion_times
from repro.scheduling.validation import check_completion_times, validate_assignment

__all__ = ["INDEPENDENT", "load_etc_instance"]


def load_etc_instance(spec: str) -> ETCMatrix:
    """Resolve an instance spec: benchmark name or instance file path."""
    if spec in BENCHMARK_INSTANCES:
        return load_benchmark(spec)
    if Path(spec).is_file():
        return etc_io.load_instance(spec)
    raise ValueError(
        f"unknown ETC instance {spec!r}: expected a benchmark name "
        f"({', '.join(BENCHMARK_INSTANCES)}) or a path to an instance file"
    )


def _random_genomes(instance: ETCMatrix, rng: np.random.Generator, shape) -> np.ndarray:
    # One draw, identical to the pre-refactor Population.init_random.
    return rng.integers(0, instance.nmachines, size=shape, dtype=np.int32)


def _random_move(s, ct, instance, rng) -> float:
    """One random task move through the O(1) incremental CT update."""
    move_mutation(s, ct, instance, rng)
    return float(ct.max())


def _seed_schedules(instance: ETCMatrix, config) -> list | None:
    if not getattr(config, "seed_with_minmin", True):
        return None
    from repro.heuristics import min_min

    return [min_min(instance)]


def _batch_recombine(instance, child_s, child_ct, p2_s, mask) -> np.ndarray:
    """Mask-select genes from parent 2, patching CT by the O(changed) delta."""
    changed = np.flatnonzero(mask & (p2_s != child_s))
    new = p2_s.ravel()[changed]
    new_s = child_s.copy()
    np.put(new_s, changed, new)
    _scatter_ct_delta(instance, child_ct, changed, child_s.ravel()[changed], new)
    return new_s


INDEPENDENT = SchedulingProblem(
    name="independent",
    summary="independent tasks on heterogeneous machines (ETC, paper §3)",
    instance_type=ETCMatrix,
    load_instance=load_etc_instance,
    default_instance="u_i_hihi.0",
    alphabet=lambda instance: instance.nmachines,
    random_genomes=_random_genomes,
    evaluate=compute_completion_times,
    population_ct=batch_completion_times,
    random_move=_random_move,
    check_genome=validate_assignment,
    check_ct=check_completion_times,
    seed_schedules=_seed_schedules,
    as_schedule=Schedule,
    fitness=FITNESS,
    crossovers=CROSSOVERS,
    mutations=MUTATIONS,
    local_searches=LOCAL_SEARCHES,
    recombine=child_with_ct,
    batch_fitness=BATCH_FITNESS,
    batch_mutations=BATCH_MUTATIONS,
    batch_local_searches=BATCH_LOCAL_SEARCHES,
    batch_cross_masks=BATCH_CROSSOVER_MASKS,
    batch_recombine=_batch_recombine,
)
