"""The :class:`SchedulingProblem` protocol.

Everything workload-specific in the library — genome codec, full and
delta evaluation, batch (population-matrix) kernels, feasible variation
operators and local-search move sets, seeding heuristics, instance
loading — is owned by one frozen :class:`SchedulingProblem` record.
Engines never branch on the workload: they receive operator callables
resolved *through* the problem (scalar path via
:meth:`repro.cga.config.CGAConfig.resolve`, batch path via
:func:`repro.kernels.resolve_batch_ops`), and the population/runtime
layers call the problem's codec hooks.

Shapes are universal across problems so every engine's buffers (and the
shared-memory arenas of :mod:`repro.parallel.shm`) stay
problem-agnostic:

* genome — ``(ntasks,)`` ``genome_dtype`` per individual, where
  ``instance.ntasks`` is the genome length (tasks for the ETC workload,
  jobs for permutation flow shop);
* aux/CT row — ``(nmachines,)`` float64 per individual.  The row's
  *meaning* is problem-defined (per-machine completion times for ETC;
  per-machine completion time of the final permutation job for flow
  shop) but two invariants are universal: ``ct`` is exactly
  ``evaluate(instance, s)`` whenever an individual is published, and
  ``ct.max()`` equals the default (makespan) fitness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

__all__ = ["SchedulingProblem"]


@dataclass(frozen=True)
class SchedulingProblem:
    """Declarative description of one scheduling workload.

    Attributes
    ----------
    name:
        Canonical registry key (recorded in checkpoints, telemetry
        bundles and the run history).
    summary:
        One-line human description (``repro problems`` listing).
    instance_type:
        The instance class; :func:`repro.problems.problem_of` maps an
        instance object back to its problem by ``isinstance``.
    genome_dtype:
        NumPy dtype of the genome arrays (int32 for both built-ins).
    load_instance:
        ``spec -> instance``: benchmark name, generator pattern or file
        path.  Raises ``ValueError`` listing the valid forms otherwise.
    default_instance:
        Instance spec the CLI uses when ``--instance`` is omitted.
    alphabet:
        ``instance -> int``: number of distinct gene values (machines
        for ETC, jobs for a permutation) — the allele-entropy alphabet.
    random_genomes:
        ``(instance, rng, shape) -> ndarray``: feasible random genomes
        for population init (``shape = (pop, ntasks)``).
    evaluate:
        ``(instance, s) -> ct``: full single-genome evaluation, the
        semantic reference every delta/batch path must match.
    population_ct:
        ``(instance, S) -> CT``: full batch evaluation of an
        ``(P, ntasks)`` genome matrix into ``(P, nmachines)`` rows.
    default_fitness:
        Name of the fitness whose value is ``ct.max()`` (the fast
        whole-population evaluation path).
    random_move:
        ``(s, ct, instance, rng) -> float``: apply one random feasible
        move *via the problem's delta machinery*, updating ``(s, ct)``
        in place, and return the move's predicted makespan.  The
        problem-contract suite replays thousands of these against
        :attr:`evaluate` — this is the "delta evaluation matches full
        re-evaluation" gate.
    check_genome / check_ct:
        Feasibility / CT-exactness validators (raise on violation).
    seed_schedules:
        ``(instance, config) -> list | None``: heuristic seed
        individuals planted at population init (objects with ``.s`` and
        ``.instance``).  The ETC problem returns the paper's single
        Min-min schedule; flow shop returns NEH.
    as_schedule:
        ``(instance, s) -> object``: materialize a standalone schedule
        object (``RunResult.best_schedule``).
    fitness / crossovers / mutations / local_searches:
        Scalar operator registries; :class:`~repro.cga.config.CGAConfig`
        validates its operator names against these.  Both built-ins
        register their analogs under the same canonical names
        (``tpx``/``opx``, ``move``/``swap``, ``h2ll``) so one config
        runs either workload.
    recombine:
        ``(instance, p1_s, p1_ct, p2_s, op, rng) -> (child_s,
        child_ct)``: apply crossover ``op`` and derive the child's CT
        (incremental delta for ETC, DP recompute for flow shop).
    batch_fitness / batch_mutations / batch_local_searches /
    batch_cross_masks / batch_recombine:
        The batch-kernel suite used by the vectorized and shm engines;
        all-or-nothing (``has_batch_kernels``).  ``batch_recombine`` is
        ``(instance, child_s, child_ct, p2_s, mask) -> child_s`` with
        ``mask`` the boolean take-from-parent-2 matrix produced by the
        mask kernels.
    """

    name: str
    summary: str
    instance_type: type
    load_instance: Callable
    default_instance: str
    alphabet: Callable
    random_genomes: Callable
    evaluate: Callable
    population_ct: Callable
    random_move: Callable
    check_genome: Callable
    check_ct: Callable
    seed_schedules: Callable
    as_schedule: Callable
    fitness: Mapping[str, Callable]
    crossovers: Mapping[str, Callable]
    mutations: Mapping[str, Callable]
    local_searches: Mapping[str, Callable]
    recombine: Callable
    genome_dtype: np.dtype = np.dtype(np.int32)
    default_fitness: str = "makespan"
    batch_fitness: Mapping[str, Callable] = field(default_factory=dict)
    batch_mutations: Mapping[str, Callable] = field(default_factory=dict)
    batch_local_searches: Mapping[str, Callable] = field(default_factory=dict)
    batch_cross_masks: Mapping[str, Callable] = field(default_factory=dict)
    batch_recombine: Callable | None = None

    @property
    def has_batch_kernels(self) -> bool:
        """Whether the batch engines (vectorized, shm) can run this problem."""
        return bool(self.batch_fitness) and self.batch_recombine is not None

    def operator_names(self) -> dict[str, tuple[str, ...]]:
        """Registered operator names per family (CLI listing / docs)."""
        return {
            "fitness": tuple(self.fitness),
            "crossover": tuple(self.crossovers),
            "mutation": tuple(self.mutations),
            "local_search": tuple(self.local_searches),
        }

    def owns_instance(self, instance) -> bool:
        """True when ``instance`` belongs to this workload."""
        return isinstance(instance, self.instance_type)
