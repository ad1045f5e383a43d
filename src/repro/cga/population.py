"""Flat-array population store.

The population is three parallel NumPy arrays (HPC guide: views, not
objects, in the hot loop):

* ``s``   — ``(pop, ntasks)`` int32 assignment vectors,
* ``ct``  — ``(pop, nmachines)`` float64 completion times,
* ``fitness`` — ``(pop,)`` float64 makespans.

This mirrors the paper's shared-memory layout: the parallel engines map
exactly these buffers into shared memory, and per-individual access is
what the read-write locks protect.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.cga.grid import Grid2D

__all__ = ["Population"]


class Population:
    """Population of schedules on a cellular grid.

    Parameters
    ----------
    instance:
        The problem instance shared by every individual (any registered
        :mod:`repro.problems` workload; ``instance.ntasks`` is the
        genome length and ``instance.nmachines`` the CT-row width).
    grid:
        The toroidal layout (its ``size`` is the population size).
    s, ct, fitness:
        Optional pre-allocated backing arrays (the shm engine passes
        shared-memory views); freshly allocated when omitted.
    """

    __slots__ = ("instance", "problem", "grid", "s", "ct", "fitness")

    def __init__(
        self,
        instance,
        grid: Grid2D,
        s: np.ndarray | None = None,
        ct: np.ndarray | None = None,
        fitness: np.ndarray | None = None,
    ):
        from repro.problems import problem_of  # lazy: problems import operators

        self.instance = instance
        self.problem = problem_of(instance)
        self.grid = grid
        n = grid.size
        self.s = self._adopt(s, (n, instance.ntasks), self.problem.genome_dtype)
        self.ct = self._adopt(ct, (n, instance.nmachines), np.float64)
        self.fitness = self._adopt(fitness, (n,), np.float64)

    @staticmethod
    def _adopt(arr: np.ndarray | None, shape: tuple[int, ...], dtype) -> np.ndarray:
        if arr is None:
            return np.zeros(shape, dtype=dtype)
        if arr.shape != shape or arr.dtype != dtype:
            raise ValueError(f"backing array must be {shape} {dtype}, got {arr.shape} {arr.dtype}")
        return arr

    @property
    def size(self) -> int:
        """Number of individuals."""
        return self.grid.size

    # ------------------------------------------------------------------
    # initialization (§4.1: random except one Min-min individual)
    # ------------------------------------------------------------------
    def init_random(
        self,
        rng: np.random.Generator,
        seed_schedules: list | None = None,
        seed_positions: list[int] | None = None,
        fitness_fn: Callable | None = None,
    ) -> None:
        """Randomize the population, optionally planting seed schedules.

        ``seed_schedules[i]`` is written at ``seed_positions[i]``
        (default: positions 0, 1, …).  The paper plants exactly one
        Min-min individual.  ``fitness_fn`` overrides the makespan
        fitness (see :mod:`repro.cga.fitness`).
        """
        inst = self.instance
        self.s[:] = self.problem.random_genomes(inst, rng, self.s.shape)
        if seed_schedules:
            positions = seed_positions or list(range(len(seed_schedules)))
            if len(positions) != len(seed_schedules):
                raise ValueError("seed_positions length must match seed_schedules")
            for pos, sched in zip(positions, seed_schedules):
                if sched.instance is not inst and sched.instance != inst:
                    raise ValueError("seed schedule belongs to a different instance")
                self.s[pos] = sched.s
        self.evaluate_all(fitness_fn)

    def evaluate_all(self, fitness_fn: Callable | None = None) -> None:
        """Recompute every CT row and fitness from the genomes.

        Delegates to the problem's batch evaluation kernel (for the
        independent workload one flattened scatter-add; for flow shop
        the population DP sweep), so initial evaluation is a single
        pass.  The default fitness (``None`` or the registry's
        makespan) stays on the vectorized ``ct.max`` path; custom
        fitness functions are applied per individual.
        """
        inst = self.instance
        n = self.size
        self.ct[:] = self.problem.population_ct(inst, self.s)
        from repro.cga.fitness import makespan_fitness

        if fitness_fn is None or fitness_fn is makespan_fitness:
            self.fitness[:] = self.ct.max(axis=1)
        else:
            for i in range(n):
                self.fitness[i] = fitness_fn(self.s[i], self.ct[i], inst)

    # ------------------------------------------------------------------
    # per-individual access
    # ------------------------------------------------------------------
    def read_individual(self, idx: int) -> tuple[np.ndarray, np.ndarray, float]:
        """Snapshot (copy) of one individual: (s, ct, fitness).

        Copies because the caller may hold the data across other
        threads' writes; the engines wrap this in a read lock.
        """
        return self.s[idx].copy(), self.ct[idx].copy(), float(self.fitness[idx])

    def write_individual(self, idx: int, s: np.ndarray, ct: np.ndarray, fitness: float) -> None:
        """Overwrite one individual (engines wrap this in a write lock)."""
        self.s[idx] = s
        self.ct[idx] = ct
        self.fitness[idx] = fitness

    def as_schedule(self, idx: int):
        """Materialize individual ``idx`` as a standalone schedule."""
        return self.problem.as_schedule(self.instance, self.s[idx])

    def best(self) -> tuple[int, float]:
        """(index, fitness) of the current best individual."""
        i = int(self.fitness.argmin())
        return i, float(self.fitness[i])

    def mean_fitness(self) -> float:
        """Population mean makespan (Fig. 6's y-axis)."""
        return float(self.fitness.mean())

    # ------------------------------------------------------------------
    # invariants
    # ------------------------------------------------------------------
    def check_invariants(self, idx: int | None = None, fitness_fn: Callable | None = None) -> None:
        """Validate assignment ranges, CT caches and cached fitness.

        ``fitness_fn`` must match the one the engine optimizes (default:
        makespan).
        """
        indices = range(self.size) if idx is None else [idx]
        for i in indices:
            self.problem.check_genome(self.instance, self.s[i])
            self.problem.check_ct(self.instance, self.s[i], self.ct[i])
            if fitness_fn is None:
                expected = float(self.ct[i].max())
            else:
                expected = float(fitness_fn(self.s[i], self.ct[i], self.instance))
            if not np.isclose(self.fitness[i], expected, rtol=1e-9, atol=1e-6):
                raise AssertionError(
                    f"individual {i}: cached fitness {self.fitness[i]} != expected {expected}"
                )

    def clone(self) -> "Population":
        """Deep copy (used by the synchronous engine's auxiliary pop)."""
        out = Population(self.instance, self.grid)
        out.s[:] = self.s
        out.ct[:] = self.ct
        out.fitness[:] = self.fitness
        return out
