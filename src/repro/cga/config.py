"""Algorithm configuration (Table 1 of the paper) and stop conditions.

:class:`CGAConfig` captures every knob of Table 1 with the paper's
values as defaults; ``resolve()`` turns the string-keyed choices into
the concrete operator callables used by all engines (sequential,
threaded, shared-memory and simulated), so one config object fully
determines a run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any

from repro.cga.grid import Grid2D
from repro.cga.neighborhood import NEIGHBORHOODS
from repro.cga.replacement import REPLACEMENTS
from repro.cga.selection import SELECTIONS

__all__ = ["CGAConfig", "StopCondition"]


@dataclass(frozen=True)
class StopCondition:
    """Termination criterion — any bound triggers the stop.

    The paper stops on wall-clock time (90 s / 10 s); deterministic
    experiments here prefer evaluation budgets, and the virtual-time
    simulator uses ``virtual_time`` seconds of *modeled* time.
    """

    max_evaluations: int | None = None
    max_generations: int | None = None
    wall_time_s: float | None = None
    virtual_time: float | None = None
    target_fitness: float | None = None

    def __post_init__(self) -> None:
        bounds = (
            self.max_evaluations,
            self.max_generations,
            self.wall_time_s,
            self.virtual_time,
            self.target_fitness,
        )
        if all(b is None for b in bounds):
            raise ValueError("StopCondition needs at least one bound")
        for name in ("max_evaluations", "max_generations"):
            v = getattr(self, name)
            if v is not None and v < 1:
                raise ValueError(f"{name} must be >= 1, got {v}")
        for name in ("wall_time_s", "virtual_time"):
            v = getattr(self, name)
            if v is not None and (v <= 0 or not math.isfinite(v)):
                raise ValueError(f"{name} must be positive and finite, got {v}")

    def done(
        self,
        evaluations: int = 0,
        generations: int = 0,
        elapsed: float = 0.0,
        best_fitness: float = math.inf,
    ) -> bool:
        """True when any configured bound has been reached."""
        if self.max_evaluations is not None and evaluations >= self.max_evaluations:
            return True
        if self.max_generations is not None and generations >= self.max_generations:
            return True
        if self.wall_time_s is not None and elapsed >= self.wall_time_s:
            return True
        if self.target_fitness is not None and best_fitness <= self.target_fitness:
            return True
        return False


@dataclass(frozen=True)
class CGAConfig:
    """Full PA-CGA parameterization; defaults reproduce Table 1.

    ``n_threads`` is the number of population blocks / logical threads;
    1 makes every engine degenerate to the canonical asynchronous CGA
    of Algorithm 1 (the paper notes this explicitly in §4.2).
    """

    grid_rows: int = 16
    grid_cols: int = 16
    neighborhood: str = "l5"
    selection: str = "best2"
    crossover: str = "tpx"
    p_comb: float = 1.0
    mutation: str = "move"
    p_mut: float = 1.0
    local_search: str | None = "h2ll"
    p_ls: float = 1.0          # the paper's p_ser
    ls_iterations: int = 10    # Table 1: iter ∈ {5, 10}; Fig. 5 picks 10
    ls_candidates: int | None = None  # None → nmachines // 2 (Algorithm 4)
    replacement: str = "if-better"
    fitness: str = "makespan"  # eq. 1: the paper optimizes makespan only
    seed_with_minmin: bool = True
    n_threads: int = 1
    sweep: str = "line"  # §3.2: fixed line sweep per block
    partition: str = "runs"  # §3.2: contiguous row-major runs
    #: registered workload (see :mod:`repro.problems`); operator names
    #: above are validated against — and resolved from — this problem's
    #: registries, so one config shape drives every workload.
    problem: str = "independent"

    def __post_init__(self) -> None:
        if self.grid_rows < 1 or self.grid_cols < 1:
            raise ValueError("grid must be at least 1x1")
        for name in ("p_comb", "p_mut", "p_ls"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")
        if self.ls_iterations < 0:
            raise ValueError(f"ls_iterations must be >= 0, got {self.ls_iterations}")
        if self.n_threads < 1 or self.n_threads > self.grid_rows * self.grid_cols:
            raise ValueError(f"n_threads must be in [1, pop], got {self.n_threads}")
        if self.neighborhood not in NEIGHBORHOODS:
            raise ValueError(f"unknown neighborhood {self.neighborhood!r}")
        if self.selection not in SELECTIONS:
            raise ValueError(f"unknown selection {self.selection!r}")
        if self.replacement not in REPLACEMENTS:
            raise ValueError(f"unknown replacement {self.replacement!r}")
        from repro.cga.sweep import SWEEP_POLICIES

        if self.sweep not in SWEEP_POLICIES:
            raise ValueError(f"unknown sweep policy {self.sweep!r}")
        if self.partition not in ("runs", "rows", "tiles"):
            raise ValueError(f"unknown partition scheme {self.partition!r}")
        # workload-specific names validate against the problem's registries
        # (lazy import: repro.problems imports the operator modules)
        from repro.problems import resolve_problem

        problem = resolve_problem(self.problem)
        if self.crossover not in problem.crossovers:
            raise ValueError(
                f"unknown crossover {self.crossover!r} for problem {self.problem!r}; "
                f"known: {', '.join(problem.crossovers)}"
            )
        if self.mutation not in problem.mutations:
            raise ValueError(
                f"unknown mutation {self.mutation!r} for problem {self.problem!r}; "
                f"known: {', '.join(problem.mutations)}"
            )
        if self.local_search is not None and self.local_search not in problem.local_searches:
            raise ValueError(
                f"unknown local search {self.local_search!r} for problem {self.problem!r}; "
                f"known: {', '.join(problem.local_searches)}"
            )
        if self.fitness not in problem.fitness:
            raise ValueError(
                f"unknown fitness {self.fitness!r} for problem {self.problem!r}; "
                f"known: {', '.join(problem.fitness)}"
            )

    @property
    def grid(self) -> Grid2D:
        """The toroidal grid implied by the config."""
        return Grid2D(self.grid_rows, self.grid_cols)

    @property
    def population_size(self) -> int:
        """Number of individuals (Table 1: 16 × 16 = 256)."""
        return self.grid_rows * self.grid_cols

    def with_(self, **changes: Any) -> "CGAConfig":
        """Functional update (frozen dataclass convenience)."""
        return replace(self, **changes)

    def resolve(self) -> "EvolutionOps":
        """Bind the named operator choices to concrete callables."""
        from repro.cga.engine import EvolutionOps  # local import: engine imports config
        from repro.problems import resolve_problem

        problem = resolve_problem(self.problem)
        return EvolutionOps(
            fitness=problem.fitness[self.fitness],
            select=SELECTIONS[self.selection],
            crossover=problem.crossovers[self.crossover],
            p_comb=self.p_comb,
            mutate=problem.mutations[self.mutation],
            p_mut=self.p_mut,
            local_search=(
                problem.local_searches[self.local_search]
                if self.local_search is not None
                else None
            ),
            p_ls=self.p_ls,
            ls_iterations=self.ls_iterations,
            ls_candidates=self.ls_candidates,
            replace=REPLACEMENTS[self.replacement],
            recombine=problem.recombine,
        )

    def describe(self) -> str:
        """Human-readable Table 1-style summary."""
        ls = f"{self.local_search}, p_ls={self.p_ls}, iter={self.ls_iterations}" if self.local_search else "none"
        rows = [
            ("Population", f"{self.grid_rows}x{self.grid_cols}"),
            ("Population initialization", "Min-min (1 ind)" if self.seed_with_minmin else "random"),
            ("Cell update policy", f"fixed {self.sweep} sweep per block"),
            ("Neighborhood", self.neighborhood),
            ("Selection", self.selection),
            ("Recombination", f"{self.crossover}, p_comb={self.p_comb}"),
            ("Mutation", f"{self.mutation}, p_mut={self.p_mut}"),
            ("Local search", ls),
            ("Replacement", self.replacement),
            ("Number of threads", str(self.n_threads)),
        ]
        width = max(len(k) for k, _ in rows)
        return "\n".join(f"{k:<{width}}  {v}" for k, v in rows)
