"""Takeover-time study (selection pressure; Alba & Dorronsoro [1]).

The classical way to characterize a cellular GA's selection pressure:
plant a single *best* individual in an otherwise uniform population,
disable variation (no crossover effect — parents are clones — no
mutation, no local search), and measure how the best genotype's copies
spread per generation under selection + replacement alone.  Small
neighborhoods yield slow takeover (low pressure, more exploration) —
the quantitative backbone of the paper's §3.1 narrative.

Implemented directly on the engine machinery so the measured curve is
the pressure of *this* implementation, not a formula.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cga.config import CGAConfig, StopCondition
from repro.etc.model import ETCMatrix

__all__ = ["TakeoverResult", "takeover_experiment"]


@dataclass
class TakeoverResult:
    """Proportion of best-genotype copies per generation."""

    neighborhood: str
    update: str
    #: proportion curve, index = generation (0 = initial population)
    proportions: list[float] = field(default_factory=list)

    @property
    def takeover_generation(self) -> int | None:
        """First generation where the best genotype fills the population."""
        for g, p in enumerate(self.proportions):
            if p >= 1.0:
                return g
        return None

    def generations_to(self, fraction: float) -> int | None:
        """First generation reaching ``fraction`` occupancy."""
        for g, p in enumerate(self.proportions):
            if p >= fraction:
                return g
        return None


def _takeover_instance(ntasks: int = 8, nmachines: int = 2) -> ETCMatrix:
    """A tiny instance where genotype all-zeros is uniquely optimal."""
    etc = np.ones((ntasks, nmachines))
    etc[:, 1:] = 10.0  # machine 0 is best for every task
    return ETCMatrix(etc, name="takeover")


def takeover_experiment(
    neighborhood: str = "l5",
    update: str = "async",
    grid_rows: int = 16,
    grid_cols: int = 16,
    max_generations: int = 100,
    seed: int = 0,
) -> TakeoverResult:
    """Measure the takeover curve of one (neighborhood, update) setting.

    The population starts with every individual on the *worst* uniform
    genotype except one planted optimum; selection is the paper's
    best-2, replacement replace-if-better, variation disabled
    (``p_comb`` keeps parents cloned since both parents are identical
    or the offspring equals a parent — we simply set probabilities to
    zero).
    """
    from repro.runtime.registry import engine_names, resolve_engine

    try:
        spec = resolve_engine(update)
    except ValueError:
        raise ValueError(
            f"update must be one of {sorted(engine_names())}, got {update!r}"
        ) from None
    inst = _takeover_instance()
    config = CGAConfig(
        grid_rows=grid_rows,
        grid_cols=grid_cols,
        neighborhood=neighborhood,
        p_comb=0.0,  # offspring = clone of the best selected parent
        p_mut=0.0,
        local_search=None,
        ls_iterations=0,
        replacement="if-better",
        seed_with_minmin=False,
    )
    extras = {"record_history": False} if "record_history" in spec.extra_kwargs else {}
    engine = spec.create(inst, config, seed=seed, **extras)

    # uniform worst genotype everywhere, one optimum in the center
    worst = np.full(inst.ntasks, inst.nmachines - 1, dtype=np.int32)
    best = np.zeros(inst.ntasks, dtype=np.int32)
    engine.pop.s[:] = worst
    center = engine.grid.size // 2
    engine.pop.s[center] = best
    engine.pop.evaluate_all()

    best_fit = float(engine.pop.fitness[center])
    result = TakeoverResult(neighborhood=neighborhood, update=update)

    def proportion() -> float:
        return float((engine.pop.fitness == best_fit).mean())

    result.proportions.append(proportion())
    for _ in range(max_generations):
        engine.run(StopCondition(max_generations=1))
        result.proportions.append(proportion())
        if result.proportions[-1] >= 1.0:
            break
    return result
