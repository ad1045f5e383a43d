"""Budget: the single stop-accounting object shared by every engine.

Each engine used to keep its own ``evaluations``/``generations``
integers next to hand-rolled ``stop.done(...)`` and
``max_evaluations`` over-shoot checks; :class:`Budget` owns those
counters and the two canonical checks:

* :meth:`exhausted` — the *sweep-boundary* check (any configured bound
  reached), evaluated between sweeps/generations exactly like the
  paper's "check the time after evolving the whole block";
* :meth:`cap_reached` — the cheap *mid-sweep* evaluation-cap guard the
  sequential engines use to stop on the exact evaluation, not the next
  boundary.

For the partitioned engines (threads/shm) the evaluation budget
is split into per-worker shares (:meth:`eval_share`) and every worker
runs :meth:`worker_exhausted` on its private counters after each block
sweep — workers cannot share a Python counter without defeating the
point of running in parallel, so the shared :class:`Budget` only ever
aggregates their final counts.

A budget can be *resumed*: constructing it with nonzero ``evaluations``
/ ``generations`` (from a checkpoint) makes every bound count the whole
logical run, not just the continuation.
"""

from __future__ import annotations

import math
import time

from repro.cga.config import StopCondition

__all__ = ["Budget"]


class Budget:
    """Mutable evaluation/generation/time accounting for one run."""

    __slots__ = ("stop", "evaluations", "generations", "_cap", "_t0")

    def __init__(
        self,
        stop: StopCondition,
        evaluations: int = 0,
        generations: int = 0,
    ):
        self.stop = stop
        self.evaluations = evaluations
        self.generations = generations
        self._cap = stop.max_evaluations
        self._t0 = time.perf_counter()

    def start(self) -> "Budget":
        """(Re)start the wall clock; returns self for chaining."""
        self._t0 = time.perf_counter()
        return self

    @property
    def elapsed(self) -> float:
        """Wall seconds since :meth:`start` (or construction)."""
        return time.perf_counter() - self._t0

    # -- accounting ------------------------------------------------------
    def spend(self, evaluations: int = 1) -> None:
        """Charge ``evaluations`` breeding steps to the budget."""
        self.evaluations += evaluations

    def next_generation(self) -> int:
        """Mark a completed generation; returns the new count."""
        self.generations += 1
        return self.generations

    # -- checks ----------------------------------------------------------
    def exhausted(
        self, best_fitness: float = math.inf, elapsed: float | None = None
    ) -> bool:
        """Sweep-boundary check: has any configured bound been reached?"""
        return self.stop.done(
            self.evaluations,
            self.generations,
            self.elapsed if elapsed is None else elapsed,
            best_fitness,
        )

    def cap_reached(self) -> bool:
        """Mid-sweep check: is the evaluation cap spent exactly?"""
        return self._cap is not None and self.evaluations >= self._cap

    # -- partitioned engines ---------------------------------------------
    def eval_share(self, n_workers: int) -> int | None:
        """Per-worker slice of the evaluation budget (None = unbounded).

        Mirrors the paper's split: each of the ``n_workers`` blocks gets
        an equal share, checked after full block sweeps.  A share
        already spent by a resumed run should be subtracted by the
        caller from the worker's starting counter, not from the share.
        """
        if self._cap is None:
            return None
        return max(1, self._cap // n_workers)

    def worker_exhausted(
        self, evaluations: int, generations: int, share: int | None
    ) -> bool:
        """Per-worker sweep-boundary check against this budget's bounds.

        ``evaluations``/``generations`` are the *worker's* private
        counters; wall time is read from the shared clock.
        """
        if self.stop.wall_time_s is not None and self.elapsed >= self.stop.wall_time_s:
            return True
        if share is not None and evaluations >= share:
            return True
        if (
            self.stop.max_generations is not None
            and generations >= self.stop.max_generations
        ):
            return True
        return False
