"""Budget: the stop accounting of one run, shared by every engine.

Every engine runs the partitioned skeleton
(:class:`~repro.parallel.partitioned.PartitionedEngine`), so the
evaluation budget is split into per-worker shares (:meth:`eval_share`)
and every worker runs :meth:`worker_exhausted` on its private counters
after each block sweep — workers cannot share a Python counter without
defeating the point of running in parallel.  A sequential engine is one
worker whose share is the whole budget; its sweep stops on the exact
evaluation cap instead of overshooting it.

The counters a worker checks are cumulative: a resumed run seeds them
from its checkpoint, so every bound counts the whole logical run, not
just the continuation.
"""

from __future__ import annotations

import time

from repro.cga.config import StopCondition

__all__ = ["Budget"]


class Budget:
    """The stop condition and wall clock of one run."""

    __slots__ = ("stop", "_cap", "_t0")

    def __init__(self, stop: StopCondition):
        self.stop = stop
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
