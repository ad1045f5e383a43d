"""O(1) makespan reads over a live completion-time vector.

Makespan is a max over machines; :class:`PeakTracker` caches the top
three completion times so the common queries are O(1):

* ``max()`` — the makespan (the global peak);
* ``max_excluding(a, b)`` — the peak outside ≤2 machines (what a
  move/swap probe needs: three candidates minus two exclusions always
  leaves one, and a selection — unlike a sum — is exact by nature).

The simulated annealing baseline uses it to drop the O(nmachines)
``np.delete(...).max()`` from its proposal loop while producing a
bit-identical trajectory.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

__all__ = ["PeakTracker"]


class PeakTracker:
    """Top-3 completion times over a live ``ct`` array, O(1) peak reads.

    The tracker holds a *reference* to ``ct`` (shared with whatever
    mutates it) and a cache of the three largest ``(machine, value)``
    pairs.  After mutating ``ct``, call :meth:`notify` with the touched
    machines: if none of them can perturb the cached top (untracked and
    still below the smallest cached peak) the cache stands; otherwise
    one O(nmachines) :meth:`refresh` rebuilds it.  Values are the
    identical float64 elements of ``ct``, so every query returns the
    same bits as the equivalent ``np.max`` expression.
    """

    __slots__ = ("ct", "_top")

    def __init__(self, ct: np.ndarray):
        self.ct = ct
        self.refresh()

    def refresh(self) -> None:
        """Rebuild the cache from ``ct`` (O(nmachines))."""
        ct = self.ct
        k = min(3, ct.size)
        idx = np.argpartition(ct, ct.size - k)[ct.size - k :]
        order = idx[np.argsort(ct[idx])][::-1]  # descending by value
        self._top = [(int(i), float(ct[i])) for i in order]

    def notify(self, machines: Iterable[int]) -> None:
        """Declare that ``ct[m]`` changed for each ``m`` in ``machines``."""
        floor = self._top[-1][1]
        tracked = [i for i, _ in self._top]
        for m in machines:
            if m in tracked or self.ct[m] >= floor:
                self.refresh()
                return

    def max(self) -> float:
        """The makespan: ``ct.max()`` in O(1)."""
        return self._top[0][1]

    def max_excluding(self, *exclude: int) -> float:
        """Largest completion time outside ≤2 ``exclude`` machines.

        Equals ``np.delete(ct, exclude).max(initial=0.0)`` — the cache
        holds three peaks, so excluding two still leaves the maximum of
        the remainder (0.0 when every machine is excluded).
        """
        for i, v in self._top:
            if i not in exclude:
                return v
        return 0.0
