"""The ETC matrix model (Braun et al. 2001, §2.1 of the paper).

An instance of the independent-task scheduling problem is fully
described by:

* the expected-time-to-compute matrix ``ETC[t][m]``,
* optionally a per-machine ready time (when machine ``m`` finishes its
  previously assigned work).

The paper stores the *transposed* matrix (machine-major) in the hot
path because H2LL and the incremental completion-time updates scan
"next few tasks on the same machine", which is contiguous in the
transposed layout (§3.3, measured 5–10 % faster).  :class:`ETCMatrix`
keeps both layouts as C-contiguous arrays so callers pick the one whose
access pattern is row-contiguous.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

__all__ = ["Consistency", "ETCMatrix"]


class Consistency(enum.Enum):
    """Consistency class of an ETC matrix (Ali et al. 2000).

    ``CONSISTENT``: if machine ``a`` runs *one* task faster than machine
    ``b``, it runs *every* task faster.  ``SEMI_CONSISTENT``: contains a
    consistent sub-matrix (even-indexed columns, by construction).
    ``INCONSISTENT``: anything else.
    """

    CONSISTENT = "c"
    SEMI_CONSISTENT = "s"
    INCONSISTENT = "i"


@dataclass(frozen=True)
class ETCMatrix:
    """Immutable ETC instance.

    Parameters
    ----------
    etc:
        ``(ntasks, nmachines)`` array of positive expected execution
        times (task-major).
    ready_times:
        Optional ``(nmachines,)`` array of machine ready times
        (defaults to all-zero, as in the benchmark instances).
    name:
        Human-readable instance name (e.g. ``u_c_hihi.0``).
    """

    etc: np.ndarray
    ready_times: np.ndarray = None  # type: ignore[assignment]
    name: str = ""
    #: machine-major copy, C-contiguous; the hot-path layout of §3.3.
    etc_t: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        etc = np.ascontiguousarray(self.etc, dtype=np.float64)
        if etc.ndim != 2:
            raise ValueError(f"ETC must be 2-D, got shape {etc.shape}")
        if etc.shape[0] < 1 or etc.shape[1] < 1:
            raise ValueError(f"ETC must be non-empty, got shape {etc.shape}")
        if not np.all(np.isfinite(etc)):
            raise ValueError("ETC contains non-finite values")
        if np.any(etc <= 0):
            raise ValueError("ETC values must be strictly positive")
        object.__setattr__(self, "etc", etc)
        object.__setattr__(self, "etc_t", np.ascontiguousarray(etc.T))
        if self.ready_times is None:
            ready = np.zeros(etc.shape[1], dtype=np.float64)
        else:
            ready = np.ascontiguousarray(self.ready_times, dtype=np.float64)
            if ready.shape != (etc.shape[1],):
                raise ValueError(
                    f"ready_times shape {ready.shape} does not match nmachines={etc.shape[1]}"
                )
            if np.any(ready < 0) or not np.all(np.isfinite(ready)):
                raise ValueError("ready_times must be finite and non-negative")
        object.__setattr__(self, "ready_times", ready)

    # ------------------------------------------------------------------
    # basic geometry
    # ------------------------------------------------------------------
    @property
    def ntasks(self) -> int:
        """Number of independent tasks."""
        return self.etc.shape[0]

    @property
    def nmachines(self) -> int:
        """Number of heterogeneous machines."""
        return self.etc.shape[1]

    @property
    def pj_min(self) -> float:
        """Smallest processing time in the matrix (Blazewicz lower bound)."""
        return float(self.etc.min())

    @property
    def pj_max(self) -> float:
        """Largest processing time in the matrix (Blazewicz upper bound)."""
        return float(self.etc.max())

    # ------------------------------------------------------------------
    # structural classification
    # ------------------------------------------------------------------
    def is_consistent(self) -> bool:
        """True iff the machine ordering is identical for every task.

        Equivalent to: there exists a permutation of machine columns
        making every row non-decreasing; i.e. all rows sort the machines
        the same way.  We test the standard benchmark property: rows are
        simultaneously ordered by any one row's machine ranking.
        """
        order = np.argsort(self.etc[0], kind="stable")
        reordered = self.etc[:, order]
        return bool(np.all(np.diff(reordered, axis=1) >= 0))

    def is_semi_consistent(self) -> bool:
        """True iff the even-indexed-column sub-matrix is consistent.

        This matches the benchmark construction, where every other
        column is sorted to embed a consistent sub-matrix.
        """
        sub = self.etc[:, ::2]
        if sub.shape[1] < 2:
            return False  # no non-trivial sub-matrix to be consistent
        order = np.argsort(sub[0], kind="stable")
        reordered = sub[:, order]
        return bool(np.all(np.diff(reordered, axis=1) >= 0))

    def consistency(self) -> Consistency:
        """Classify the matrix as consistent / semi-consistent / inconsistent."""
        if self.is_consistent():
            return Consistency.CONSISTENT
        if self.is_semi_consistent():
            return Consistency.SEMI_CONSISTENT
        return Consistency.INCONSISTENT

    # ------------------------------------------------------------------
    # heterogeneity metrics (Ali et al. 2000 use value ranges; we report
    # the coefficient of variation, the modern summary)
    # ------------------------------------------------------------------
    def task_heterogeneity(self) -> float:
        """Mean over machines of the coefficient of variation across tasks."""
        col_mean = self.etc.mean(axis=0)
        col_std = self.etc.std(axis=0)
        return float(np.mean(col_std / col_mean))

    def machine_heterogeneity(self) -> float:
        """Mean over tasks of the coefficient of variation across machines."""
        row_mean = self.etc.mean(axis=1)
        row_std = self.etc.std(axis=1)
        return float(np.mean(row_std / row_mean))

    # ------------------------------------------------------------------
    # notation & bounds
    # ------------------------------------------------------------------
    def blazewicz_notation(self) -> str:
        """Blazewicz et al. (1983) three-field notation used by the paper.

        Consistent matrices are uniform-machine problems (``Q``);
        inconsistent and semi-consistent ones are unrelated machines
        (``R``).
        """
        env = "Q" if self.consistency() is Consistency.CONSISTENT else "R"
        return f"{env}{self.nmachines}|{self.pj_min:.2f} <= pj <= {self.pj_max:.2f}|Cmax"

    def makespan_lower_bound(self) -> float:
        """Simple lower bound on the optimal makespan.

        max( best-machine work / nmachines spread , longest single task ):
        the total work if every task ran on its fastest machine divided
        evenly, and the unavoidable cost of the hardest single task.
        """
        best = self.etc.min(axis=1)
        lb_area = float(best.sum() / self.nmachines)
        lb_task = float(best.max())
        return max(lb_area, lb_task)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ETCMatrix):
            return NotImplemented
        return (
            self.etc.shape == other.etc.shape
            and bool(np.array_equal(self.etc, other.etc))
            and bool(np.array_equal(self.ready_times, other.ready_times))
        )

    def __hash__(self) -> int:  # content digest; like __eq__, ignores the name
        return hash((self.etc.shape, float(self.etc.sum())))

    def __repr__(self) -> str:
        label = self.name or "<unnamed>"
        return (
            f"ETCMatrix({label}, {self.ntasks}x{self.nmachines}, "
            f"{self.consistency().name.lower()}, pj in [{self.pj_min:.2f}, {self.pj_max:.2f}])"
        )
