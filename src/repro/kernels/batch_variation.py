"""Batch crossover masks and batch mutations.

Crossover is factored as in the scalar operators: the *shape* of the
operator is a boolean ``(P, ntasks)`` inheritance mask (True = take the
gene from parent 2), and the problem's ``batch_recombine`` applies it,
deriving the child's CT from parent 1's (for the independent problem by
the incremental delta rule, ``repro.kernels.batch_ct._scatter_ct_delta``).
Mutations update ``(s, ct)`` in place with one O(1)-per-row scatter,
mirroring :mod:`repro.cga.mutation`.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.etc.model import ETCMatrix

__all__ = [
    "crossover_mask",
    "BATCH_CROSSOVER_MASKS",
    "batch_move_mutation",
    "batch_swap_mutation",
    "batch_rebalance_mutation",
    "BATCH_MUTATIONS",
]

MaskFn = Callable[[int, int, np.random.Generator], np.ndarray]
BatchMutation = Callable[[np.ndarray, np.ndarray, ETCMatrix, np.random.Generator, np.ndarray], None]


# ----------------------------------------------------------------------
# crossover masks
# ----------------------------------------------------------------------
@lru_cache(maxsize=8)
def _step_template(n: int) -> np.ndarray:
    """Read-only ``(n + 1, n)`` view whose row ``n - c`` is ``arange(n) >= c``."""
    return sliding_window_view(np.arange(2 * n) >= n, n)


def _one_point_mask(P: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """opx: suffix from parent 2, cut drawn in [1, n-1] per row."""
    if n < 2:
        return np.zeros((P, n), dtype=bool)
    cuts = rng.integers(1, n, size=P)
    return _step_template(n)[n - cuts]


def _two_point_mask(P: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """tpx: parent 2's genes inside a random half-open window per row."""
    if n < 2:
        return np.zeros((P, n), dtype=bool)
    cuts = rng.integers(0, n + 1, size=(P, 2))
    step = _step_template(n)
    # cols >= a and not cols >= b
    return step[n - cuts.min(axis=1)] > step[n - cuts.max(axis=1)]


def _uniform_mask(P: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """uniform: each gene from either parent with p = 1/2."""
    return rng.random((P, n)) < 0.5


#: registry keyed by the same names as :data:`repro.cga.crossover.CROSSOVERS`.
BATCH_CROSSOVER_MASKS: dict[str, MaskFn] = {
    "opx": _one_point_mask,
    "tpx": _two_point_mask,
    "uniform": _uniform_mask,
}


def crossover_mask(
    mask_fn: MaskFn, P: int, n: int, rng: np.random.Generator, active: np.ndarray | None = None
) -> np.ndarray:
    """Inheritance mask for P simultaneous crossovers drawn by ``mask_fn``.

    ``active`` (the per-row ``p_comb`` coin flips) zeroes the mask of
    rows that skip recombination, so those children are parent-1 clones
    exactly as in the scalar breeding step.
    """
    mask = mask_fn(P, n, rng)
    if active is not None:
        mask &= active[:, None]
    return mask


# ----------------------------------------------------------------------
# mutations
# ----------------------------------------------------------------------
def batch_move_mutation(
    s: np.ndarray,
    ct: np.ndarray,
    instance: ETCMatrix,
    rng: np.random.Generator,
    active: np.ndarray,
) -> None:
    """Move one random task to one random machine in every active row."""
    P = s.shape[0]
    t = rng.integers(0, instance.ntasks, size=P)
    m = rng.integers(0, instance.nmachines, size=P, dtype=s.dtype)
    rows = np.arange(P)
    old = s[rows, t]
    r = np.flatnonzero(active & (old != m))
    if r.size == 0:
        return
    tr, mr, oldr = t[r], m[r], old[r]
    etc = instance.etc
    ct[r, oldr] -= etc[tr, oldr]
    ct[r, mr] += etc[tr, mr]
    s[r, tr] = mr


def batch_swap_mutation(
    s: np.ndarray,
    ct: np.ndarray,
    instance: ETCMatrix,
    rng: np.random.Generator,
    active: np.ndarray,
) -> None:
    """Exchange the machines of two random distinct tasks per active row."""
    nt = instance.ntasks
    if nt < 2:
        return
    P = s.shape[0]
    ta = rng.integers(0, nt, size=P)
    tb = rng.integers(0, nt - 1, size=P)
    tb += tb >= ta  # distinct pair, uniform over the other nt-1 tasks
    rows = np.arange(P)
    ma = s[rows, ta]
    mb = s[rows, tb]
    r = np.flatnonzero(active & (ma != mb))
    if r.size == 0:
        return
    tar, tbr, mar, mbr = ta[r], tb[r], ma[r], mb[r]
    etc = instance.etc
    ct[r, mar] += etc[tbr, mar] - etc[tar, mar]
    ct[r, mbr] += etc[tar, mbr] - etc[tbr, mbr]
    s[r, tar] = mbr
    s[r, tbr] = mar


def batch_rebalance_mutation(
    s: np.ndarray,
    ct: np.ndarray,
    instance: ETCMatrix,
    rng: np.random.Generator,
    active: np.ndarray,
) -> None:
    """Move a random task off every active row's most loaded machine."""
    from repro.kernels.batch_ls import _random_task_on

    P = s.shape[0]
    worst = ct.argmax(axis=1)
    t, found = _random_task_on(s, worst, rng)
    if not found.any():
        return
    m = rng.integers(0, instance.nmachines, size=P, dtype=s.dtype)
    r = np.flatnonzero(active & found & (m != worst))
    if r.size == 0:
        return
    tr, mr, wr = t[r], m[r], worst[r]
    etc = instance.etc
    ct[r, wr] -= etc[tr, wr]
    ct[r, mr] += etc[tr, mr]
    s[r, tr] = mr


#: registry keyed by the same names as :data:`repro.cga.mutation.MUTATIONS`.
BATCH_MUTATIONS: dict[str, BatchMutation] = {
    "move": batch_move_mutation,
    "swap": batch_swap_mutation,
    "rebalance": batch_rebalance_mutation,
}
