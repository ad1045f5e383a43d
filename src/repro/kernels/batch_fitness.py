"""Batch fitness kernels.

Makespan is a row-max over the CT matrix; the weighted objective needs
the mean flowtime of every individual, computed here for the whole
population with one global lexsort + segmented cumulative sum instead
of a per-machine Python loop (the scalar reference is
:func:`repro.cga.fitness.weighted_fitness`).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.cga.fitness import DEFAULT_LAMBDA
from repro.etc.model import ETCMatrix

__all__ = [
    "batch_makespan",
    "batch_mean_flowtime",
    "batch_weighted_fitness",
    "BATCH_FITNESS",
]

BatchFitness = Callable[[np.ndarray, np.ndarray, ETCMatrix], np.ndarray]


def batch_makespan(S: np.ndarray, ct: np.ndarray, instance: ETCMatrix) -> np.ndarray:
    """Makespan of every individual (eq. 3): a row-max over CT."""
    return ct.max(axis=1)


def batch_mean_flowtime(S: np.ndarray, instance: ETCMatrix) -> np.ndarray:
    """Mean SPT flowtime of every individual, ``(P, ntasks) -> (P,)``.

    Every (individual, machine) pair is one segment of the globally
    sorted task list; sorting once by ``(row, machine, time)`` and
    taking a segmented cumulative sum evaluates all P individuals in a
    single O(P·n log(P·n)) pass.  Per segment the flowtime is
    ``sum_k (ready + prefix_sum_k)``, identical to the scalar rule.
    """
    nt, nm = instance.ntasks, instance.nmachines
    S = np.asarray(S)
    P = S.shape[0]
    v = instance.etc[np.arange(nt)[None, :], S].ravel()  # ETC of each task on its machine
    key = (np.arange(P)[:, None] * nm + S).ravel()  # (row, machine) segment id
    order = np.lexsort((v, key))
    sv = v[order].reshape(P, nt)  # sorted by key => each row's nt entries contiguous
    sk = key[order]
    cs = np.cumsum(sv, axis=1)  # row-local prefix sums (bounds rounding per row)
    flow = cs.sum(axis=1)
    # per (row, machine) segment: the internal prefix sum at position j is
    # cs[j] - cs[segment start - 1], so the segment's flowtime correction is
    # count * (ready - prefix before the segment)
    starts = np.flatnonzero(np.r_[True, sk[1:] != sk[:-1]])
    counts = np.diff(np.append(starts, sk.size))
    seg_row = sk[starts] // nm
    seg_machine = sk[starts] % nm
    cs_flat = cs.ravel()
    before = np.concatenate(([0.0], cs_flat))[starts]
    before = np.where(starts - seg_row * nt > 0, before, 0.0)  # row-start segments
    np.add.at(flow, seg_row, counts * (instance.ready_times[seg_machine] - before))
    return flow / nt


def batch_weighted_fitness(
    S: np.ndarray, ct: np.ndarray, instance: ETCMatrix, lam: float = DEFAULT_LAMBDA
) -> np.ndarray:
    """Weighted makespan + mean flowtime for every individual."""
    return lam * ct.max(axis=1) + (1.0 - lam) * batch_mean_flowtime(S, instance)


#: registry keyed by the same names as :data:`repro.cga.fitness.FITNESS`.
BATCH_FITNESS: dict[str, BatchFitness] = {
    "makespan": batch_makespan,
    "makespan+flowtime": batch_weighted_fitness,
}
