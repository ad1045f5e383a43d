"""Batch completion-time kernels.

:func:`batch_completion_times` is the one whole-population CT
recompute: the independent problem's ``population_ct`` and the drift
check both run it.  It scatters with ``np.add.at`` over a buffer that
already holds the ready times, so every machine accumulates its ready
time first and then its tasks in index order — the order of the scalar
reference :func:`repro.scheduling.schedule.compute_completion_times`,
which it therefore matches bit for bit, ready times included.

The CT delta finds changed genes by ``flatnonzero`` + ``divmod`` and
gathers ETC at flat row-major offsets; it needs a C-contiguous ``ct``
and is bit-exact with the 2-D ``nonzero`` form (same gene order, so the
same bincount sums).
"""

from __future__ import annotations

import numpy as np

from repro.etc.model import ETCMatrix

__all__ = ["batch_completion_times", "batch_resync_drift"]


def _require_c_contiguous(**arrays: np.ndarray) -> None:
    """Flat in-place writes go through ``reshape(-1)``, a view only if C-contiguous."""
    for name, a in arrays.items():
        if not a.flags.c_contiguous:
            raise ValueError(f"{name} must be C-contiguous, got a strided view")


def batch_completion_times(instance: ETCMatrix, S: np.ndarray) -> np.ndarray:
    """Completion times of every individual: ``(P, ntasks) -> (P, nmachines)``.

    ``out[p, m] = ready[m] + sum of ETC[t, m] over tasks t with
    S[p, t] = m`` — eq. 2 applied to the whole population with one
    flattened, unbuffered scatter-add in the scalar recompute's order.
    """
    nt, nm = instance.ntasks, instance.nmachines
    S = np.asarray(S)
    if S.ndim != 2 or S.shape[1] != nt:
        raise ValueError(f"S must be (P, ntasks={nt}), got {S.shape}")
    P = S.shape[0]
    ct = np.tile(instance.ready_times, P)
    cols = S.ravel()
    vals = instance.etc[np.tile(np.arange(nt), P), cols]
    np.add.at(ct, np.repeat(np.arange(P) * nm, nt) + cols, vals)
    return ct.reshape(P, nm)


def _scatter_ct_delta(instance, ct, changed, old, new) -> None:
    """Move genes at ascending flat ``(P, ntasks)`` indices ``changed`` old -> new."""
    _require_c_contiguous(ct=ct)
    if changed.size == 0:
        return
    P, nm = ct.shape
    rows, tasks = np.divmod(changed, instance.ntasks)
    etc = instance.etc.reshape(-1)
    rows *= nm
    tasks *= nm
    size = P * nm
    sub = np.bincount(rows + old, weights=etc[tasks + old], minlength=size)
    add = np.bincount(rows + new, weights=etc[tasks + new], minlength=size)
    ct += (add - sub).reshape(P, nm)


def batch_resync_drift(instance: ETCMatrix, S: np.ndarray, ct: np.ndarray) -> float:
    """Largest |incremental CT - recomputed CT| over the population.

    The batch analogue of :meth:`Schedule.resync`'s drift report, used
    to assert the CT invariant (~1e-9 relative) after long chains of
    incremental kernel updates.
    """
    fresh = batch_completion_times(instance, S)
    return float(np.abs(fresh - ct).max(initial=0.0))
