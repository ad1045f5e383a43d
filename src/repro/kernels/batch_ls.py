"""Population-wide H2LL local search (batch Algorithm 4).

One H2LL pass for *every* individual is a handful of array ops: a
row-argmax for the loaded machines, an inverse-CDF draw for the random
task on each, an ``argpartition`` over the CT matrix for the N
least-loaded candidate machines, and one ETC gather for the candidate
scan.  The scalar reference (:func:`repro.cga.local_search.h2ll`)
iterates candidates in ascending-load order and keeps the first
improving machine on ties; the batch kernel takes the argmin over the
candidate set, so tie-breaks can differ — every accepted move still
strictly reduces that row's makespan, the invariant the equivalence
tests assert.

Gathers and scatters use flat row-major offsets (``row * width + col``)
instead of 2-D fancy indexing, so ``s`` and ``ct`` must be C-contiguous
(``ValueError`` otherwise).  This is bit-exact with the 2-D form kept in
``tests/test_kernels.py``: same RNG calls, same float operands in order.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.etc.model import ETCMatrix
from repro.kernels.batch_ct import _require_c_contiguous

__all__ = ["batch_h2ll", "BATCH_LOCAL_SEARCHES"]

BatchLocalSearch = Callable[
    [np.ndarray, np.ndarray, ETCMatrix, np.random.Generator, int, int | None], int
]

#: rejection-sampling draws per row before falling back to an exact scan.
_PICK_DRAWS = 64


def _random_task_on(
    s: np.ndarray, machine: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Uniform random task assigned to ``machine[p]`` in every row ``p``.

    Returns ``(task, found)``; rows whose machine holds no task get
    ``found=False``.  Rejection sampling: the first hit among K uniform
    task draws is uniform over the row's task set, and with the typical
    ``ntasks/nmachines`` load a row misses all K draws with probability
    ``(1 - 1/nm)^K`` — the few misses fall back to an exact segmented
    scan restricted to those rows.  This avoids the O(P·ntasks)
    membership scan that dominated the profile.
    """
    P, nt = s.shape
    machine = machine.astype(s.dtype)[:, None]  # same-dtype compares are ~2x faster
    draws = rng.random((P, _PICK_DRAWS))
    draws *= nt  # float-multiply draw, the same pick idiom as the scalar h2ll
    draws = draws.astype(np.int64)
    hit = s.reshape(-1)[draws + np.arange(0, P * nt, nt)[:, None]] == machine
    first = np.arange(0, P * _PICK_DRAWS, _PICK_DRAWS) + hit.argmax(axis=1)
    found = hit.reshape(-1)[first]
    task = draws.reshape(-1)[first]
    miss = np.flatnonzero(~found)
    if miss.size:
        idx_r, idx_t = np.divmod(np.flatnonzero(s[miss] == machine[miss]), nt)
        if idx_r.size:
            counts = np.bincount(idx_r, minlength=miss.size)
            starts = np.concatenate(([0], np.cumsum(counts[:-1])))
            target = (rng.random(miss.size) * counts).astype(np.int64)
            picked = idx_t[np.minimum(starts + target, idx_t.size - 1)]
            nonempty = counts > 0
            task[miss[nonempty]] = picked[nonempty]
            found[miss[nonempty]] = True
    return task, found


def batch_h2ll(
    s: np.ndarray,
    ct: np.ndarray,
    instance: ETCMatrix,
    rng: np.random.Generator,
    iterations: int = 5,
    n_candidates: int | None = None,
) -> int:
    """Run ``iterations`` H2LL passes on every row in place.

    Returns the total number of moves applied across the population.
    Each pass costs O(P·ntasks) for the task pick plus O(P·N) for the
    candidate scan — independent of how many rows actually move.
    """
    _require_c_contiguous(s=s, ct=ct)
    if iterations <= 0:
        return 0
    P, nt = s.shape
    nm = instance.nmachines
    ncand = n_candidates if n_candidates is not None else max(1, nm // 2)
    ncand = min(ncand, nm - 1) or 1
    s_flat, ct_flat = s.reshape(-1), ct.reshape(-1)
    etc = instance.etc.reshape(-1)
    ct_row = np.arange(0, P * nm, nm)  # flat offset of each row of ct
    moves = 0
    for _ in range(iterations):
        worst = ct.argmax(axis=1)
        task, found = _random_task_on(s, worst, rng)
        if not found.any():
            break  # ready times alone define every makespan
        # N least-loaded machines per row (unordered within the set)
        part = np.argpartition(ct, ncand - 1, axis=1)
        cand = part[:, :ncand]
        scores = ct_flat[cand + ct_row[:, None]] + etc[cand + (task * nm)[:, None]]
        ki = scores.argmin(axis=1)
        best_mac = part.reshape(-1)[ct_row + ki]
        best_score = scores.reshape(-1)[np.arange(0, P * ncand, ncand) + ki]
        makespan = ct_flat[ct_row + worst]
        apply = found & (best_score < makespan) & (best_mac != worst)
        r = np.flatnonzero(apply)
        if r.size:
            tr, wr, br = task[r], worst[r], best_mac[r]
            ct_flat[ct_row[r] + wr] -= etc[tr * nm + wr]
            ct_flat[ct_row[r] + br] = best_score[r]
            s_flat[r * nt + tr] = br
            moves += int(r.size)
    return moves


#: registry keyed by the same names as :data:`repro.cga.local_search.LOCAL_SEARCHES`.
BATCH_LOCAL_SEARCHES: dict[str, BatchLocalSearch] = {
    "h2ll": batch_h2ll,
}
