"""Local search operators — H2LL (Algorithm 4) and ablation variants.

**H2LL** ("highest to N least loaded"): per iteration, pick a random
task on the most loaded machine (whose completion time *is* the
makespan) and move it to whichever of the N least-loaded candidate
machines yields the smallest new completion time, provided that new
completion time stays below the current makespan.  The paper
parameterizes the number of passes (``iter`` ∈ {5, 10} in Table 1) and
uses the transposed ETC matrix for the candidate scan (§3.3).

``N`` is ``nmachines // 2`` by default — Algorithm 4's loop over the
"first half" of the machines sorted by ascending completion time.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.etc.model import ETCMatrix

__all__ = ["h2ll", "h2ll_steepest", "random_move_ls", "LOCAL_SEARCHES"]

LocalSearch = Callable[[np.ndarray, np.ndarray, ETCMatrix, np.random.Generator, int], int]


def h2ll(
    s: np.ndarray,
    ct: np.ndarray,
    instance: ETCMatrix,
    rng: np.random.Generator,
    iterations: int = 5,
    n_candidates: int | None = None,
) -> int:
    """Run ``iterations`` H2LL passes in place; return #moves applied.

    Each pass is O(m log m) for the machine sort plus O(ntasks) to list
    the loaded machine's tasks and O(N) for the candidate scan — no
    full re-evaluation anywhere (§3.3).
    """
    if iterations <= 0:
        return 0
    etc = instance.etc  # one task's row over all machines is contiguous
    nm = instance.nmachines
    ncand = n_candidates if n_candidates is not None else max(1, nm // 2)
    ncand = min(ncand, nm - 1) or 1
    moves = 0
    # the per-machine scalar work is faster on Python floats than on
    # 16-element ndarrays (profiled: numpy call overhead dominated)
    ct_l = ct.tolist()
    picks = rng.random(iterations)  # one pre-drawn uniform per pass
    for it in range(iterations):
        order = sorted(range(nm), key=ct_l.__getitem__)  # ascending load
        worst = order[-1]
        tasks = (s == worst).nonzero()[0]  # flatnonzero minus wrappers
        if tasks.size == 0:
            break  # ready times alone define the makespan; nothing to move
        task = int(tasks[int(picks[it] * tasks.size)])
        row = etc[task].tolist()  # ETC of `task` on every machine
        best_score = ct_l[worst]  # the makespan (Algorithm 4 line 4)
        best_mac = -1
        for mac in order[:ncand]:
            new_score = ct_l[mac] + row[mac]
            if new_score < best_score:
                best_mac = mac
                best_score = new_score
        if best_mac >= 0:
            ct_l[worst] -= row[worst]
            ct_l[best_mac] = best_score
            s[task] = best_mac
            moves += 1
    if moves:
        ct[:] = ct_l
    return moves


def h2ll_steepest(
    s: np.ndarray,
    ct: np.ndarray,
    instance: ETCMatrix,
    rng: np.random.Generator,
    iterations: int = 5,
    n_candidates: int | None = None,
) -> int:
    """Ablation variant: examine *every* task on the loaded machine.

    Instead of a random task, choose the (task, candidate) pair that
    minimizes the new completion time.  Stronger per pass but
    O(#tasks-on-machine × N) — the ablation bench quantifies whether
    the paper's cheap randomized choice is the better trade.
    """
    if iterations <= 0:
        return 0
    etc_t = instance.etc_t
    ncand = n_candidates if n_candidates is not None else max(1, instance.nmachines // 2)
    ncand = min(ncand, instance.nmachines - 1) or 1
    moves = 0
    for _ in range(iterations):
        order = np.argsort(ct, kind="stable")
        worst = int(order[-1])
        tasks = np.flatnonzero(s == worst)
        if tasks.size == 0:
            break
        candidates = order[:ncand]
        # (|tasks|, N) matrix of resulting completion times
        scores = ct[candidates][None, :] + etc_t[np.ix_(candidates, tasks)].T
        flat = int(scores.argmin())
        ti, ki = divmod(flat, candidates.size)
        if scores[ti, ki] < float(ct[worst]):
            task = int(tasks[ti])
            best_mac = int(candidates[ki])
            ct[worst] -= etc_t[worst, task]
            ct[best_mac] += etc_t[best_mac, task]
            s[task] = best_mac
            moves += 1
        else:
            break  # steepest descent reached a local optimum
    return moves


def random_move_ls(
    s: np.ndarray,
    ct: np.ndarray,
    instance: ETCMatrix,
    rng: np.random.Generator,
    iterations: int = 5,
    n_candidates: int | None = None,
) -> int:
    """Baseline LS: random task → random machine, keep if makespan improves.

    The weakest sensible hill-climber; isolates how much of H2LL's value
    comes from targeting the most loaded machine.
    """
    if iterations <= 0:
        return 0
    etc_t = instance.etc_t
    nm = instance.nmachines
    moves = 0

    # top-3 (value, machine) pairs, descending: the "max of the rest"
    # excluding the two machines touched by a move is always among the
    # top 3, so the inner loop needs no np.delete allocation — the old
    # formulation allocated an (nm-2,) copy per iteration.
    def top3() -> list[tuple[float, int]]:
        if nm <= 3:
            order = np.argsort(ct)[::-1]
        else:
            part = np.argpartition(ct, nm - 3)[nm - 3:]
            order = part[np.argsort(ct[part])[::-1]]
        return [(float(ct[i]), int(i)) for i in order[:3]]

    peak = top3()
    for _ in range(iterations):
        t = int(rng.integers(0, instance.ntasks))
        m = int(rng.integers(0, nm))
        old = int(s[t])
        if old == m:
            continue
        before = peak[0][0]  # the current makespan
        new_src = float(ct[old] - etc_t[old, t])
        new_dst = float(ct[m] + etc_t[m, t])
        rest = 0.0  # ready-time-free floor, as np.delete(...).max(initial=0.0)
        for value, machine in peak:
            if machine != old and machine != m:
                rest = value
                break
        after = max(rest, new_src, new_dst)
        if after < before:
            ct[old] = new_src
            ct[m] = new_dst
            s[t] = m
            moves += 1
            peak = top3()  # only accepted moves change ct
    return moves


#: registry used by :class:`repro.cga.config.CGAConfig`.
LOCAL_SEARCHES: dict[str, LocalSearch] = {
    "h2ll": h2ll,
    "h2ll-steepest": h2ll_steepest,
    "random-move": random_move_ls,
}
