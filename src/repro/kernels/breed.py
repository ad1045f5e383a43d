"""The one batch breeding step shared by the batch engines.

:func:`breed` is the only copy of the batch form of the PA-CGA breeding
step (Algorithm 3, lines 3-9, with H2LL as Algorithm 4).
:class:`repro.cga.vectorized.VectorizedSyncCGA` runs it over the whole
population per generation and :class:`repro.parallel.shm.ShmBlockPACGA`
over one block per sweep; each engine passes its own row gathers and
keeps its own write-back.
"""

from __future__ import annotations

import time

import numpy as np

from repro.obs.dynamics import record_breeding

__all__ = ["breed"]


def _lap(rec, key: str, start: float) -> float:
    """Observe the microseconds since ``start`` into ``key``; return now."""
    now = time.perf_counter()
    rec.observe(key, (now - start) * 1e6)
    return now


def breed(
    ops, cfg, inst, rng, cells, nb, fitness, gather_rows, gather_s, rec=None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Breed one child per cell of ``cells``; nothing is written back.

    ``ops`` is a :class:`repro.kernels.BatchOps` suite, ``nb`` the
    ``(B, k)`` neighborhood table of ``cells`` and ``fitness`` the
    population's fitness array, read for selection and for the
    incumbents (lock-free under shm: a stale value is the paper's
    asynchronous semantics, and a float64 load never tears).
    ``gather_rows(ids) -> (s, ct)`` and ``gather_s(ids) -> s`` return
    copies of population rows.  The RNG draws run in one fixed order and
    ``rec`` draws none, so a recorded run is bit-identical to a plain one.

    With a metric recorder ``rec``, the step records the
    ``phase.{select,crossover,mutate,ls,fitness}_us`` timings, one
    ``sweeps``, and the ``op.*`` attribution (against the incumbents,
    before any write-back) with the ``breeding.*`` and ``ls.*``
    counters through :func:`repro.obs.dynamics.record_breeding`, the
    recorder the scalar step's tally flushes through too.

    Returns ``(child_s, child_ct, child_fit, accept)``.
    """
    B = cells.size
    if rec is not None:
        t = time.perf_counter()
    # -- selection: every neighborhood's fitness at once ----------------
    a, b = ops.select(fitness[nb], rng)
    r = np.arange(B)
    p1 = nb[r, a]
    p2 = nb[r, b]
    if rec is not None:
        t = _lap(rec, "phase.select_us", t)
    # -- recombination: inheritance mask + the problem's CT derivation.
    # The child's CT follows from the first parent's (genome, CT) pair
    # and the inherited genes, so the second parent's CT row is never
    # read: only its genome is gathered.
    child_s, child_ct = gather_rows(p1)
    comb = rng.random(B) < cfg.p_comb
    mask = ops.cross_mask(B, inst.ntasks, rng, comb)
    if comb.any():
        child_s = ops.recombine(inst, child_s, child_ct, gather_s(p2), mask)
    if rec is not None:
        t = _lap(rec, "phase.crossover_us", t)
    # -- mutation and local search, in place on the children ------------
    mut = rng.random(B) < cfg.p_mut
    ops.mutate(child_s, child_ct, inst, rng, mut)
    if rec is not None:
        t = _lap(rec, "phase.mutate_us", t)
    ls_rows = None
    moves = 0
    if ops.local_search is not None and cfg.ls_iterations > 0:
        ls_rows = np.flatnonzero(rng.random(B) < cfg.p_ls)
        if ls_rows.size == B:
            moves = ops.local_search(
                child_s, child_ct, inst, rng, cfg.ls_iterations, cfg.ls_candidates
            )
        elif ls_rows.size:
            sub_s = child_s[ls_rows]
            sub_ct = child_ct[ls_rows]
            moves = ops.local_search(
                sub_s, sub_ct, inst, rng, cfg.ls_iterations, cfg.ls_candidates
            )
            child_s[ls_rows] = sub_s
            child_ct[ls_rows] = sub_ct
        if rec is not None:
            t = _lap(rec, "phase.ls_us", t)
    # -- evaluation + elitist replacement against the incumbents --------
    child_fit = ops.fitness(child_s, child_ct, inst)
    if rec is not None:
        _lap(rec, "phase.fitness_us", t)
    incumbent = fitness[cells]  # fancy indexing copies the incumbents
    accept = ops.accept(child_fit, incumbent)
    if rec is not None:
        ls_mask = None
        if ls_rows is not None:
            ls_mask = np.zeros(B, dtype=bool)
            ls_mask[ls_rows] = True
        record_breeding(
            rec, accept, child_fit, incumbent, comb, mut, ls_mask, moves,
            cfg.ls_iterations,
        )
        rec.inc("sweeps")
    return child_s, child_ct, child_fit, accept
