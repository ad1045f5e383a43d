"""Kernel-vs-scalar equivalence: batch kernels must reproduce the
scalar ``Schedule``/operator semantics on randomized instances.

These tests gate the vectorized engine: every batch kernel is checked
against its scalar reference (``compute_completion_times``,
``Schedule.apply_delta`` for the ETC recombine's CT delta, the fitness
functions, the selectors) or, for
the randomized kernels, against the invariants the scalar operator
guarantees (CT stays exact, makespan never increases under H2LL,
assignments stay in range).
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cga.fitness import makespan_fitness, weighted_fitness
from repro.cga.selection import best_two, center_plus_best
from repro.etc import load_benchmark, make_instance
from repro.etc.model import ETCMatrix
from repro.kernels import (
    BATCH_CROSSOVER_MASKS,
    BATCH_FITNESS,
    BATCH_LOCAL_SEARCHES,
    BATCH_MUTATIONS,
    BATCH_SELECTIONS,
    batch_best_two,
    batch_center_plus_best,
    batch_completion_times,
    batch_h2ll,
    batch_makespan,
    batch_mean_flowtime,
    batch_random_pair,
    batch_resync_drift,
    batch_tournament_pair,
    batch_weighted_fitness,
    crossover_mask,
    resolve_batch_ops,
    resolve_batch_selection,
)
from repro.kernels.batch_ls import _random_task_on
from repro.problems.independent import INDEPENDENT
from repro.scheduling.schedule import Schedule, compute_completion_times

# shared hypothesis strategy: a random instance geometry + seed
geometries = st.tuples(
    st.integers(min_value=2, max_value=40),  # ntasks
    st.integers(min_value=2, max_value=12),  # nmachines
    st.integers(min_value=0, max_value=2**31 - 1),  # seed
)


def _random_batch(ntasks, nmachines, seed, P=7):
    inst = make_instance(ntasks, nmachines, consistency="i", seed=seed % 997, name="prop")
    rng = np.random.default_rng(seed)
    S = rng.integers(0, nmachines, size=(P, ntasks)).astype(np.int32)
    return inst, rng, S


class TestBatchCompletionTimes:
    @settings(max_examples=25, deadline=None)
    @given(geometries)
    def test_matches_scalar_rowwise(self, geom):
        inst, _, S = _random_batch(*geom)
        ct = batch_completion_times(inst, S)
        for i in range(S.shape[0]):
            np.testing.assert_array_equal(ct[i], compute_completion_times(inst, S[i]))

    def test_respects_ready_times(self, rng):
        """Bit for bit with ready times: ready time first, then tasks in index order.

        On u_c_hihi.0 any other accumulation order (e.g. adding the ready
        times after summing the tasks) is off by ~1e-8, so only the
        scalar recompute's order passes ``array_equal``.
        """
        small = make_instance(10, 3, consistency="i", seed=5)
        paper = load_benchmark("u_c_hihi.0")
        cases = [
            (ETCMatrix(small.etc, ready_times=np.array([1.0, 2.0, 3.0]), name="ready"), 4),
            (ETCMatrix(paper.etc, ready_times=rng.random(16) * paper.etc.mean() * 10, name="ready"), 16),
        ]
        for inst, P in cases:
            S = rng.integers(0, inst.nmachines, size=(P, inst.ntasks)).astype(np.int32)
            ct = batch_completion_times(inst, S)
            for i in range(P):
                np.testing.assert_array_equal(ct[i], compute_completion_times(inst, S[i]))
        assert INDEPENDENT.population_ct is batch_completion_times

    def test_rejects_bad_shape(self, tiny_instance):
        with pytest.raises(ValueError, match="must be"):
            batch_completion_times(tiny_instance, np.zeros(tiny_instance.ntasks, dtype=np.int32))


class TestBatchCtDelta:
    """The CT delta, through the ETC recombine the engines run."""

    @settings(max_examples=25, deadline=None)
    @given(geometries)
    def test_matches_apply_delta(self, geom):
        inst, rng, S = _random_batch(*geom)
        ct = batch_completion_times(inst, S)
        new_S = S.copy()
        # random reassignment of a random subset of genes per row
        flip = rng.random(S.shape) < 0.4
        new_S[flip] = rng.integers(0, inst.nmachines, size=int(flip.sum()), dtype=np.int32)
        child = INDEPENDENT.batch_recombine(inst, S, ct, new_S, flip)
        np.testing.assert_array_equal(child, new_S)
        for i in range(S.shape[0]):
            sched = Schedule(inst, S[i])
            changed = np.flatnonzero(S[i] != new_S[i])
            sched.apply_delta(changed, new_S[i, changed])
            np.testing.assert_allclose(ct[i], sched.ct, rtol=1e-9, atol=1e-6)

    def test_noop_delta_keeps_ct(self, tiny_instance, rng):
        S = rng.integers(0, tiny_instance.nmachines, size=(3, tiny_instance.ntasks)).astype(np.int32)
        ct = batch_completion_times(tiny_instance, S)
        expected = ct.copy()
        mask = np.ones(S.shape, dtype=bool)
        child = INDEPENDENT.batch_recombine(tiny_instance, S, ct, S.copy(), mask)
        np.testing.assert_array_equal(child, S)
        np.testing.assert_array_equal(ct, expected)


class TestBatchFitness:
    @settings(max_examples=25, deadline=None)
    @given(geometries)
    def test_makespan_and_flowtime_match_scalar(self, geom):
        inst, _, S = _random_batch(*geom)
        ct = batch_completion_times(inst, S)
        ms = batch_makespan(S, ct, inst)
        wf = batch_weighted_fitness(S, ct, inst)
        mf = batch_mean_flowtime(S, inst)
        for i in range(S.shape[0]):
            assert ms[i] == pytest.approx(makespan_fitness(S[i], ct[i], inst))
            assert wf[i] == pytest.approx(weighted_fitness(S[i], ct[i], inst))
            assert mf[i] == pytest.approx(
                weighted_fitness(S[i], ct[i], inst, lam=0.0), rel=1e-9
            )

    def test_registry_covers_scalar_names(self):
        from repro.cga.fitness import FITNESS

        assert set(BATCH_FITNESS) == set(FITNESS)

    def test_resolve_unknown(self):
        config = SimpleNamespace(
            selection="best2",
            fitness="tardiness",
            mutation="move",
            local_search=None,
            crossover="tpx",
            replacement="if-better",
        )
        with pytest.raises(ValueError, match="no batch kernel for 'tardiness'"):
            resolve_batch_ops(config, problem=INDEPENDENT)


class TestBatchSelection:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_best_two_matches_scalar(self, seed):
        rng = np.random.default_rng(seed)
        fit = rng.random((11, 5)) * 100
        a, b = batch_best_two(fit, rng)
        for i in range(fit.shape[0]):
            sa, sb = best_two(fit[i], rng)
            assert (int(a[i]), int(b[i])) == (sa, sb)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_center_plus_best_matches_scalar(self, seed):
        rng = np.random.default_rng(seed)
        fit = rng.random((11, 5)) * 100
        a, b = batch_center_plus_best(fit, rng)
        for i in range(fit.shape[0]):
            sa, sb = center_plus_best(fit[i], rng)
            assert (int(a[i]), int(b[i])) == (sa, sb)

    def test_random_pair_distinct(self, rng):
        fit = rng.random((200, 5))
        a, b = batch_random_pair(fit, rng)
        assert np.all(a != b)
        assert a.min() >= 0 and a.max() < 5
        assert b.min() >= 0 and b.max() < 5

    def test_tournament_in_range(self, rng):
        fit = rng.random((200, 5))
        a, b = batch_tournament_pair(fit, rng)
        for arr in (a, b):
            assert arr.min() >= 0 and arr.max() < 5

    def test_resolve_unknown(self):
        with pytest.raises(KeyError, match="no batch selection"):
            resolve_batch_selection("rank")  # no batch kernel (weighted sampling)


class TestCrossoverMask:
    @pytest.mark.parametrize("name", sorted(BATCH_CROSSOVER_MASKS))
    def test_child_ct_consistent(self, name, tiny_instance, rng):
        P, nt = 9, tiny_instance.ntasks
        S1 = rng.integers(0, tiny_instance.nmachines, size=(P, nt)).astype(np.int32)
        S2 = rng.integers(0, tiny_instance.nmachines, size=(P, nt)).astype(np.int32)
        ct = batch_completion_times(tiny_instance, S1)
        mask = crossover_mask(BATCH_CROSSOVER_MASKS[name], P, nt, rng)
        child = INDEPENDENT.batch_recombine(tiny_instance, S1, ct, S2, mask)
        np.testing.assert_array_equal(child, np.where(mask, S2, S1))
        assert batch_resync_drift(tiny_instance, child, ct) < 1e-6

    def test_opx_mask_is_suffix(self, rng):
        mask = crossover_mask(BATCH_CROSSOVER_MASKS["opx"], 50, 20, rng)
        # each row: False prefix then True suffix, both non-empty
        for row in mask:
            changes = np.flatnonzero(np.diff(row.astype(int)))
            assert changes.size == 1 and not row[0] and row[-1]

    def test_tpx_mask_is_window(self, rng):
        mask = crossover_mask(BATCH_CROSSOVER_MASKS["tpx"], 50, 20, rng)
        for row in mask:
            changes = np.flatnonzero(np.diff(row.astype(int)))
            assert changes.size <= 2  # single (possibly empty/edge) window

    def test_inactive_rows_untouched(self, rng):
        active = np.zeros(10, dtype=bool)
        mask = crossover_mask(BATCH_CROSSOVER_MASKS["tpx"], 10, 20, rng, active=active)
        assert not mask.any()


class TestBatchMutations:
    @pytest.mark.parametrize("name", sorted(BATCH_MUTATIONS))
    @settings(max_examples=15, deadline=None)
    @given(geometries)
    def test_ct_invariant_and_valid_assignment(self, name, geom):
        inst, rng, S = _random_batch(*geom)
        ct = batch_completion_times(inst, S)
        active = rng.random(S.shape[0]) < 0.7
        BATCH_MUTATIONS[name](S, ct, inst, rng, active)
        assert S.min() >= 0 and S.max() < inst.nmachines
        assert batch_resync_drift(inst, S, ct) < 1e-6

    def test_inactive_rows_untouched(self, tiny_instance, rng):
        S = rng.integers(0, tiny_instance.nmachines, size=(6, tiny_instance.ntasks)).astype(np.int32)
        ct = batch_completion_times(tiny_instance, S)
        before_s, before_ct = S.copy(), ct.copy()
        for name in BATCH_MUTATIONS:
            BATCH_MUTATIONS[name](S, ct, tiny_instance, rng, np.zeros(6, dtype=bool))
        np.testing.assert_array_equal(S, before_s)
        np.testing.assert_array_equal(ct, before_ct)


class TestBatchH2LL:
    @settings(max_examples=15, deadline=None)
    @given(geometries)
    def test_h2ll_invariants(self, geom):
        """Batch H2LL: monotone per-row makespan, exact CT, valid S."""
        inst, rng, S = _random_batch(*geom)
        ct = batch_completion_times(inst, S)
        before = ct.max(axis=1).copy()
        moves = batch_h2ll(S, ct, inst, rng, iterations=5)
        after = ct.max(axis=1)
        assert np.all(after <= before + 1e-9)
        assert S.min() >= 0 and S.max() < inst.nmachines
        assert batch_resync_drift(inst, S, ct) < 1e-6
        assert moves >= 0

    def test_improves_unbalanced_population(self, small_instance, rng):
        """Everything on machine 0: one pass must strictly improve."""
        P = 8
        S = np.zeros((P, small_instance.ntasks), dtype=np.int32)
        ct = batch_completion_times(small_instance, S)
        before = ct.max(axis=1).copy()
        moves = batch_h2ll(S, ct, small_instance, rng, iterations=3)
        assert moves > 0
        assert np.all(ct.max(axis=1) < before)

    def test_zero_iterations_noop(self, tiny_instance, rng):
        S = rng.integers(0, tiny_instance.nmachines, size=(3, tiny_instance.ntasks)).astype(np.int32)
        ct = batch_completion_times(tiny_instance, S)
        assert batch_h2ll(S, ct, tiny_instance, rng, iterations=0) == 0

    def test_registry(self):
        assert "h2ll" in BATCH_LOCAL_SEARCHES
        assert set(BATCH_SELECTIONS) >= {"best2", "tournament", "random"}


# ----------------------------------------------------------------------
# exact references: the 2-D-index formulations the flat kernels replaced
# ----------------------------------------------------------------------
def _ref_random_task_on(s, machine, rng):
    P, nt = s.shape
    rows = np.arange(P)
    draws = (rng.random((P, 64)) * nt).astype(np.int64)
    hit = s[rows[:, None], draws] == machine[:, None]
    first = hit.argmax(axis=1)
    found = hit[rows, first]
    task = draws[rows, first]
    miss = np.flatnonzero(~found)
    if miss.size:
        idx_r, idx_t = np.nonzero(s[miss] == machine[miss, None])
        if idx_r.size:
            counts = np.bincount(idx_r, minlength=miss.size)
            starts = np.concatenate(([0], np.cumsum(counts[:-1])))
            target = (rng.random(miss.size) * counts).astype(np.int64)
            picked = idx_t[np.minimum(starts + target, idx_t.size - 1)]
            nonempty = counts > 0
            task[miss[nonempty]] = picked[nonempty]
            found[miss[nonempty]] = True
    return task, found


def _ref_batch_h2ll(s, ct, instance, rng, iterations=5, n_candidates=None):
    if iterations <= 0:
        return 0
    P = s.shape[0]
    nm = instance.nmachines
    ncand = n_candidates if n_candidates is not None else max(1, nm // 2)
    ncand = min(ncand, nm - 1) or 1
    etc = instance.etc
    rows = np.arange(P)
    moves = 0
    for _ in range(iterations):
        worst = ct.argmax(axis=1)
        task, found = _ref_random_task_on(s, worst, rng)
        if not found.any():
            break
        cand = np.argpartition(ct, ncand - 1, axis=1)[:, :ncand]
        scores = ct[rows[:, None], cand] + etc[task[:, None], cand]
        ki = scores.argmin(axis=1)
        best_mac = cand[rows, ki]
        best_score = scores[rows, ki]
        makespan = ct[rows, worst]
        apply = found & (best_score < makespan) & (best_mac != worst)
        r = np.flatnonzero(apply)
        if r.size:
            tr, wr, br = task[r], worst[r], best_mac[r]
            ct[r, wr] -= etc[tr, wr]
            ct[r, br] = best_score[r]
            s[r, tr] = br
            moves += int(r.size)
    return moves


def _ref_batch_ct_delta(instance, ct, old_S, new_S):
    P, nm = ct.shape
    rows, tasks = np.nonzero(old_S != new_S)
    if rows.size == 0:
        return
    old = old_S[rows, tasks]
    new = new_S[rows, tasks]
    etc = instance.etc
    sub = np.bincount(rows * nm + old, weights=etc[tasks, old], minlength=P * nm)
    add = np.bincount(rows * nm + new, weights=etc[tasks, new], minlength=P * nm)
    ct += (add - sub).reshape(P, nm)


def _ref_mask(name, P, n, rng):
    if n < 2:
        return np.zeros((P, n), dtype=bool)
    cols = np.arange(n)[None, :]
    if name == "opx":
        return cols >= rng.integers(1, n, size=P)[:, None]
    cuts = rng.integers(0, n + 1, size=(P, 2))
    return (cols >= cuts.min(axis=1)[:, None]) & (cols < cuts.max(axis=1)[:, None])


def _twin(seed):
    """Two generators in the same state: one for the kernel, one for the reference."""
    return np.random.default_rng(seed), np.random.default_rng(seed)


def _assert_same_stream(rng, ref_rng):
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def _miss_heavy(ntasks, nmachines, seed, P=24):
    """Machine ``nmachines - 1`` holds one task in odd rows and none in even rows.

    With one holder among ``ntasks`` genes the 64 rejection draws mostly
    miss, so the exact fallback runs; the even rows have no task at all,
    so it must leave them unfound.
    """
    inst, rng, S = _random_batch(ntasks, nmachines, seed, P)
    S %= nmachines - 1
    S[np.arange(1, P, 2), rng.integers(0, ntasks, size=P // 2)] = nmachines - 1
    return inst, rng, S


class TestFlatKernelsMatch2DReference:
    """The flat-index kernels are bit-identical to the 2-D formulation,
    output for output, and leave the RNG stream in the same state."""

    @settings(max_examples=25, deadline=None)
    @given(geometries)
    def test_random_task_on(self, geom):
        random_rows = _random_batch(*geom, P=13)
        worst = np.random.default_rng(geom[2]).integers(0, geom[1], 13)
        miss_heavy = _miss_heavy(200, geom[1], geom[2])
        for (inst, _, S), machine in ((random_rows, worst), (miss_heavy, np.full(24, geom[1] - 1))):
            rng, ref_rng = _twin(geom[2])
            task, found = _random_task_on(S, machine, rng)
            ref_task, ref_found = _ref_random_task_on(S, machine, ref_rng)
            np.testing.assert_array_equal(task, ref_task)
            np.testing.assert_array_equal(found, ref_found)
            _assert_same_stream(rng, ref_rng)

    def test_random_task_on_miss_heavy_draws_fallback(self):
        inst, _, S = _miss_heavy(512, 16, 5)
        machine = np.full(S.shape[0], 15)
        rng, ref_rng = _twin(5)
        task, found = _random_task_on(S, machine, rng)
        ref_task, ref_found = _ref_random_task_on(S, machine, ref_rng)
        np.testing.assert_array_equal(task, ref_task)
        np.testing.assert_array_equal(found, ref_found)
        _assert_same_stream(rng, ref_rng)
        assert found[1::2].all() and not found[::2].any()
        assert (S[np.arange(1, S.shape[0], 2), task[1::2]] == 15).all()

    def test_empty_machine_fallback_draws_nothing(self):
        """Every row misses and no row holds the machine: no fallback draw."""
        S = np.zeros((5, 30), dtype=np.int32)
        rng, ref_rng = _twin(9)
        task, found = _random_task_on(S, np.ones(5, dtype=np.int64), rng)
        ref_task, ref_found = _ref_random_task_on(S, np.ones(5, dtype=np.int64), ref_rng)
        assert not found.any() and not ref_found.any()
        np.testing.assert_array_equal(task, ref_task)
        _assert_same_stream(rng, ref_rng)
        fresh = np.random.default_rng(9)
        fresh.random((5, 64))  # the rejection block is the only draw
        _assert_same_stream(rng, fresh)

    @settings(max_examples=25, deadline=None)
    @given(geometries, st.integers(min_value=1, max_value=6))
    def test_batch_h2ll(self, geom, iterations):
        for inst, _, S in (_random_batch(*geom, P=11), _miss_heavy(120, geom[1], geom[2])):
            ct = batch_completion_times(inst, S)
            ref_S, ref_ct = S.copy(), ct.copy()
            rng, ref_rng = _twin(geom[2])
            moves = batch_h2ll(S, ct, inst, rng, iterations)
            ref_moves = _ref_batch_h2ll(ref_S, ref_ct, inst, ref_rng, iterations)
            assert moves == ref_moves
            np.testing.assert_array_equal(S, ref_S)
            np.testing.assert_array_equal(ct, ref_ct)
            _assert_same_stream(rng, ref_rng)

    def test_batch_h2ll_worst_machine_without_tasks(self):
        """Ready times make an empty machine the worst: found is all-False, no move."""
        base = make_instance(20, 4, consistency="i", seed=2)
        inst = ETCMatrix(base.etc, ready_times=np.array([0.0, 0.0, 0.0, 1e12]), name="ready")
        S = np.random.default_rng(2).integers(0, 3, size=(6, 20)).astype(np.int32)
        ct = batch_completion_times(inst, S)
        ref_S, ref_ct = S.copy(), ct.copy()
        rng, ref_rng = _twin(4)
        assert batch_h2ll(S, ct, inst, rng, 3) == _ref_batch_h2ll(ref_S, ref_ct, inst, ref_rng, 3) == 0
        np.testing.assert_array_equal(S, ref_S)
        np.testing.assert_array_equal(ct, ref_ct)
        _assert_same_stream(rng, ref_rng)

    def test_batch_h2ll_single_row_and_candidates(self, small_instance):
        for P, ncand in ((1, None), (1, 1), (9, 3), (9, 50)):
            S = np.random.default_rng(P).integers(0, 8, size=(P, 64)).astype(np.int32)
            ct = batch_completion_times(small_instance, S)
            ref_S, ref_ct = S.copy(), ct.copy()
            rng, ref_rng = _twin(P)
            moves = batch_h2ll(S, ct, small_instance, rng, 5, ncand)
            assert moves == _ref_batch_h2ll(ref_S, ref_ct, small_instance, ref_rng, 5, ncand)
            np.testing.assert_array_equal(S, ref_S)
            np.testing.assert_array_equal(ct, ref_ct)
            _assert_same_stream(rng, ref_rng)

    def test_batch_h2ll_integer_etc_ties(self):
        """Small integer ETC values tie loads, scores and makespans."""
        for seed in range(5):
            gen = np.random.default_rng(seed)
            inst = ETCMatrix(gen.integers(1, 4, size=(30, 5)).astype(np.float64), name="ties")
            S = gen.integers(0, 5, size=(40, 30)).astype(np.int32)
            ct = batch_completion_times(inst, S)
            ref_S, ref_ct = S.copy(), ct.copy()
            rng, ref_rng = _twin(seed)
            moves = batch_h2ll(S, ct, inst, rng, 6)
            assert moves == _ref_batch_h2ll(ref_S, ref_ct, inst, ref_rng, 6)
            np.testing.assert_array_equal(S, ref_S)
            np.testing.assert_array_equal(ct, ref_ct)
            _assert_same_stream(rng, ref_rng)

    @settings(max_examples=25, deadline=None)
    @given(geometries)
    def test_batch_ct_delta(self, geom):
        """The CT delta, through the ETC recombine, equals the 2-D form."""
        inst, rng, S = _random_batch(*geom)
        ct = batch_completion_times(inst, S)
        new_S = S.copy()
        flip = rng.random(S.shape) < 0.4
        new_S[flip] = rng.integers(0, inst.nmachines, size=int(flip.sum()), dtype=np.int32)
        ref_ct = ct.copy()
        INDEPENDENT.batch_recombine(inst, S, ct, new_S, flip)
        _ref_batch_ct_delta(inst, ref_ct, S, new_S)
        np.testing.assert_array_equal(ct, ref_ct)

    @settings(max_examples=25, deadline=None)
    @given(geometries, st.sampled_from(sorted(BATCH_CROSSOVER_MASKS)))
    def test_etc_recombine(self, geom, name):
        """The ETC recombine equals ``np.where`` + the 2-D delta."""
        inst, rng, S1 = _random_batch(*geom)
        S2 = rng.integers(0, inst.nmachines, size=S1.shape).astype(np.int32)
        ct = batch_completion_times(inst, S1)
        mask = crossover_mask(
            BATCH_CROSSOVER_MASKS[name], S1.shape[0], inst.ntasks, rng, rng.random(S1.shape[0]) < 0.8
        )
        ref_ct = ct.copy()
        child = INDEPENDENT.batch_recombine(inst, S1, ct, S2, mask)
        ref_child = np.where(mask, S2, S1)
        _ref_batch_ct_delta(inst, ref_ct, S1, ref_child)
        np.testing.assert_array_equal(child, ref_child)
        np.testing.assert_array_equal(ct, ref_ct)
        assert not np.shares_memory(child, S1)

    @pytest.mark.parametrize("name", ["opx", "tpx"])
    @pytest.mark.parametrize("P,n", [(1, 2), (1, 1), (7, 2), (3, 3), (40, 17), (128, 512)])
    def test_masks(self, name, P, n):
        rng, ref_rng = _twin(P * 1000 + n)
        for active in (None, np.zeros(P, dtype=bool), np.arange(P) % 2 == 0):
            mask = crossover_mask(BATCH_CROSSOVER_MASKS[name], P, n, rng, active)
            ref = _ref_mask(name, P, n, ref_rng)
            if active is not None:
                ref &= active[:, None]
            np.testing.assert_array_equal(mask, ref)
            assert mask.flags.writeable
            _assert_same_stream(rng, ref_rng)

    def test_non_contiguous_in_place_arguments_rejected(self, tiny_instance, rng):
        S = rng.integers(0, 4, size=(6, 2 * tiny_instance.ntasks)).astype(np.int32)
        strided_S = S[:, ::2]
        ct = batch_completion_times(tiny_instance, strided_S)
        with pytest.raises(ValueError, match="s must be C-contiguous"):
            batch_h2ll(strided_S, ct, tiny_instance, rng, 1)
        strided_ct = np.asfortranarray(ct)
        with pytest.raises(ValueError, match="ct must be C-contiguous"):
            batch_h2ll(strided_S.copy(), strided_ct, tiny_instance, rng, 1)
        with pytest.raises(ValueError, match="ct must be C-contiguous"):
            INDEPENDENT.batch_recombine(
                tiny_instance, strided_S.copy(), strided_ct, strided_S.copy(), strided_S > 0
            )
