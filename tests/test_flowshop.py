"""Permutation flow shop: DP evaluation, Taillard acceleration, NEH,
instance I/O and end-to-end runs through every engine."""

import numpy as np
import pytest

from repro.problems.flowshop import (
    _CT_BLOCK,
    FLOWSHOP,
    FlowShopInstance,
    FlowShopSchedule,
    _batch_ox_fill,
    _ox_fill,
    batch_flowshop_ct,
    flowshop_ct,
    insertion_makespans,
    load_flowshop_instance,
    make_flowshop,
    neh_order,
    save_flowshop_instance,
)


@pytest.fixture
def inst():
    return make_flowshop(10, 4, seed=1)


def _brute_ct(p, s):
    """Reference O(n*m) DP with explicit table (no rolling row)."""
    n, m = len(s), p.shape[1]
    c = np.zeros((n, m))
    for i, j in enumerate(s):
        for k in range(m):
            up = c[i - 1, k] if i else 0.0
            left = c[i, k - 1] if k else 0.0
            c[i, k] = max(up, left) + p[j, k]
    return c[-1]


def _ref_batch_ct(p, S):
    """Cell-by-cell population DP: one vector op per (position, machine)."""
    P, n = S.shape
    m = p.shape[1]
    C = np.zeros((P, m), dtype=np.float64)
    for t in range(n):
        pj = p[S[:, t]]
        C[:, 0] += pj[:, 0]
        for k in range(1, m):
            np.maximum(C[:, k], C[:, k - 1], out=C[:, k])
            C[:, k] += pj[:, k]
    return C


def _ref_insertion_makespans(p, R, jobs):
    """Cell-by-cell Taillard pass with explicit e, q and f tables."""
    P, L = R.shape
    m = p.shape[1]
    e = np.zeros((P, L + 1, m), dtype=np.float64)
    for i in range(1, L + 1):
        pj = p[R[:, i - 1]]
        prev = e[:, i - 1]
        cur = e[:, i]
        cur[:, 0] = prev[:, 0] + pj[:, 0]
        for k in range(1, m):
            np.maximum(cur[:, k - 1], prev[:, k], out=cur[:, k])
            cur[:, k] += pj[:, k]
    q = np.zeros((P, L + 1, m), dtype=np.float64)
    for i in range(L - 1, -1, -1):
        pj = p[R[:, i]]
        nxt = q[:, i + 1]
        cur = q[:, i]
        cur[:, m - 1] = nxt[:, m - 1] + pj[:, m - 1]
        for k in range(m - 2, -1, -1):
            np.maximum(cur[:, k + 1], nxt[:, k], out=cur[:, k])
            cur[:, k] += pj[:, k]
    pj = p[jobs][:, None, :]
    f = np.empty((P, L + 1, m), dtype=np.float64)
    f[:, :, 0] = e[:, :, 0] + pj[:, :, 0]
    for k in range(1, m):
        np.maximum(f[:, :, k - 1], e[:, :, k], out=f[:, :, k])
        f[:, :, k] += pj[:, :, k]
    return (f + q).max(axis=2)


def _ref_neh_order(p):
    """NEH over the cell-by-cell insertion reference."""
    order = np.argsort(-p.sum(axis=1), kind="stable")
    seq = np.asarray([order[0]], dtype=np.int32)
    for job in order[1:]:
        ms = _ref_insertion_makespans(p, seq[None, :], np.asarray([job]))[0]
        seq = np.insert(seq, int(ms.argmin()), np.int32(job))
    return seq


#: (njobs, nmachines, integer times) — covers m=1 (a diagonal with no
#: machine >= 1) and n=2 (insertion into a single-job sequence, L=1).
KERNEL_SHAPES = [
    (9, 4, True),
    (9, 4, False),
    (7, 1, True),
    (7, 1, False),
    (2, 3, True),
    (2, 3, False),
    (2, 1, False),
    (30, 12, False),
]


def _kernel_instance(n, m, integer, seed=0):
    if integer:
        return make_flowshop(n, m, seed=seed)
    rng = np.random.default_rng(seed)
    # log-uniform times spanning 4 decades make every sum round
    return FlowShopInstance(np.exp(rng.uniform(-4.0, 5.0, size=(n, m))), name="float")


class TestAntiDiagonalKernel:
    """The wavefront DP is bit-identical to the cell-by-cell sweeps."""

    # _CT_BLOCK + 2 rows span two tables: the block split must not show
    @pytest.mark.parametrize("P", [1, 6, _CT_BLOCK + 2])
    @pytest.mark.parametrize("n,m,integer", KERNEL_SHAPES)
    def test_batch_ct_exact(self, n, m, integer, P, rng):
        inst = _kernel_instance(n, m, integer)
        S = np.stack([rng.permutation(n).astype(np.int32) for _ in range(P)])
        CT = batch_flowshop_ct(inst, S)
        assert CT.shape == (P, m)
        assert np.array_equal(CT, _ref_batch_ct(inst.p, S))
        for r in range(P):
            assert np.array_equal(CT[r], flowshop_ct(inst, S[r]))

    @pytest.mark.parametrize("P", [1, 6])
    @pytest.mark.parametrize("n,m,integer", KERNEL_SHAPES)
    def test_insertion_makespans_exact(self, n, m, integer, P, rng):
        inst = _kernel_instance(n, m, integer)
        S = np.stack([rng.permutation(n).astype(np.int32) for _ in range(P)])
        R, jobs = S[:, 1:], S[:, 0]
        ms = insertion_makespans(inst, R, jobs)
        assert ms.shape == (P, n)
        assert np.array_equal(ms, _ref_insertion_makespans(inst.p, R, jobs))

    @pytest.mark.parametrize("n,m,integer", KERNEL_SHAPES)
    def test_neh_order_exact(self, n, m, integer):
        inst = _kernel_instance(n, m, integer, seed=3)
        assert np.array_equal(neh_order(inst), _ref_neh_order(inst.p))

    def test_out_of_range_job_raises(self, rng):
        inst = _kernel_instance(9, 4, True)
        assert inst.pT.dtype == np.int32  # the int32 path checks its indices too
        S = rng.permuted(np.tile(np.arange(9, dtype=np.int32), (3, 1)), axis=1)
        S[1, 4] = 9
        with pytest.raises(IndexError):
            batch_flowshop_ct(inst, S)
        with pytest.raises(IndexError):
            insertion_makespans(inst, S[:, 1:], S[:, 0])

    @pytest.mark.parametrize("integer", [True, False], ids=["integral", "float"])
    def test_index_dtype_and_layout_do_not_matter(self, integer, rng):
        inst = _kernel_instance(9, 4, integer)
        S = rng.permuted(np.tile(np.arange(9, dtype=np.int32), (6, 1)), axis=1)
        jobs = S[:, 0]
        flip = np.ascontiguousarray(S[:, ::-1])
        ct, ct_flip = batch_flowshop_ct(inst, S), batch_flowshop_ct(inst, flip)
        ms = insertion_makespans(inst, S[:, 1:], jobs)
        ms_flip = insertion_makespans(inst, flip[:, :-1], jobs)
        for dtype in (np.int32, np.intp):
            T = S.astype(dtype)
            assert np.array_equal(batch_flowshop_ct(inst, T), ct)
            assert np.array_equal(batch_flowshop_ct(inst, T[:, ::-1]), ct_flip)
            assert np.array_equal(insertion_makespans(inst, T[:, 1:], jobs), ms)
            assert np.array_equal(insertion_makespans(inst, T[:, :0:-1], jobs), ms_flip)


def _times_summing_to(total, n=6, m=3):
    """Integral ``(n, m)`` times, the largest cell first, summing to ``total``."""
    p = np.ones((n, m))
    p[0, 0] = total - (n * m - 1)
    return p


class TestTableDtype:
    """Integral instances run the batch DP in int32, exactly; others in float64."""

    def test_integral_instance_gets_int32(self):
        inst = make_flowshop(9, 4, seed=1)
        assert inst.pT.dtype == inst.pT_stack.dtype == np.int32
        assert inst.p.dtype == np.float64

    def test_one_fractional_time_gets_float64(self):
        p = make_flowshop(9, 4, seed=1).p.copy()
        p[3, 2] += 0.5
        assert FlowShopInstance(p).pT.dtype == np.float64

    def test_int32_bound_is_twice_the_total(self):
        assert FlowShopInstance(_times_summing_to(2**30 - 1)).pT.dtype == np.int32
        assert FlowShopInstance(_times_summing_to(2**30)).pT.dtype == np.float64

    @pytest.mark.parametrize(
        "p",
        [
            make_flowshop(9, 4, seed=1).p,
            make_flowshop(9, 4, seed=1).p + np.eye(9, 4) * 0.25,
            # integral, the largest total that runs in int32
            _times_summing_to(2**30 - 1),
            # integral, just past the int32 bound
            _times_summing_to(2**30),
        ],
        ids=["int32", "fractional", "int32-at-bound", "integral-past-bound"],
    )
    def test_every_table_dtype_is_exact_and_returns_float64(self, p, rng):
        inst = FlowShopInstance(p)
        n = inst.njobs
        S = np.stack([rng.permutation(n).astype(np.int32) for _ in range(5)])
        S[0] = np.arange(n)  # the big job first: the longest paths
        CT = batch_flowshop_ct(inst, S)
        assert CT.dtype == np.float64
        assert np.array_equal(CT, _ref_batch_ct(inst.p, S))
        for r in range(len(S)):
            assert np.array_equal(CT[r], flowshop_ct(inst, S[r]))
        R, jobs = S[:, 1:], S[:, 0]
        ms = insertion_makespans(inst, R, jobs)
        assert ms.dtype == np.float64
        assert np.array_equal(ms, _ref_insertion_makespans(inst.p, R, jobs))
        for r in range(len(S)):
            for i in range(n):
                full = np.insert(R[r], i, jobs[r]).astype(np.int32)
                assert ms[r, i] == flowshop_ct(inst, full)[-1]


class TestBatchOxFill:
    """The batch mask fill equals the scalar one row by row."""

    #: mask kind -> mask from a uniform draw per position
    MASKS = {
        "empty": lambda u: u < 0,
        "full": lambda u: u >= 0,
        "sparse": lambda u: u < 0.1,
        "half": lambda u: u < 0.5,
    }

    @pytest.mark.parametrize("kind", list(MASKS))
    @pytest.mark.parametrize("P,n", [(1, 9), (7, 9), (5, 2), (1, 2), (16, 40)])
    def test_matches_scalar(self, P, n, kind, rng):
        base = np.tile(np.arange(n, dtype=np.int32), (P, 1))
        p1, p2 = rng.permuted(base, axis=1), rng.permuted(base, axis=1)
        mask = self.MASKS[kind](rng.random((P, n)))
        child = _batch_ox_fill(p1, p2, mask)
        assert child.shape == p1.shape and child.dtype == p1.dtype
        for r in range(P):
            assert np.array_equal(child[r], _ox_fill(p1[r], p2[r], mask[r]))
            assert np.array_equal(np.sort(child[r]), np.arange(n))


class TestEvaluation:
    def test_scalar_dp_matches_reference(self, inst, rng):
        for _ in range(30):
            s = rng.permutation(inst.njobs).astype(np.int32)
            ct = flowshop_ct(inst, s)
            ref = _brute_ct(inst.p, s)
            np.testing.assert_allclose(ct, ref, rtol=1e-12)
            # the ct row is nondecreasing and ends at the makespan
            assert (np.diff(ct) >= 0).all()
            assert ct.max() == ct[-1]

    def test_batch_matches_scalar_bitexact(self, inst, rng):
        S = np.stack(
            [rng.permutation(inst.njobs).astype(np.int32) for _ in range(12)]
        )
        CT = batch_flowshop_ct(inst, S)
        for i in range(12):
            assert np.array_equal(CT[i], flowshop_ct(inst, S[i]))

    def test_single_machine_is_cumsum(self):
        inst1 = make_flowshop(6, 1, seed=2)
        s = np.arange(6, dtype=np.int32)
        ct = flowshop_ct(inst1, s)
        assert ct[0] == pytest.approx(inst1.p[:, 0].sum())

    def test_lower_bound_holds(self, inst, rng):
        lb = inst.makespan_lower_bound()
        for _ in range(20):
            s = rng.permutation(inst.njobs).astype(np.int32)
            assert flowshop_ct(inst, s)[-1] >= lb - 1e-9


class TestTaillardInsertion:
    def test_matches_full_dp_at_every_position(self, inst, rng):
        for _ in range(10):
            perm = rng.permutation(inst.njobs).astype(np.int32)
            R, jobs = perm[:-1][None, :], perm[-1:]
            ms = insertion_makespans(inst, R, jobs)[0]
            L = R.shape[1]
            for pos in range(L + 1):
                full = np.insert(R[0], pos, jobs[0]).astype(np.int32)
                assert ms[pos] == pytest.approx(
                    flowshop_ct(inst, full)[-1], rel=1e-12
                )


class TestNEH:
    def test_neh_is_feasible_and_beats_random(self, inst, rng):
        order = neh_order(inst)
        FLOWSHOP.check_genome(inst, order)
        neh_ms = flowshop_ct(inst, order)[-1]
        random_ms = [
            flowshop_ct(inst, rng.permutation(inst.njobs).astype(np.int32))[-1]
            for _ in range(50)
        ]
        assert neh_ms <= np.mean(random_ms)

    def test_schedule_wrapper(self, inst):
        sched = FlowShopSchedule(inst, neh_order(inst))
        assert sched.makespan() == pytest.approx(
            float(flowshop_ct(inst, sched.s)[-1])
        )


class TestInstanceIO:
    def test_generator_pattern_roundtrip(self):
        inst = load_flowshop_instance("fs8x3.5")
        assert (inst.njobs, inst.nmachines) == (8, 3)
        again = load_flowshop_instance("fs8x3.5")
        assert inst == again

    def test_file_roundtrip(self, inst, tmp_path):
        path = tmp_path / "inst.fsp"
        save_flowshop_instance(inst, path)
        back = load_flowshop_instance(str(path))
        assert back == inst
        assert back.name == inst.name

    def test_bad_spec_lists_valid_forms(self):
        with pytest.raises(ValueError, match="generator spec"):
            load_flowshop_instance("no_such_thing")

    def test_rejects_degenerate_matrices(self):
        with pytest.raises(ValueError):
            FlowShopInstance(np.ones((1, 3)), name="one-job")
        with pytest.raises(ValueError):
            FlowShopInstance(-np.ones((4, 3)), name="negative")


class TestProblemAdoption:
    """build_context resolves the workload from the *instance*."""

    def test_default_config_adopts_flowshop(self):
        from repro.cga import AsyncCGA, CGAConfig, StopCondition

        inst = make_flowshop(8, 3, seed=1)
        # no problem= — a default (independent) config must still
        # resolve flow-shop operators, like Population does
        eng = AsyncCGA(inst, CGAConfig(grid_rows=4, grid_cols=4), rng=0)
        assert eng.config.problem == "flowshop"  # corrected at build time
        res = eng.run(StopCondition(max_generations=2))
        assert res.best_fitness > 0

    def test_foreign_operator_fails_with_problem_error(self):
        from repro.cga import AsyncCGA, CGAConfig

        inst = make_flowshop(8, 3, seed=1)
        with pytest.raises(ValueError, match="for problem 'flowshop'"):
            AsyncCGA(inst, CGAConfig(mutation="rebalance"), rng=0)


class TestEndToEnd:
    ENGINES = [
        ("async", 1, {}),
        ("sync", 1, {}),
        ("vectorized", 1, {}),
        ("sim", 2, {}),
        ("threads", 2, {"lockstep": True}),
        ("shm", 2, {"lockstep": True}),
    ]

    @pytest.mark.parametrize("name,n_threads,extras", ENGINES)
    def test_every_engine_runs_flowshop(self, name, n_threads, extras):
        from repro.cga import CGAConfig, StopCondition
        from repro.runtime.registry import create_engine

        inst = make_flowshop(12, 4, seed=3)
        config = CGAConfig(
            problem="flowshop",
            grid_rows=4,
            grid_cols=4,
            ls_iterations=3,
            n_threads=n_threads,
        )
        engine = create_engine(name, inst, config, seed=9, **extras)
        result = engine.run(StopCondition(max_evaluations=640))
        assert result.evaluations >= 640
        sched = result.best_schedule(inst)
        assert isinstance(sched, FlowShopSchedule)
        assert result.best_fitness == pytest.approx(sched.makespan())
        assert result.best_fitness >= inst.makespan_lower_bound() - 1e-9
        engine.pop.check_invariants()

    def test_cga_reaches_or_beats_neh(self):
        # quality smoke: on a harder instance the cGA must at least
        # match its NEH seed within the budget
        from repro.cga import CGAConfig, StopCondition
        from repro.cga.engine import AsyncCGA

        inst = make_flowshop(20, 5, seed=0)
        neh_ms = float(flowshop_ct(inst, neh_order(inst))[-1])
        config = CGAConfig(
            problem="flowshop", grid_rows=6, grid_cols=6, ls_iterations=5
        )
        result = AsyncCGA(inst, config, rng=0).run(
            StopCondition(max_evaluations=4000)
        )
        assert result.best_fitness <= neh_ms + 1e-9


class TestCLI:
    def test_solve_flag(self, capsys):
        from repro.cli import main

        rc = main(
            [
                "solve",
                "--problem",
                "flowshop",
                "--engine",
                "async",
                "--evals",
                "300",
                "--gantt",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "fs20x5.0" in out
        assert "job order" in out

    def test_problems_listing(self, capsys):
        from repro.cli import main

        rc = main(["problems"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "flowshop" in out and "independent" in out

    def test_generate_flowshop(self, tmp_path, capsys):
        from repro.cli import main

        out_path = tmp_path / "fs.txt"
        rc = main(
            [
                "generate",
                "--problem",
                "flowshop",
                "--ntasks",
                "6",
                "--nmachines",
                "3",
                "--out",
                str(out_path),
            ]
        )
        assert rc == 0
        inst = load_flowshop_instance(str(out_path))
        assert (inst.njobs, inst.nmachines) == (6, 3)
