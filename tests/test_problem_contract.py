"""Registry-parametrized contract suite for every registered problem.

Every :class:`repro.problems.SchedulingProblem` must honor the same
contracts regardless of workload: delta evaluation must match full
re-evaluation, batch kernels must match the scalar reference
bit-exactly, every variation operator must preserve genome feasibility
and CT exactness, and a checkpointed run must resume bit-exactly.
Adding a problem to the registry automatically runs it through this
file — there is no per-problem test to forget.
"""

import numpy as np
import pytest

from repro.problems import PROBLEMS, problem_names, problem_of, resolve_problem

#: small per-problem instances, cheap enough for 1000-move replay
_INSTANCE_SPECS = {
    "independent": "g32x8",
    "flowshop": "fs12x4.2",
}

#: extra suite runs on a variant instance: case id -> problem name.
#: ``independent-ready`` gives every machine a nonzero ready time, so
#: each CT path must start a machine from it exactly as ``evaluate`` does.
_VARIANT_CASES = {"independent-ready": "independent"}


def _instance_for(problem, ready=False):
    if problem.name == "independent":
        from repro.etc import make_instance
        from repro.etc.model import ETCMatrix

        inst = make_instance(32, 8, "i", seed=2)
        if ready:
            ready_times = np.random.default_rng(3).random(8) * inst.etc.mean() * 4
            inst = ETCMatrix(inst.etc, ready_times=ready_times, name="g32x8+ready")
        return inst
    return problem.load_instance(_INSTANCE_SPECS[problem.name])


@pytest.fixture(params=[*problem_names(), *_VARIANT_CASES])
def case(request):
    return request.param


@pytest.fixture
def problem(case):
    name = _VARIANT_CASES.get(case, case)
    assert name in _INSTANCE_SPECS, (
        f"problem {name!r} has no contract-suite instance; "
        "add one to _INSTANCE_SPECS"
    )
    return resolve_problem(name)


@pytest.fixture
def instance(case, problem):
    return _instance_for(problem, ready=case in _VARIANT_CASES)


class TestRegistry:
    def test_registered_name_matches(self, problem):
        assert PROBLEMS[problem.name] is problem

    def test_instance_maps_back_to_problem(self, problem, instance):
        assert problem.owns_instance(instance)
        assert problem_of(instance) is problem

    def test_unknown_problem_lists_valid_names(self):
        with pytest.raises(ValueError, match="independent"):
            resolve_problem("nonesuch")

    def test_default_instance_loads(self, problem):
        inst = problem.load_instance(problem.default_instance)
        assert problem.owns_instance(inst)


class TestDeltaEvaluation:
    def test_1000_random_moves_match_full_reeval(self, problem, instance):
        """The delta-evaluation gate: replay 1000 random feasible moves
        through the problem's incremental machinery and hold its CT to
        the full re-evaluation at every step."""
        rng = np.random.default_rng(11)
        s = problem.random_genomes(instance, rng, (1, instance.ntasks))[0]
        ct = problem.evaluate(instance, s).astype(np.float64)
        for i in range(1000):
            predicted = problem.random_move(s, ct, instance, rng)
            problem.check_genome(instance, s)
            full = problem.evaluate(instance, s)
            np.testing.assert_allclose(ct, full, rtol=1e-9, atol=1e-6)
            assert predicted == pytest.approx(float(full.max()), rel=1e-9)


class TestBatchKernels:
    def test_population_ct_matches_scalar_bitexact(self, problem, instance):
        rng = np.random.default_rng(5)
        S = problem.random_genomes(instance, rng, (16, instance.ntasks))
        CT = problem.population_ct(instance, S)
        assert CT.shape == (16, instance.nmachines)
        for i in range(16):
            row = problem.evaluate(instance, S[i])
            assert np.array_equal(CT[i], row), f"row {i} diverges from scalar"

    def test_batch_fitness_matches_ct_max(self, problem, instance):
        if not problem.has_batch_kernels:
            pytest.skip("no batch suite")
        rng = np.random.default_rng(6)
        S = problem.random_genomes(instance, rng, (8, instance.ntasks))
        CT = problem.population_ct(instance, S)
        fit = problem.batch_fitness[problem.default_fitness](S, CT, instance)
        assert np.array_equal(fit, CT.max(axis=1))

    def test_batch_mutations_keep_ct_exact(self, problem, instance):
        if not problem.has_batch_kernels:
            pytest.skip("no batch suite")
        for name, kernel in problem.batch_mutations.items():
            rng = np.random.default_rng(7)
            S = problem.random_genomes(instance, rng, (12, instance.ntasks))
            CT = problem.population_ct(instance, S)
            active = rng.random(12) < 0.7
            kernel(S, CT, instance, rng, active)
            for i in range(12):
                problem.check_genome(instance, S[i])
                problem.check_ct(instance, S[i], CT[i])

    def test_batch_local_search_never_worsens(self, problem, instance):
        if not problem.has_batch_kernels:
            pytest.skip("no batch suite")
        for name, kernel in problem.batch_local_searches.items():
            rng = np.random.default_rng(8)
            S = problem.random_genomes(instance, rng, (12, instance.ntasks))
            CT = problem.population_ct(instance, S)
            before = CT.max(axis=1).copy()
            kernel(S, CT, instance, rng, 5, None)
            after = CT.max(axis=1)
            assert (after <= before + 1e-9).all(), f"{name} worsened a row"
            for i in range(12):
                problem.check_genome(instance, S[i])
                problem.check_ct(instance, S[i], CT[i])

    def test_batch_recombine_preserves_feasibility(self, problem, instance):
        if not problem.has_batch_kernels:
            pytest.skip("no batch suite")
        for name, mask_fn in problem.batch_cross_masks.items():
            rng = np.random.default_rng(9)
            P = 12
            P1 = problem.random_genomes(instance, rng, (P, instance.ntasks))
            P2 = problem.random_genomes(instance, rng, (P, instance.ntasks))
            child_s = P1.copy()
            child_ct = problem.population_ct(instance, child_s)
            mask = mask_fn(P, instance.ntasks, rng)
            child_s = problem.batch_recombine(instance, child_s, child_ct, P2, mask)
            for i in range(P):
                problem.check_genome(instance, child_s[i])
                problem.check_ct(instance, child_s[i], child_ct[i])


class TestScalarOperators:
    def test_crossovers_preserve_feasibility(self, problem, instance):
        for name, op in problem.crossovers.items():
            rng = np.random.default_rng(13)
            for _ in range(25):
                p1 = problem.random_genomes(instance, rng, (1, instance.ntasks))[0]
                p2 = problem.random_genomes(instance, rng, (1, instance.ntasks))[0]
                p1_ct = problem.evaluate(instance, p1)
                child_s, child_ct = problem.recombine(
                    instance, p1, p1_ct, p2, op, rng
                )
                problem.check_genome(instance, child_s)
                problem.check_ct(instance, child_s, child_ct)

    def test_mutations_preserve_feasibility(self, problem, instance):
        for name, op in problem.mutations.items():
            rng = np.random.default_rng(14)
            s = problem.random_genomes(instance, rng, (1, instance.ntasks))[0]
            ct = problem.evaluate(instance, s).astype(np.float64)
            for _ in range(50):
                op(s, ct, instance, rng)
                problem.check_genome(instance, s)
                problem.check_ct(instance, s, ct)

    def test_local_searches_preserve_feasibility(self, problem, instance):
        for name, ls in problem.local_searches.items():
            rng = np.random.default_rng(15)
            s = problem.random_genomes(instance, rng, (1, instance.ntasks))[0]
            ct = problem.evaluate(instance, s).astype(np.float64)
            moves = ls(s, ct, instance, rng, iterations=10)
            assert isinstance(moves, int)
            problem.check_genome(instance, s)
            problem.check_ct(instance, s, ct)

    def test_seed_schedules_are_feasible(self, problem, instance):
        from repro.cga.config import CGAConfig

        config = CGAConfig(problem=problem.name, grid_rows=4, grid_cols=4)
        seeds = problem.seed_schedules(instance, config) or []
        assert seeds, "seeding enabled by default but no seeds returned"
        for sched in seeds:
            problem.check_genome(instance, np.asarray(sched.s))


class TestCheckpointResume:
    def test_v3_mid_run_resume_is_bitexact(self, problem, instance, tmp_path):
        """Checkpoint an async run mid-flight, resume through the
        universal v3 machinery, and demand the exact same trajectory as
        the uninterrupted run."""
        from repro.cga import CGAConfig, StopCondition
        from repro.cga.engine import AsyncCGA
        from repro.runtime.checkpoint import (
            load_state,
            resume_engine,
            save_checkpoint,
        )

        config = CGAConfig(
            problem=problem.name, grid_rows=4, grid_cols=4, ls_iterations=2
        )
        straight = AsyncCGA(instance, config, rng=5)
        res_straight = straight.run(StopCondition(max_generations=8))

        first = AsyncCGA(instance, config, rng=5)
        first.run(StopCondition(max_generations=4))
        path = tmp_path / "mid.json"
        save_checkpoint(first, path, stop=StopCondition(max_generations=4))

        state = load_state(path)
        assert state["format_version"] == 3
        assert state["problem"] == problem.name
        # counters resume cumulatively: the continuation runs to the
        # straight run's total budget, not another 8 generations
        engine, _ = resume_engine(state, instance=instance)
        res_resumed = engine.run(StopCondition(max_generations=8))

        assert res_resumed.best_fitness == res_straight.best_fitness
        assert np.array_equal(
            res_resumed.best_assignment, res_straight.best_assignment
        )
        assert np.array_equal(engine.pop.s, straight.pop.s)
        assert np.array_equal(engine.pop.ct, straight.pop.ct)

    def test_restore_rejects_problem_mismatch(self, tmp_path):
        from repro.cga import CGAConfig, StopCondition
        from repro.cga.engine import AsyncCGA
        from repro.runtime.checkpoint import capture_state, restore_state

        fs = resolve_problem("flowshop")
        etc = resolve_problem("independent")
        eng_fs = AsyncCGA(
            _instance_for(fs),
            CGAConfig(problem="flowshop", grid_rows=4, grid_cols=4),
            rng=1,
        )
        eng_fs.run(StopCondition(max_generations=1))
        state = capture_state(eng_fs)
        eng_etc = AsyncCGA(
            _instance_for(etc),
            CGAConfig(problem="independent", grid_rows=4, grid_cols=4),
            rng=1,
        )
        with pytest.raises(ValueError, match="problem"):
            restore_state(eng_etc, state)

    def test_v2_checkpoint_defaults_to_independent(self, tmp_path):
        """A pre-problems (v2) snapshot must load with the problem
        defaulted, not crash on the missing config field."""
        from repro.cga import CGAConfig, StopCondition
        from repro.cga.engine import AsyncCGA
        from repro.runtime.checkpoint import capture_state, restore_state

        prob = resolve_problem("independent")
        inst = _instance_for(prob)
        config = CGAConfig(grid_rows=4, grid_cols=4)
        eng = AsyncCGA(inst, config, rng=3)
        eng.run(StopCondition(max_generations=2))
        state = capture_state(eng)
        # rewrite into v2 shape: no problem stamp, no problem config field
        state["format_version"] = 2
        del state["problem"]
        del state["config"]["problem"]
        other = AsyncCGA(inst, config, rng=0)
        restore_state(other, state)
        assert np.array_equal(other.pop.s, eng.pop.s)
