"""Tests for the virtual-time discrete-event PA-CGA simulator."""

import hashlib

import numpy as np
import pytest

from repro.cga import CGAConfig, StopCondition
from repro.parallel import CostModel, SimulatedPACGA


CFG = CGAConfig(grid_rows=6, grid_cols=6, ls_iterations=2, seed_with_minmin=False)
FAST = CostModel(jitter_sigma=0.0)


class TestDeterminism:
    def test_same_seed_same_outcome(self, tiny_instance):
        r1 = SimulatedPACGA(tiny_instance, CFG.with_(n_threads=3), seed=5).run(
            StopCondition(virtual_time=0.003)
        )
        r2 = SimulatedPACGA(tiny_instance, CFG.with_(n_threads=3), seed=5).run(
            StopCondition(virtual_time=0.003)
        )
        assert r1.best_fitness == r2.best_fitness
        assert r1.evaluations == r2.evaluations
        assert np.array_equal(r1.best_assignment, r2.best_assignment)

    def test_different_seed_differs(self, tiny_instance):
        r1 = SimulatedPACGA(tiny_instance, CFG.with_(n_threads=3), seed=1).run(
            StopCondition(virtual_time=0.003)
        )
        r2 = SimulatedPACGA(tiny_instance, CFG.with_(n_threads=3), seed=2).run(
            StopCondition(virtual_time=0.003)
        )
        assert r1.best_fitness != r2.best_fitness or r1.evaluations != r2.evaluations

    def test_cost_model_does_not_touch_genetics(self, tiny_instance):
        # same seed, different cost model: same generation count => the
        # genetic stream must produce the same first-sweep population
        a = SimulatedPACGA(tiny_instance, CFG.with_(n_threads=1), seed=3, cost_model=FAST)
        b = SimulatedPACGA(
            tiny_instance,
            CFG.with_(n_threads=1),
            seed=3,
            cost_model=CostModel(t_breed=50.0, jitter_sigma=0.0),
        )
        ra = a.run(StopCondition(max_generations=2))
        rb = b.run(StopCondition(max_generations=2))
        assert ra.best_fitness == rb.best_fitness


class TestStopConditions:
    def test_virtual_time_budget(self, tiny_instance):
        res = SimulatedPACGA(tiny_instance, CFG.with_(n_threads=2), seed=0).run(
            StopCondition(virtual_time=0.002)
        )
        # every thread's clock reached the budget (possibly overran by a sweep)
        assert all(c >= 0.002 for c in res.extra["per_thread_clocks"])

    def test_overrun_bounded_by_one_sweep(self, tiny_instance):
        model = FAST
        sim = SimulatedPACGA(
            tiny_instance, CFG.with_(n_threads=2), seed=0, cost_model=model
        )
        budget = 0.002
        res = sim.run(StopCondition(virtual_time=budget))
        block = 18  # 36 cells over 2 threads
        worst_step = model.step_cost(2, 2, True) * 1e-6
        for clock in res.extra["per_thread_clocks"]:
            assert clock <= budget + block * worst_step + 1e-12

    def test_max_evaluations(self, tiny_instance):
        res = SimulatedPACGA(tiny_instance, CFG.with_(n_threads=3), seed=0).run(
            StopCondition(max_evaluations=100)
        )
        assert res.evaluations == 100

    def test_max_generations(self, tiny_instance):
        res = SimulatedPACGA(tiny_instance, CFG.with_(n_threads=2), seed=0).run(
            StopCondition(max_generations=3)
        )
        assert all(g >= 3 for g in res.extra["per_thread_generations"])

    def test_requires_sim_compatible_bound(self, tiny_instance):
        sim = SimulatedPACGA(tiny_instance, CFG, seed=0)
        with pytest.raises(ValueError, match="virtual_time"):
            sim.run(StopCondition(wall_time_s=1.0))


class TestSemantics:
    def test_single_thread_matches_canonical_order(self, tiny_instance):
        # with one logical thread the schedule is one fixed line sweep
        sim = SimulatedPACGA(tiny_instance, CFG.with_(n_threads=1), seed=0)
        res = sim.run(StopCondition(max_generations=2))
        assert res.extra["per_thread_generations"] == [2]
        assert res.evaluations == 2 * 36

    def test_boundary_fraction_zero_single_thread(self, tiny_instance):
        sim = SimulatedPACGA(tiny_instance, CFG.with_(n_threads=1), seed=0)
        assert sim.boundary_fraction == 0.0

    def test_boundary_fraction_grows(self, tiny_instance):
        fracs = [
            SimulatedPACGA(tiny_instance, CFG.with_(n_threads=n), seed=0).boundary_fraction
            for n in (2, 3, 4)
        ]
        assert fracs[0] < fracs[-1]

    def test_population_invariants_after_run(self, tiny_instance):
        sim = SimulatedPACGA(tiny_instance, CFG.with_(n_threads=4), seed=7)
        sim.run(StopCondition(virtual_time=0.005))
        sim.pop.check_invariants()

    def test_history_records_mean_and_best(self, tiny_instance):
        sim = SimulatedPACGA(tiny_instance, CFG.with_(n_threads=2), seed=0)
        res = sim.run(StopCondition(max_generations=4))
        assert len(res.history) > 1
        for gen, evals, best, mean in res.history:
            assert best <= mean

    def test_history_stride(self, tiny_instance):
        dense = SimulatedPACGA(tiny_instance, CFG.with_(n_threads=2), seed=0)
        sparse = SimulatedPACGA(
            tiny_instance, CFG.with_(n_threads=2), seed=0, history_stride=4
        )
        rd = dense.run(StopCondition(max_generations=4))
        rs = sparse.run(StopCondition(max_generations=4))
        assert len(rs.history) < len(rd.history)

    def test_invalid_history_stride(self, tiny_instance):
        with pytest.raises(ValueError):
            SimulatedPACGA(tiny_instance, CFG, seed=0, history_stride=0)

    def test_more_ls_fewer_evaluations_per_budget(self, tiny_instance):
        # LS makes each step cost more virtual time
        light = SimulatedPACGA(
            tiny_instance, CFG.with_(n_threads=1, ls_iterations=0), seed=0, cost_model=FAST
        ).run(StopCondition(virtual_time=0.01))
        heavy = SimulatedPACGA(
            tiny_instance, CFG.with_(n_threads=1, ls_iterations=10), seed=0, cost_model=FAST
        ).run(StopCondition(virtual_time=0.01))
        assert heavy.evaluations < light.evaluations

    def test_improves_over_initial(self, small_instance):
        sim = SimulatedPACGA(small_instance, CFG.with_(n_threads=3), seed=0)
        initial = sim.pop.best()[1]
        res = sim.run(StopCondition(virtual_time=0.01))
        assert res.best_fitness < initial


def pop_digest(pop) -> str:
    """SHA-256 of the population's genomes and fitnesses."""
    return hashlib.sha256(
        np.ascontiguousarray(pop.s).tobytes() + np.ascontiguousarray(pop.fitness).tobytes()
    ).hexdigest()


class TestPinnedVirtualTimeRun:
    """Exact values of a sim(3) run under a ``virtual_time`` stop.

    The goldens pin only ``max_evaluations`` runs; these pin the virtual
    clocks, the per-thread sweep-boundary stop (thread 0 is just under
    the budget and breeds one more sweep) and the final population.
    """

    def test_meanfield(self, small_instance):
        sim = SimulatedPACGA(small_instance, CFG.with_(n_threads=3), seed=3)
        res = sim.run(StopCondition(virtual_time=0.006315))
        assert res.elapsed_s == 0.007864427518473056
        assert res.evaluations == 156
        assert res.extra["per_thread_evaluations"] == [60, 48, 48]
        assert res.extra["per_thread_generations"] == [5, 4, 4]
        assert res.extra["per_thread_clocks"] == [
            0.007864427518473056, 0.00631717918153105, 0.0063198160913051265
        ]
        assert "lock_conflicts" not in res.extra
        assert res.best_fitness == 3574879.5604057247
        assert pop_digest(sim.pop) == (
            "3456bf198a29e769465471eaa38b410835611de612d3cd69913c857c72977d0d"
        )


class TestCostModelCheckpoint:
    """A checkpoint records the simulator's cost model, so a resumed run
    charges the same virtual durations as the run it continues."""

    def test_resume_keeps_a_custom_cost_model(self, small_instance):
        from repro.runtime import capture_state, resume_engine

        model = CostModel(t_breed=30.0)
        stop = StopCondition(virtual_time=0.02)
        straight = SimulatedPACGA(
            small_instance, CFG.with_(n_threads=3), seed=1, cost_model=model
        )
        snap = {}

        def keep_first(engine):
            if not snap:
                snap.update(capture_state(engine, stop=stop))

        straight.arm_checkpoint(2, keep_first)
        res = straight.run(stop)
        resumed, embedded = resume_engine(snap, instance=small_instance)
        assert resumed.cost_model == model
        again = resumed.run(embedded)
        assert again.evaluations == res.evaluations
        assert again.elapsed_s == res.elapsed_s
        assert pop_digest(resumed.pop) == pop_digest(straight.pop)

    def test_checkpoint_without_a_cost_model_resumes_with_the_default(
        self, small_instance
    ):
        from repro.parallel import XEON_E5440
        from repro.runtime import capture_state, resume_engine

        sim = SimulatedPACGA(small_instance, CFG.with_(n_threads=3), seed=1)
        state = capture_state(sim, stop=StopCondition(virtual_time=0.02))
        del state["engine_options"]["cost_model"]
        resumed, _ = resume_engine(state, instance=small_instance)
        assert resumed.cost_model == XEON_E5440
