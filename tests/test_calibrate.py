"""Tests for the cost-model calibration tool."""

import statistics

import pytest

from repro.parallel import XEON_E5440, measure_cost_model, time_breeding_step


class TestTimeBreedingStep:
    def test_positive(self, small_instance):
        t = time_breeding_step(small_instance, ls_iterations=0, samples=200)
        assert t > 0

    def test_ls_increases_cost(self, small_instance):
        t0 = time_breeding_step(small_instance, 0, samples=300)
        t10 = time_breeding_step(small_instance, 10, samples=300)
        assert t10 > t0

    def test_locks_increase_cost(self, small_instance):
        # A shared host's speed drifts up to ~2x over longer than one
        # measurement, so one free run against one locked run taken a
        # moment later can invert; alternate them and compare medians.
        free, locked = [], []
        for _ in range(5):
            free.append(time_breeding_step(small_instance, 0, samples=300, locks=False))
            locked.append(time_breeding_step(small_instance, 0, samples=300, locks=True))
        assert statistics.median(locked) > statistics.median(free)

    def test_rejects_zero_samples(self, small_instance):
        with pytest.raises(ValueError):
            time_breeding_step(small_instance, 0, samples=0)


class TestMeasureCostModel:
    def test_produces_valid_model(self, small_instance):
        model = measure_cost_model(small_instance, samples=300)
        assert model.t_breed > 0
        assert model.t_ls_iter >= 0
        assert model.t_lock >= 0

    def test_inherits_contention_terms(self, small_instance):
        model = measure_cost_model(small_instance, samples=200)
        assert model.t_boundary == XEON_E5440.t_boundary
        assert model.cache_alpha == XEON_E5440.cache_alpha
        assert model.jitter_sigma == XEON_E5440.jitter_sigma

    def test_model_usable_by_simulator(self, tiny_instance, small_instance):
        from repro.cga import CGAConfig, StopCondition
        from repro.parallel import SimulatedPACGA

        model = measure_cost_model(small_instance, samples=200)
        sim = SimulatedPACGA(
            tiny_instance,
            CGAConfig(grid_rows=4, grid_cols=4, n_threads=2, ls_iterations=1,
                      seed_with_minmin=False),
            seed=0,
            cost_model=model,
        )
        res = sim.run(StopCondition(max_generations=2))
        assert res.evaluations > 0
