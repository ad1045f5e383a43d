"""Tests for the cost-model sensitivity analysis."""

import pytest

from repro.experiments.sensitivity import (
    PARAMETERS,
    claims_hold,
    sensitivity_analysis,
)
from repro.parallel import XEON_E5440, CostModel


class TestClaimsHold:
    def test_base_model_satisfies_all(self):
        claims = claims_hold(XEON_E5440)
        assert all(claims.values()), claims

    def test_zero_contention_breaks_slowdown(self):
        # without any boundary cost, adding threads can only help
        free = CostModel(t_boundary=0.0, cache_alpha=0.0, cache_beta=0.0)
        claims = claims_hold(free)
        assert not claims["C1_slowdown"]

    def test_claim_keys(self):
        assert set(claims_hold(XEON_E5440)) == {
            "C1_slowdown",
            "C2_speedup",
            "C3_plateau",
            "C4_ls_helps",
        }


class TestSensitivityAnalysis:
    @pytest.fixture(scope="class")
    def result(self):
        return sensitivity_analysis()

    def test_covers_all_parameters_and_multipliers(self, result):
        assert len(result.outcomes) == len(PARAMETERS) * len(result.multipliers)

    def test_identity_multiplier_matches_base(self, result):
        for param in PARAMETERS:
            assert all(result.outcomes[(param, 1.0)].values()), param

    def test_speedup_claims_fully_robust(self, result):
        assert result.survival_rate("C2_speedup") == 1.0
        assert result.survival_rate("C3_plateau") == 1.0
        assert result.survival_rate("C4_ls_helps") == 1.0

    def test_slowdown_claim_mostly_robust(self, result):
        assert result.survival_rate("C1_slowdown") >= 0.8

    def test_fragile_settings_are_physical(self, result):
        # the slowdown claim may only break when synchronization gets
        # cheaper or computation dearer — never the other way round
        for param, mult, claim in result.fragile_settings():
            assert claim == "C1_slowdown"
            assert (param == "t_boundary" and mult < 1.0) or (
                param in ("t_breed", "t_lock", "t_ls_iter") and mult > 1.0
            ), (param, mult)

    def test_table_renders(self, result):
        out = result.table()
        assert "perturbation" in out
        assert "t_boundary" in out

    def test_validation(self):
        with pytest.raises(ValueError):
            sensitivity_analysis(multipliers=())
        with pytest.raises(ValueError):
            sensitivity_analysis(multipliers=(1.0, -2.0))
