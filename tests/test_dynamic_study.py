"""Tests for the dynamic-grid policy study harness."""

import numpy as np
import pytest

from repro.dynamic.events import BatchArrival, MachineJoin, MachineLeave
from repro.experiments.dynamic_study import (
    dynamic_study,
    minmin_rescheduler,
    random_timeline,
)
from repro.dynamic.simulator import greedy_rescheduler


class TestRandomTimeline:
    def test_structure(self):
        rng = np.random.default_rng(0)
        speeds, events = random_timeline(rng, n_batches=4)
        assert len(speeds) == 6
        batches = [e for e in events if isinstance(e, BatchArrival)]
        assert len(batches) == 4
        assert any(isinstance(e, MachineLeave) for e in events)
        assert any(isinstance(e, MachineJoin) for e in events)

    def test_no_churn(self):
        rng = np.random.default_rng(0)
        _, events = random_timeline(rng, churn=False)
        assert all(isinstance(e, BatchArrival) for e in events)

    def test_deterministic(self):
        a = random_timeline(np.random.default_rng(7))
        b = random_timeline(np.random.default_rng(7))
        assert a[0] == b[0]
        assert [e.time for e in a[1]] == [e.time for e in b[1]]


class TestDynamicStudy:
    @pytest.fixture(scope="class")
    def result(self):
        return dynamic_study(
            policies={"mct": greedy_rescheduler, "min-min": minmin_rescheduler},
            n_timelines=3,
            seed=2,
        )

    def test_policies_present(self, result):
        assert set(result.makespan) == {"mct", "min-min"}
        assert set(result.flowtime) == {"mct", "min-min"}

    def test_values_positive(self, result):
        for v in result.makespan.values():
            assert v > 0
        for v in result.flowtime.values():
            assert v > 0

    def test_best_policy_defined(self, result):
        assert result.best_policy() in ("mct", "min-min")

    def test_table_renders(self, result):
        out = result.table()
        assert "mean makespan" in out
        assert "mct" in out

    def test_reproducible(self):
        kwargs = dict(
            policies={"mct": greedy_rescheduler}, n_timelines=2, seed=5
        )
        a = dynamic_study(**kwargs)
        b = dynamic_study(**kwargs)
        assert a.makespan == b.makespan

    def test_rejects_zero_timelines(self):
        with pytest.raises(ValueError):
            dynamic_study(n_timelines=0)
