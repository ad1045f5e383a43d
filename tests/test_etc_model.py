"""Tests for the ETC matrix model."""

import numpy as np
import pytest

from repro.etc import Consistency, ETCMatrix, make_instance


def mat(rows):
    return np.asarray(rows, dtype=np.float64)


class TestConstruction:
    def test_basic_shape(self):
        m = ETCMatrix(mat([[1, 2], [3, 4], [5, 6]]))
        assert m.ntasks == 3
        assert m.nmachines == 2

    def test_transposed_layout(self):
        m = ETCMatrix(mat([[1, 2], [3, 4]]))
        assert np.array_equal(m.etc_t, m.etc.T)
        assert m.etc_t.flags["C_CONTIGUOUS"]

    def test_default_ready_times_zero(self):
        m = ETCMatrix(mat([[1, 2]]))
        assert np.array_equal(m.ready_times, [0.0, 0.0])

    def test_custom_ready_times(self):
        m = ETCMatrix(mat([[1, 2]]), ready_times=np.array([5.0, 0.5]))
        assert m.ready_times[0] == 5.0

    def test_rejects_1d(self):
        with pytest.raises(ValueError, match="2-D"):
            ETCMatrix(np.array([1.0, 2.0]))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="positive"):
            ETCMatrix(mat([[1, 0]]))

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            ETCMatrix(mat([[1, np.nan]]))

    def test_rejects_bad_ready_shape(self):
        with pytest.raises(ValueError, match="ready_times"):
            ETCMatrix(mat([[1, 2]]), ready_times=np.array([1.0]))

    def test_rejects_negative_ready(self):
        with pytest.raises(ValueError, match="ready_times"):
            ETCMatrix(mat([[1, 2]]), ready_times=np.array([-1.0, 0.0]))

    def test_pj_bounds(self):
        m = ETCMatrix(mat([[3, 9], [1, 27]]))
        assert m.pj_min == 1.0
        assert m.pj_max == 27.0


class TestConsistency:
    def test_consistent_matrix(self):
        m = ETCMatrix(mat([[1, 2, 3], [4, 5, 6]]))
        assert m.consistency() is Consistency.CONSISTENT

    def test_consistent_with_permuted_columns(self):
        # machine ordering identical for all tasks, but columns shuffled
        m = ETCMatrix(mat([[3, 1, 2], [6, 4, 5]]))
        assert m.consistency() is Consistency.CONSISTENT

    def test_inconsistent_matrix(self):
        m = ETCMatrix(mat([[1, 2], [2, 1]]))
        assert m.consistency() is Consistency.INCONSISTENT

    def test_semi_consistent_matrix(self):
        # even columns (0, 2) consistent; odd column breaks full consistency
        m = ETCMatrix(mat([[1, 100, 2], [3, 0.5, 4]]))
        assert m.consistency() is Consistency.SEMI_CONSISTENT

    def test_generated_classes(self):
        for c in ("c", "i", "s"):
            inst = make_instance(64, 8, consistency=c, seed=3)
            got = inst.consistency()
            if c == "c":
                assert got is Consistency.CONSISTENT
            elif c == "s":
                assert got in (Consistency.SEMI_CONSISTENT, Consistency.CONSISTENT)
            else:
                assert got is Consistency.INCONSISTENT


class TestMetrics:
    def test_heterogeneity_ordering(self):
        hi = make_instance(128, 8, task_het="hi", machine_het="hi", seed=5)
        lo = make_instance(128, 8, task_het="lo", machine_het="lo", seed=5)
        assert hi.task_heterogeneity() > 0
        assert lo.machine_heterogeneity() < hi.machine_heterogeneity() * 3

    def test_blazewicz_env_letter(self):
        c = make_instance(32, 4, consistency="c", seed=1)
        i = make_instance(32, 4, consistency="i", seed=1)
        assert c.blazewicz_notation().startswith("Q4|")
        assert i.blazewicz_notation().startswith("R4|")

    def test_makespan_lower_bound_positive(self, small_instance):
        lb = small_instance.makespan_lower_bound()
        assert lb > 0

    def test_lower_bound_at_least_longest_best_task(self, small_instance):
        best = small_instance.etc.min(axis=1)
        assert small_instance.makespan_lower_bound() >= best.max()


class TestEquality:
    def test_equal_matrices(self):
        a = ETCMatrix(mat([[1, 2]]), name="x")
        b = ETCMatrix(mat([[1, 2]]), name="y")
        assert a == b  # name does not affect equality

    def test_equal_matrices_hash_alike_under_any_name(self):
        a = ETCMatrix(mat([[1, 2]]), name="x")
        b = ETCMatrix(mat([[1, 2]]), name="y")
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_unequal_values(self):
        assert ETCMatrix(mat([[1, 2]])) != ETCMatrix(mat([[1, 3]]))

    def test_unequal_ready_times(self):
        a = ETCMatrix(mat([[1, 2]]))
        b = ETCMatrix(mat([[1, 2]]), ready_times=np.array([1.0, 0.0]))
        assert a != b

    def test_repr_mentions_name_and_shape(self):
        m = ETCMatrix(mat([[1, 2]]), name="demo")
        assert "demo" in repr(m)
        assert "1x2" in repr(m)
