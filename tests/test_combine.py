import numpy as np
import pytest

from orderpv.combine import combine_pvalues, default_k, order_statistic


class TestOrderStatistic:
    def test_middle_of_three(self):
        assert order_statistic([0.5, 0.1, 0.9], 2) == 0.5

    def test_ties_count_with_multiplicity(self):
        assert order_statistic([0.3, 0.3, 0.3], 1) == 0.3
        assert order_statistic([0.3, 0.3, 0.3], 3) == 0.3

    def test_maximum(self):
        assert order_statistic([0.07, 0.02], 2) == 0.07

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            order_statistic([0.5, 0.2], 3)
        with pytest.raises(ValueError):
            order_statistic([0.5, 0.2], 0)
        with pytest.raises(ValueError):
            order_statistic([0.5, 1.2], 1)
        with pytest.raises(ValueError):
            order_statistic([], 1)


class TestDefaultK:
    @pytest.mark.parametrize("n,expected", [(1, 1), (2, 1), (7, 4), (1000, 500)])
    def test_left_median_index(self, n, expected):
        assert default_k(n) == expected

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            default_k(0)


class TestCombine:
    def test_reference_shape(self):
        # 500th smallest equals 0.03; the conservative bound is twice that
        values = np.concatenate([np.full(499, 0.01), [0.03], np.full(500, 0.5)])
        res = combine_pvalues(values, k=500)
        assert res.order_stat == 0.03
        assert res.summary == pytest.approx(0.03 * res.slope, rel=1e-12)
        assert 0.0553 <= res.summary <= 0.0555
        assert res.bound == 0.06

    def test_single_value_is_identity(self):
        res = combine_pvalues([0.37], k=1)
        assert res.summary == pytest.approx(0.37, abs=1e-15)

    def test_k_equals_n_is_plain_maximum(self):
        rng = np.random.default_rng(5)
        values = rng.random(17)
        res = combine_pvalues(values, k=17)
        assert res.summary == pytest.approx(values.max(), abs=1e-15)
        assert res.slope == 1.0

    def test_default_k_is_left_median(self):
        values = np.linspace(0.05, 0.95, 9)
        assert combine_pvalues(values).k == default_k(9) == 5

    def test_permutation_invariance(self):
        rng = np.random.default_rng(11)
        values = rng.random(40)
        base = combine_pvalues(values, k=12).summary
        for _ in range(10):
            assert combine_pvalues(rng.permutation(values), k=12).summary == base

    def test_monotone_in_each_entry(self):
        rng = np.random.default_rng(23)
        values = rng.random(15)
        base = combine_pvalues(values, k=8).summary
        for i in range(15):
            bumped = values.copy()
            bumped[i] = min(1.0, bumped[i] + 0.2)
            assert combine_pvalues(bumped, k=8).summary >= base - 1e-15

    def test_dominated_by_simple_bound(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(1, 40))
            k = int(rng.integers(1, n + 1))
            values = rng.random(n)
            res = combine_pvalues(values, k=k)
            assert res.summary <= res.bound + 1e-12

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            combine_pvalues([0.2, 1.4], k=1)
        with pytest.raises(ValueError):
            combine_pvalues([[0.2, 0.4]], k=1)
        with pytest.raises(ValueError):
            combine_pvalues([0.2, 0.4], k=5)

    @pytest.mark.parametrize("k", [float("inf"), float("-inf"), float("nan"), 1.5, "2", 2j])
    def test_rejects_non_integral_k_naming_k(self, k):
        # int(inf) would raise OverflowError and int(nan) a ValueError that names no argument
        with pytest.raises(ValueError, match=r"k must be an integer in \[1, 3\]"):
            combine_pvalues([0.1, 0.2, 0.3], k=k)

    def test_accepts_integral_k_of_any_type(self):
        for k in (2, 2.0, np.int64(2), np.float64(2.0)):
            res = combine_pvalues([0.1, 0.2, 0.3], k=k)
            assert type(res.k) is int and res.k == 2
