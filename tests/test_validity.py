import io

import numpy as np
import pytest

from orderpv.binom import binom_upper_tail
from orderpv.correction import solve_combiner
from orderpv.validity import (
    SimConfig,
    adversarial_kernel,
    check_validity,
    tightness_scan,
    uniform_kernel,
)


class TestSimConfig:
    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            SimConfig(n=5, k=2, reps=10, seed=0, alpha_grid=np.array([0.2, 0.1]))
        with pytest.raises(ValueError):
            SimConfig(n=5, k=2, reps=10, seed=0, alpha_grid=np.array([]))
        with pytest.raises(ValueError):
            SimConfig(n=5, k=2, reps=10, seed=0, alpha_grid=np.array([0.1, 1.2]))

    def test_rejects_bad_reps_and_seed(self):
        with pytest.raises(ValueError):
            SimConfig(n=5, k=2, reps=0, seed=0)
        with pytest.raises(ValueError):
            SimConfig(n=5, k=2, reps=10, seed=-1)


class TestAdversarialKernel:
    def test_degenerate_weights(self):
        rng = np.random.default_rng(0)
        free = adversarial_kernel(6, 0.0)(rng, 5)
        assert free.shape == (5, 6) and np.all((free >= 0) & (free <= 1))
        pinned = adversarial_kernel(6, 1.0)(rng, 5)
        assert np.all(pinned == pinned[:, :1])

    def test_kernel_matches_draw_shape(self):
        kern = adversarial_kernel(4, 0.3)
        out = kern(np.random.default_rng(1), 11)
        assert out.shape == (11, 4)
        assert np.all((out >= 0) & (out <= 1))

    @pytest.mark.parametrize("alpha", [0.05, 0.5])
    def test_marginal_is_uniform(self, alpha):
        # first coordinate across draws follows the one-sample marginal
        kern = adversarial_kernel(3, 0.4)
        first = kern(np.random.default_rng(99), 100_000)[:, 0]
        emp = (first <= alpha).mean()
        se = np.sqrt(alpha * (1 - alpha) / first.size)
        assert abs(emp - alpha) <= 3 * se

    def test_rejects_bad_weight(self):
        with pytest.raises(ValueError):
            adversarial_kernel(3, 1.5)
        with pytest.raises(ValueError):
            adversarial_kernel(3, -0.1)


class TestCheckValidity:
    def test_exact_correction_is_consistent(self):
        spec = solve_combiner(10, 5)
        cfg = SimConfig(n=10, k=5, reps=100_000, seed=42)
        report = check_validity(cfg, spec.apply, adversarial_kernel(10, spec.knee))
        assert not report.any_violation

    def test_identity_is_violated_at_small_alpha(self):
        spec = solve_combiner(10, 5)
        cfg = SimConfig(n=10, k=5, reps=100_000, seed=7)
        report = check_validity(cfg, lambda u: u, adversarial_kernel(10, spec.knee))
        assert report.any_violation
        assert report.violations.min() <= 0.1

    def test_simple_bound_is_consistent_under_all_kernels(self):
        f = lambda u: np.minimum(1.0, 2.0 * u)
        cfg = SimConfig(n=10, k=5, reps=50_000, seed=3)
        for kernel in (uniform_kernel(10), adversarial_kernel(10, 0.3),
                       adversarial_kernel(10, solve_combiner(10, 5).knee)):
            assert not check_validity(cfg, f, kernel).any_violation

    def test_exact_correction_under_iid_kernel_large(self):
        # under i.i.d. uniforms the corrected value is strictly conservative
        # on the linear branch: its CDF runs below the diagonal, never above
        spec = solve_combiner(10, 5)
        cfg = SimConfig(n=10, k=5, reps=1_000_000, seed=31)
        report = check_validity(cfg, spec.apply, uniform_kernel(10))
        assert not report.any_violation
        assert np.all(report.empirical_cdf <= report.alpha + 3 * report.std_err)

    def test_identity_under_uniform_kernel_single_sample(self):
        # n = k = 1 with the identity: empirical CDF tracks alpha itself
        cfg = SimConfig(n=1, k=1, reps=200_000, seed=12)
        report = check_validity(cfg, lambda u: u, uniform_kernel(1))
        z = (report.empirical_cdf - report.alpha) / report.std_err
        assert np.all(np.abs(z) <= 4.0)

    def test_deterministic_and_schedule_independent(self):
        spec = solve_combiner(6, 3)
        cfg = SimConfig(n=6, k=3, reps=33_000, seed=2024)
        kern = adversarial_kernel(6, spec.knee)
        one = check_validity(cfg, spec.apply, kern, threads=1)
        again = check_validity(cfg, spec.apply, kern, threads=1)
        pooled = check_validity(cfg, spec.apply, kern, threads=4)
        assert np.array_equal(one.empirical_cdf, again.empirical_cdf)
        assert np.array_equal(one.empirical_cdf, pooled.empirical_cdf)
        assert one.verdict == pooled.verdict

    @pytest.mark.parametrize("threads", [0, -1])
    def test_rejects_thread_count_below_one(self, threads):
        cfg = SimConfig(n=4, k=2, reps=100, seed=0)
        with pytest.raises(ValueError, match="threads"):
            check_validity(cfg, lambda u: u, uniform_kernel(4), threads=threads)

    def test_report_csv_layout(self):
        cfg = SimConfig(n=2, k=1, reps=1000, seed=5)
        report = check_validity(cfg, lambda u: np.minimum(1, 2 * u), uniform_kernel(2))
        buf = io.StringIO()
        report.write_csv(buf, {"seed": 5})
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "# seed = 5"
        assert lines[1] == "alpha,empirical_cdf,std_err,verdict"
        assert len(lines) == 2 + cfg.alpha_grid.size


def orderstat_zscore(n, k, q, reps, seed):
    """z-score of the k-th of n uniforms' empirical CDF at q against P(Bin(n, q) >= k)."""
    cfg = SimConfig(n, k, reps, seed, alpha_grid=np.array([q]))
    report = check_validity(cfg, lambda u: u, uniform_kernel(n))
    empirical = report.empirical_cdf[0]
    expected = binom_upper_tail(n, k, q)
    if empirical == expected:  # a tail of exactly 0 or 1 has no spread
        return 0.0
    return (empirical - expected) / np.sqrt(expected * (1.0 - expected) / reps)


class TestOrderStatCdfCheck:
    def test_single_uniform(self):
        assert binom_upper_tail(1, 1, 0.3) == pytest.approx(0.3, abs=1e-14)
        assert abs(orderstat_zscore(1, 1, 0.3, 50_000, 1)) <= 3.0

    def test_both_of_two(self):
        assert binom_upper_tail(2, 2, 0.5) == pytest.approx(0.25, abs=1e-14)
        assert abs(orderstat_zscore(2, 2, 0.5, 50_000, 2)) <= 3.0

    def test_moderate_case(self):
        assert abs(orderstat_zscore(20, 7, 0.3, 100_000, 3)) <= 3.0

    def test_rejects_bad_q(self):
        with pytest.raises(ValueError):
            orderstat_zscore(5, 2, 1.3, 100, 0)


class TestTightnessScan:
    def test_boundary_shrink_is_consistent(self):
        report = tightness_scan(10, 5, 1.0, 200_000, 2023)
        assert not report.any_violation

    def test_shrunken_correction_is_caught(self):
        report = tightness_scan(10, 5, 0.9, 300_000, 4)
        assert report.any_violation

    def test_half_correction_caught_at_small_alpha(self):
        grid = np.array([0.1, 0.2, 0.3])
        report = tightness_scan(4, 2, 0.5, 100_000, 9, alpha_grid=grid)
        assert 0.1 in report.violations

    def test_rejects_bad_shrink(self):
        with pytest.raises(ValueError):
            tightness_scan(4, 2, 0.0, 100, 0)
        with pytest.raises(ValueError):
            tightness_scan(4, 2, 1.1, 100, 0)

    @pytest.mark.parametrize("threads", [0, -3])
    def test_rejects_thread_count_below_one(self, threads):
        with pytest.raises(ValueError, match="threads"):
            tightness_scan(4, 2, 0.5, 100, 0, threads=threads)
