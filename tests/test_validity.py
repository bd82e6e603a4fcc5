import numpy as np
import pytest
from scipy import special

from orderpv import validity
from orderpv.binom import binom_upper_tail
from orderpv.correction import solve_combiner
from orderpv.rngs import CHUNK
from orderpv.validity import (
    DEFAULT_ALPHA_GRID,
    SimConfig,
    adversarial_kernel,
    check_validity,
    tightness_scan,
    uniform_kernel,
)

from oracles import worst_case_orderstat_cdf


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

    def test_rejects_non_integral_seed_and_reps(self):
        # truncating seed 1.5 would run seed 1's streams and report 1.5
        for seed in (1.5, np.float64(0.5), float("inf"), "1"):
            with pytest.raises(ValueError, match="seed"):
                SimConfig(n=5, k=2, reps=10, seed=seed)
        with pytest.raises(ValueError, match="reps"):
            SimConfig(n=5, k=2, reps=2.5, seed=0)
        for seed in (1, np.int64(1), np.uint64(1), 1.0):
            cfg = SimConfig(n=5, k=2, reps=10, seed=seed)
            assert type(cfg.seed) is int and cfg.seed == 1
        cfg = SimConfig(n=5, k=2, reps=np.int64(10), seed=np.uint64(2**64 - 1))
        assert (cfg.reps, cfg.seed) == (10, 2**64 - 1)


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

    @pytest.mark.parametrize("n,k,t,seed", [(10, 5, None, 17), (10, 5, 0.2, 18), (20, 3, None, 19)])
    def test_orderstat_matches_exact_cdf(self, n, k, t, seed):
        # z-test of the k-th order statistic's CDF against the exact mixture,
        # mostly beyond the atom region, where non-atom values must be
        # uniform on [t, 1]
        if t is None:
            t = solve_combiner(n, k).knee
        reps = 200_000
        draws = adversarial_kernel(n, t)(np.random.default_rng(seed), reps)
        u = np.sort(np.partition(draws, k - 1, axis=1)[:, k - 1])
        q = np.array([0.5 * t, 0.9 * t, t + 0.01, t + 0.05, t + 0.2 * (1 - t), t + 0.5 * (1 - t)])
        expected = worst_case_orderstat_cdf(n, k, t, q)
        empirical = np.searchsorted(u, q, side="right") / reps
        z = (empirical - expected) / np.sqrt(expected * (1 - expected) / reps)
        assert np.all(np.abs(z) <= 3.0), z


def _inverse_correction(spec, alpha):
    """u with slope * u == alpha on the linear branch, tail(u) == alpha beyond, by scipy."""
    linear = alpha <= spec.slope * spec.knee
    return np.where(linear, alpha / spec.slope, special.betaincinv(spec.k, spec.n - spec.k + 1, alpha))


class TestWorstCaseCertificate:
    """The paper's minimality claim, checked exactly on the two-point worst case.

    For every atom weight t, P_t(f(U_(k)) <= alpha) = P_t(U_(k) <= f^-1(alpha))
    must stay at or below alpha, and at t = knee it must equal alpha, so no
    smaller increasing correction is valid.
    """

    @pytest.mark.parametrize("n,k", [(10, 5), (20, 3), (50, 49), (1000, 500), (10_000, 5000)])
    def test_valid_for_every_weight_and_tight_at_knee(self, n, k):
        spec = solve_combiner(n, k)
        alpha = DEFAULT_ALPHA_GRID
        q = _inverse_correction(spec, alpha)
        weights = np.append((np.arange(200) + 0.5) / 200, spec.knee)
        excess = max((worst_case_orderstat_cdf(n, k, t, q) - alpha).max() for t in weights)
        assert excess <= 1e-12
        at_knee = worst_case_orderstat_cdf(n, k, spec.knee, q)
        assert np.all(np.abs(at_knee - alpha) <= 1e-12)
        # the certificate has teeth: 0.999 * f exceeds alpha at the knee
        shrunk = worst_case_orderstat_cdf(n, k, spec.knee, _inverse_correction(spec, alpha / 0.999))
        assert (shrunk - alpha).max() > 1e-4


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

    # Hit counts on the default grid against the worst-case kernel at the
    # knee, recorded with the two-draw kernel (a separate uniform for the
    # atom choice and for the scattered values).  A hit at alpha <=
    # slope * knee depends only on x and the atom pattern, and every grid
    # point lies below slope * knee here, so the one-draw kernel must
    # reproduce these counts exactly.
    RECORDED_HITS = {
        (10, 5, 100_000): {
            0: [2510, 4979, 7462, 9973, 12506, 15107, 17590, 20000, 22593, 25150,
                27584, 30056, 32585, 35098, 37601, 40164, 42658, 45153, 47639, 50124],
            1: [2537, 4997, 7513, 9933, 12514, 15023, 17525, 20006, 22554, 25016,
                27521, 29959, 32563, 35094, 37573, 40138, 42583, 45105, 47638, 50115],
            2: [2530, 4999, 7537, 10067, 12569, 15002, 17554, 20021, 22575, 25017,
                27615, 30204, 32576, 35022, 37529, 40104, 42560, 45092, 47622, 50009],
        },
        (1000, 500, 4096): {
            0: [113, 218, 335, 431, 526, 631, 727, 820, 917, 1016,
                1113, 1206, 1316, 1409, 1516, 1638, 1734, 1841, 1931, 2018],
            1: [98, 205, 319, 415, 535, 623, 723, 841, 941, 1026,
                1120, 1241, 1345, 1468, 1579, 1679, 1805, 1901, 1996, 2085],
            2: [106, 210, 314, 419, 536, 648, 751, 857, 953, 1034,
                1144, 1252, 1349, 1443, 1531, 1630, 1733, 1842, 1943, 2053],
        },
    }

    @pytest.mark.parametrize("n,k,reps", list(RECORDED_HITS))
    def test_worst_case_report_matches_recorded_counts(self, n, k, reps):
        spec = solve_combiner(n, k)
        assert DEFAULT_ALPHA_GRID[-1] <= spec.slope * spec.knee
        kern = adversarial_kernel(n, spec.knee)
        for seed, hits in self.RECORDED_HITS[n, k, reps].items():
            report = check_validity(SimConfig(n=n, k=k, reps=reps, seed=seed), spec.apply, kern)
            assert np.array_equal(report.empirical_cdf, np.array(hits) / reps)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_pulls_at_most_threads_chunks_before_first_draw(self, threads, monkeypatch):
        iter_chunks = validity.iter_chunks
        pulled = []
        seen = []  # chunks pulled so far, at each kernel call

        def counting_chunks(total):
            for chunk in iter_chunks(total):
                pulled.append(chunk)
                yield chunk

        def kernel(rng, size):
            seen.append(len(pulled))
            return rng.random((size, 2))

        monkeypatch.setattr(validity, "iter_chunks", counting_chunks)
        report = check_validity(SimConfig(n=2, k=1, reps=5 * CHUNK, seed=3), lambda u: u, kernel,
                                threads=threads)
        assert len(pulled) == len(seen) == 5
        assert seen[0] <= threads
        assert report.reps == 5 * CHUNK

    @pytest.mark.parametrize("threads", [0, -1])
    def test_rejects_thread_count_below_one(self, threads):
        cfg = SimConfig(n=4, k=2, reps=100, seed=0)
        with pytest.raises(ValueError, match="threads"):
            check_validity(cfg, lambda u: u, uniform_kernel(4), threads=threads)


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
