import re
import tracemalloc

import numpy as np
import pytest
from scipy import special

from orderpv import validity
from orderpv.binom import binom_upper_tail
from orderpv.correction import solve_combiner
from orderpv.rngs import CHUNK, blocks
from orderpv.validity import (
    DEFAULT_ALPHA_GRID,
    MAX_CHUNK_VALUES,
    SimConfig,
    adversarial_kernel,
    check_validity,
    tightness_scan,
    uniform_kernel,
)

from oracles import adversarial_kernel_where, worst_case_orderstat_cdf


class FixedDraws:
    """A generator stub: `random(shape)` returns a copy of the next given array."""

    def __init__(self, *arrays):
        self.arrays = list(arrays)

    def random(self, shape):
        out = np.array(self.arrays.pop(0), dtype=float)
        assert out.shape == np.broadcast_shapes(shape)
        return out


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

    @pytest.mark.parametrize("k", [float("inf"), float("nan"), 2.5, 0, 6])
    def test_rejects_bad_k_naming_k(self, k):
        with pytest.raises(ValueError, match=r"k must be an integer in \[1, 5\]"):
            SimConfig(n=5, k=k, reps=10, seed=0)

    def test_stores_integral_n_and_k_as_ints(self):
        cfg = SimConfig(n=10.0, k=np.float64(5.0), reps=100, seed=1)
        assert (type(cfg.n), type(cfg.k)) == (int, int) and (cfg.n, cfg.k) == (10, 5)
        as_ints = SimConfig(n=10, k=5, reps=100, seed=1)
        report = check_validity(cfg, lambda u: u, uniform_kernel(10))
        expected = check_validity(as_ints, lambda u: u, uniform_kernel(10))
        assert np.array_equal(report.empirical_cdf, expected.empirical_cdf)

    def test_bounds_the_draws_of_one_block(self):
        # a block holds min(reps, CHUNK) rows of n draws; only configs are built here
        widest = MAX_CHUNK_VALUES // CHUNK
        assert SimConfig(n=widest, k=1, reps=10**12, seed=0).n == widest
        assert SimConfig(n=MAX_CHUNK_VALUES, k=1, reps=1, seed=0).reps == 1
        for n, reps in ((widest + 1, CHUNK), (widest + 1, 10**12), (MAX_CHUNK_VALUES, 2),
                        (10**5, 10**5)):
            with pytest.raises(ValueError, match="MAX_CHUNK_VALUES"):
                SimConfig(n=n, k=1, reps=reps, seed=0)


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

    @pytest.mark.parametrize("n,t,seed", [(1, 0.5, 0), (10, None, 1), (10, 0.0, 2), (10, 1.0, 3),
                                          (37, 0.3, 4), (100, None, 5),
                                          (validity._PIECE_VALUES + 3, 0.5, 6)])
    def test_equals_where_oracle_bit_for_bit(self, n, t, seed):
        # the atom written into the draws: same values, same stream consumed,
        # also when the last piece has fewer rows or a row spans two pieces
        if t is None:
            t = solve_combiner(n, n // 2).knee
        rows = max(1, validity._PIECE_VALUES // n)
        sizes = (1, 2, 5) if rows == 1 else (1, rows - 1, rows + 1, 1000, CHUNK + 3)
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for size in sizes:
            out = adversarial_kernel(n, t)(rng, size)
            ref = adversarial_kernel_where(n, t)(ref_rng, size)
            assert out.shape == ref.shape == (size, n) and out.dtype == ref.dtype
            assert out.tobytes() == ref.tobytes()
        assert rng.random() == ref_rng.random()

    @pytest.mark.parametrize("t", [0.0, -0.0, 2.0**-1074, 0.25, 0.628, 1.0])
    @pytest.mark.parametrize("n", [3, validity._PIECE_VALUES + 3])
    def test_edge_draws_equal_where_oracle(self, n, t):
        # u == t is not an atom; u = 0, x = 0 and the largest draw are exact
        top = 1.0 - 2.0**-53  # the largest value `random` returns
        near = [0.0, 2.0**-1074, t, np.nextafter(t, 0.0), np.nextafter(t, 1.0), 0.5 * t, top]
        u = np.resize(np.minimum(np.abs(near), top), (4, n))
        x = np.array([0.0, 2.0**-1074, 0.5, top])
        out = adversarial_kernel(n, t)(FixedDraws(x, u), 4)
        ref = adversarial_kernel_where(n, t)(FixedDraws(x, u), 4)
        assert out.tobytes() == ref.tobytes()
        if t < 1.0:
            assert np.any(u == t) and np.any(out == t)

    @pytest.mark.parametrize("factory", [lambda n: adversarial_kernel(n, 0.5), uniform_kernel],
                             ids=["adversarial", "uniform"])
    def test_factories_check_n(self, factory):
        for n in (0, -1, 2.5, float("nan")):
            with pytest.raises(ValueError, match="n must be an integer >= 1"):
                factory(n)
        for n in (10.0, np.int64(10)):
            assert factory(n)(np.random.default_rng(0), 3).shape == (3, 10)

    @pytest.mark.parametrize("n,size", [(2**16, 2), (10, CHUNK)])
    def test_scratch_is_bounded(self, n, size):
        # beside its (size, n) matrix and x the kernel keeps one piece's mask
        kern = adversarial_kernel(n, 0.5)
        rng = np.random.default_rng(0)
        tracemalloc.start()
        try:
            out = kern(rng, size)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < out.nbytes + 8 * size + 128 * 1024, peak - out.nbytes - 8 * size

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
        one = check_validity(cfg, spec.apply, kern)
        again = check_validity(cfg, spec.apply, kern)
        # the blocks tallied last to first give the same counts
        backwards = sum(validity._tally_chunk(cfg, spec.apply, kern, rng, length)
                        for _, length, rng in reversed(list(blocks(cfg.seed, cfg.reps))))
        assert np.array_equal(one.empirical_cdf, again.empirical_cdf)
        assert np.array_equal(one.empirical_cdf, backwards / cfg.reps)
        assert one.verdict == again.verdict

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

    # the serial loop keeps one block in flight, so at most one is pulled
    # before the kernel's first draw
    @pytest.mark.parametrize("in_flight", [1])
    def test_pulls_at_most_threads_chunks_before_first_draw(self, in_flight, monkeypatch):
        pulled = []
        seen = []  # blocks pulled so far, at each kernel call

        def counting_blocks(seed, total):
            for block in blocks(seed, total):
                pulled.append(block)
                yield block

        def kernel(rng, size):
            seen.append(len(pulled))
            return rng.random((size, 2))

        monkeypatch.setattr(validity, "blocks", counting_blocks)
        report = check_validity(SimConfig(n=2, k=1, reps=5 * CHUNK, seed=3), lambda u: u, kernel)
        assert len(pulled) == len(seen) == 5
        assert seen[0] <= in_flight
        assert seen == [1, 2, 3, 4, 5]
        assert report.reps == 5 * CHUNK

    # threads= is gone: any thread count is an unexpected keyword
    @pytest.mark.parametrize("threads", [0, -1])
    def test_rejects_thread_count_below_one(self, threads):
        cfg = SimConfig(n=4, k=2, reps=100, seed=0)
        with pytest.raises(TypeError, match="threads"):
            check_validity(cfg, lambda u: u, uniform_kernel(4), threads=threads)

    def test_one_draw_matrix_per_block(self):
        # the kernel's matrix is the block's only (CHUNK, n) array: the atom
        # is written into it and the k-th value is selected in place
        n, k = 100, 50
        spec = solve_combiner(n, k)
        cfg = SimConfig(n=n, k=k, reps=2 * CHUNK, seed=8)
        kern = adversarial_kernel(n, spec.knee)
        tracemalloc.start()
        try:
            one = check_validity(cfg, spec.apply, kern)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * CHUNK * n * 8, peak / (CHUNK * n * 8)
        two = check_validity(cfg, spec.apply, kern)
        assert np.array_equal(one.empirical_cdf, two.empirical_cdf)

    @pytest.mark.parametrize("shape", [lambda size: (size, 3), lambda size: (size, 5),
                                       lambda size: (size,), lambda size: (size - 1, 4),
                                       lambda size: (4, size)],
                             ids=["narrow", "wide", "flat", "short", "transposed"])
    def test_rejects_kernel_of_wrong_shape(self, shape):
        cfg = SimConfig(n=4, k=2, reps=100, seed=0)

        def kernel(rng, size):
            return rng.random(shape(size))

        expected = f"kernel returned shape {re.escape(str(shape(100)))}, expected \\(100, 4\\)"
        with pytest.raises(ValueError, match=expected):
            check_validity(cfg, lambda u: u, kernel)

    @pytest.mark.parametrize("f, shape", [(lambda u: u[:u.size // 2], (50,)),
                                          (lambda u: np.concatenate([u, u]), (200,)),
                                          (lambda u: np.vstack([u, u]), (2, 100)),
                                          (lambda u: u.mean(), ())],
                             ids=["half", "doubled", "2-d", "scalar"])
    def test_rejects_f_of_wrong_shape(self, f, shape):
        # tallied as they came, a half-length map halved the CDF and a
        # doubled one doubled it
        cfg = SimConfig(n=4, k=2, reps=100, seed=0)
        with pytest.raises(ValueError, match=re.escape(f"f gave shape {shape} for 100 values")):
            check_validity(cfg, f, uniform_kernel(4))

    def test_rejects_nan_from_f(self):
        # NaN <= alpha is False, so a NaN value would count as a valid one
        cfg = SimConfig(n=4, k=2, reps=CHUNK + 100, seed=0)

        def one_nan_in_second_block(u):
            return np.where(np.arange(u.size) == 99, np.nan, u) if u.size == 100 else u

        with pytest.raises(ValueError, match="f gave NaN on 1 of 100 values"):
            check_validity(cfg, one_nan_in_second_block, uniform_kernel(4))
        with pytest.raises(ValueError, match=f"f gave NaN on {CHUNK} of {CHUNK} values"):
            check_validity(cfg, lambda u: np.full(u.size, np.nan), uniform_kernel(4))

    def test_read_only_kernel_result_is_copied(self):
        # a read-only matrix gives the writable one's report and is left as drawn
        n, k = 10, 5
        spec = solve_combiner(n, k)
        cfg = SimConfig(n=n, k=k, reps=CHUNK + 500, seed=4)
        kern = adversarial_kernel(n, spec.knee)
        returned = []

        def read_only(rng, size):
            draws = kern(rng, size)
            draws.setflags(write=False)
            returned.append((draws, draws.copy()))
            return draws

        expected = check_validity(cfg, spec.apply, kern)
        report = check_validity(cfg, spec.apply, read_only)
        assert np.array_equal(report.empirical_cdf, expected.empirical_cdf)
        assert report.verdict == expected.verdict
        assert len(returned) == 2
        for draws, drawn in returned:
            assert not draws.flags.writeable
            assert np.array_equal(draws, drawn)


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
        report = tightness_scan(4, 2, 0.5, 100_000, 9)
        assert 0.1 in report.violations

    def test_rejects_bad_shrink(self):
        with pytest.raises(ValueError):
            tightness_scan(4, 2, 0.0, 100, 0)
        with pytest.raises(ValueError):
            tightness_scan(4, 2, 1.1, 100, 0)

    @pytest.mark.parametrize("threads", [0, -3])
    def test_rejects_thread_count_below_one(self, threads):
        with pytest.raises(TypeError, match="threads"):
            tightness_scan(4, 2, 0.5, 100, 0, threads=threads)
