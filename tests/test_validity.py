import re
import tracemalloc

import numpy as np
import pytest
from scipy import special, stats

from orderpv import validity
from orderpv.binom import binom_upper_tail
from orderpv.correction import solve_combiner
from orderpv.rngs import CHUNK, blocks
from orderpv.validity import (
    DEFAULT_ALPHA_GRID,
    SimConfig,
    adversarial_kernel,
    check_validity,
    tightness_scan,
)

from oracles import (
    MAX_CHUNK_VALUES,
    adversarial_kernel_where,
    uniform_kernel,
    worst_case_orderstat_cdf,
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
        with pytest.raises(ValueError, match=r"reps must be below 2\*\*63"):
            SimConfig(n=5, k=2, reps=2**63, seed=0)
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
        # a block holds min(reps, CHUNK) rows of n draws; SimConfig takes any
        # plan, and check_validity's first call to uniform_kernel either
        # reaches a draw of that shape or is refused before drawing
        widest = MAX_CHUNK_VALUES // CHUNK
        for n, reps in ((widest, 10**12), (MAX_CHUNK_VALUES, 1)):
            cfg = SimConfig(n=n, k=1, reps=reps, seed=0)
            kernel = uniform_kernel(n, 1)
            with pytest.raises(_Drew) as drew:
                check_validity(cfg, lambda u: u, lambda rng, size: kernel(_DrawProbe(), size))
            assert drew.value.args == ((min(reps, CHUNK), n),)
        for n, reps in ((widest + 1, CHUNK), (widest + 1, 10**12), (MAX_CHUNK_VALUES, 2),
                        (10**5, 10**5)):
            cfg = SimConfig(n=n, k=1, reps=reps, seed=0)
            assert (cfg.n, cfg.reps) == (n, reps)
            kernel = uniform_kernel(n, 1)
            with pytest.raises(ValueError, match="MAX_CHUNK_VALUES"):
                check_validity(cfg, lambda u: u, lambda rng, size: kernel(_DrawProbe(), size))


class _Drew(Exception):
    """Raised by `_DrawProbe` in place of drawing."""


class _DrawProbe:
    """A generator stand-in that stops a kernel at its first draw."""

    def random(self, shape):
        raise _Drew(shape)


class TestUniformKernel:
    def test_refuses_a_block_above_the_bound(self):
        # the probe stops the kernel at its first draw, so nothing of that
        # size is allocated
        widest = MAX_CHUNK_VALUES // CHUNK
        for n, size in ((widest, CHUNK), (MAX_CHUNK_VALUES, 1)):
            with pytest.raises(_Drew) as drew:
                uniform_kernel(n, 1)(_DrawProbe(), size)
            assert drew.value.args == ((size, n),)
        for n, size in ((widest + 1, CHUNK), (MAX_CHUNK_VALUES, 2), (10**5, CHUNK)):
            with pytest.raises(ValueError, match=f"{size} x n = {size * n} draws exceeds "
                                                 f"MAX_CHUNK_VALUES = {MAX_CHUNK_VALUES}"):
                uniform_kernel(n, 1)(_DrawProbe(), size)


def _replayed(n, k, t, seed, size):
    """The worst-case k-th value rebuilt from the declared stream layout.

    One uniform v per replication, whose inversion through the full table of
    P(A <= a), a < k, gives the atom count A (k standing for A >= k); then
    one uniform x per replication; then one beta per replication with fewer
    than k atoms, in that order.
    """
    rng = np.random.default_rng(seed)
    a = np.arange(k)
    atoms = np.searchsorted(special.betainc(n - a, a + 1, 1.0 - t), rng.random(size), side="right")
    out = rng.random(size) * t
    free = atoms < k
    out[free] = t + (1.0 - t) * rng.beta(k - atoms[free], n - k + 1)
    return out


class _FirstDraws(np.random.Generator):
    """PCG64(seed), except that the first `random` call returns a copy of `first`."""

    def __init__(self, seed, first):
        super().__init__(np.random.PCG64(seed))
        self.first = first

    def random(self, size=None):
        if self.first is None:
            return super().random(size)
        assert size == self.first.size
        first, self.first = self.first, None
        return first.copy()


def _min_atoms(n, t, k, v):
    """min(A, k) for uniforms v: `validity._atom_count` on the v below its last entry, k elsewhere."""
    last, count = validity._atom_count(n, t, k)
    atoms = np.full(v.shape, k)
    free = v < last
    atoms[free] = count(v[free])
    return atoms


def _pooled(observed, expected, least=5.0):
    """Adjacent cells merged left to right until each expects `least`; a short last joins its neighbour."""
    obs, exp = [0], [0.0]
    for o, e in zip(observed, expected):
        if exp[-1] >= least:
            obs.append(0)
            exp.append(0.0)
        obs[-1] += o
        exp[-1] += e
    if exp[-1] < least and len(exp) > 1:
        short_obs, short_exp = obs.pop(), exp.pop()
        obs[-1] += short_obs
        exp[-1] += short_exp
    return np.array(obs), np.array(exp)


def _exact_orderstat_cdf(n, k, t, q):
    """P(U_(k) <= q) at atom weight t; at t = 0 the k-th of n uniforms' binomial tail."""
    if t == 0.0:
        return stats.binom.sf(k - 1, n, q)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return worst_case_orderstat_cdf(n, k, t, q)


class TestAdversarialKernel:
    def test_degenerate_weights(self):
        # t = 0: no atom, the k-th of n uniforms is one Beta(k, n-k+1) draw;
        # t = 1: every value of a replication is its atom x, so the k-th is x
        rng, ref = np.random.default_rng(0), np.random.default_rng(0)
        free = adversarial_kernel(6, 0.0)(rng, 5)
        ref.random(5)  # v: A = 0 for every v at t = 0
        ref.random(5)  # x
        assert free.shape == (5,) and np.array_equal(free, ref.beta(3, 4, 5))
        pinned = adversarial_kernel(6, 1.0)(rng, 5)
        ref.random(5)  # v: A = n for every v at t = 1
        assert np.array_equal(pinned, ref.random(5))

    def test_kernel_matches_draw_shape(self):
        for k in (None, 1, 2, 4):
            kern = adversarial_kernel(4, 0.3, k)
            out = kern(np.random.default_rng(1), 11)
            assert out.shape == (11,) and out.dtype == np.float64
            assert np.all((out >= 0) & (out <= 1))
            assert kern.nk == (4, 2 if k is None else k)

    @pytest.mark.parametrize("alpha", [0.05, 0.5])
    def test_marginal_is_uniform(self, alpha):
        # a value drawn at random from a replication follows the one-sample
        # marginal, and P(U_(k) <= alpha) averaged over k = 1..n is its CDF
        n, reps = 3, 100_000
        emp = np.array([(adversarial_kernel(n, 0.4, k)(np.random.default_rng(99 + k), reps)
                         <= alpha).mean() for k in range(1, n + 1)])
        se = np.sqrt(np.sum(emp * (1 - emp)) / reps) / n
        assert abs(emp.mean() - alpha) <= 3 * se

    @pytest.mark.parametrize("n,t,seed", [(1, 0.5, 0), (10, None, 1), (10, 0.0, 2), (10, 1.0, 3),
                                          (37, 0.3, 4), (100, None, 5), (32771, 0.5, 6)])
    def test_equals_where_oracle_bit_for_bit(self, n, t, seed):
        # the sampled k-th value against the partitioned k-th value of
        # `oracles.adversarial_kernel_where`, which draws all n values: a
        # two-sample Kolmogorov-Smirnov test at the 3-sigma level
        k = (n + 1) // 2
        if t is None:
            t = solve_combiner(n, k).knee
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed + 1000)
        kern, ref = adversarial_kernel(n, t), adversarial_kernel_where(n, t)
        for size in (1, 2, 5, CHUNK + 3):
            assert kern(rng, size).shape == (size,)
        sampled = kern(rng, 20_000)
        reps = 20_000 if n <= 100 else 2_000
        rows = max(1, 2**20 // n)  # at most 8 MiB of oracle draws at a time
        oracle = np.concatenate([
            np.partition(ref(ref_rng, min(rows, reps - i)), k - 1, axis=1)[:, k - 1]
            for i in range(0, reps, rows)])
        assert stats.ks_2samp(sampled, oracle).pvalue > 0.0027

    @pytest.mark.parametrize("t", [0.0, -0.0, 2.0**-1074, 0.25, 0.628, 1.0])
    @pytest.mark.parametrize("n", [3, 32771])
    def test_edge_draws_equal_where_oracle(self, n, t):
        # values lie in [0, 1] with no -0.0, one seed gives the same bytes
        # twice, and the stream is consumed in the declared layout
        k = (n + 1) // 2
        kern = adversarial_kernel(n, t)
        out = kern(np.random.default_rng(n), 5000)
        assert out.dtype == np.float64 and np.all((out >= 0.0) & (out <= 1.0))
        assert not np.any(np.signbit(out))
        assert out.tobytes() == kern(np.random.default_rng(n), 5000).tobytes()
        assert np.array_equal(out, _replayed(n, k, t, n, 5000))

    @pytest.mark.parametrize("factory", [lambda n, k=None: adversarial_kernel(n, 0.5, k),
                                         uniform_kernel], ids=["adversarial", "uniform"])
    def test_factories_check_n(self, factory):
        for n in (0, -1, 2.5, float("nan")):
            with pytest.raises(ValueError, match="n must be an integer >= 1"):
                factory(n)
        for k in (0, 11, 2.5, float("nan")):
            with pytest.raises(ValueError, match=r"k must be an integer in \[1, 10\]"):
                factory(10, k)
        for n in (10.0, np.int64(10)):
            kern = factory(n)
            assert kern(np.random.default_rng(0), 3).shape == (3,)
            assert kern.nk == (10, 5) and type(kern.nk[0]) is int
        assert factory(10, np.int64(3)).nk == (10, 3)

    @pytest.mark.parametrize("n,size", [(2**16, 2), (10, CHUNK), (2**16, CHUNK)])
    def test_scratch_is_bounded(self, n, size):
        # one call keeps a few numbers per replication, whatever n
        kern = adversarial_kernel(n, 0.5)
        rng = np.random.default_rng(0)
        tracemalloc.start()
        try:
            kern(rng, size)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 48 * size + 16 * 1024, peak / size

    @pytest.mark.parametrize("n,k,t,seed", [(10, 5, None, 0), (1000, 500, None, 1),
                                            (200, 100, 0.05, 2)])
    def test_atom_count_follows_the_binomial_law(self, n, k, t, seed):
        # chi-squared test of min(A, k) against the exact Bin(n, t) pmf at
        # Phi(-3); adjacent cells are pooled until each expects at least 5
        if t is None:
            t = solve_combiner(n, k).knee
        reps = 200_000
        atoms = _min_atoms(n, t, k, np.random.default_rng(seed).random(reps))
        observed = np.bincount(atoms, minlength=k + 1)
        expected = reps * np.append(stats.binom.pmf(np.arange(k), n, t), stats.binom.sf(k - 1, n, t))
        cells = _pooled(observed, expected)
        assert len(cells[0]) >= 5
        assert stats.chisquare(*cells).pvalue > stats.norm.cdf(-3.0)

    @pytest.mark.parametrize("n,k,cap", [(10**5, 5 * 10**4, 2), (10**5, 5 * 10**4, 7),
                                         (10**5, 5 * 10**4, 1000), (37, 3, 2),
                                         (1000, 500, 3), (1000, 500, 7)])
    def test_strided_table_draws_the_same_atoms(self, n, k, cap, monkeypatch):
        # with the table capped, a v between two entries is bisected on the
        # same tail values, so A and the whole draw match the full table's;
        # v also takes the tail values themselves, where side="right" matters
        t = solve_combiner(n, k).knee
        a = np.arange(k)
        edges = special.betainc(n - a, a + 1, 1.0 - t)
        v = np.concatenate([np.random.default_rng(k).random(5000), edges[edges < 1.0]])
        full, kern = _min_atoms(n, t, k, v), adversarial_kernel(n, t, k)
        monkeypatch.setattr(validity, "_CDF_ENTRIES", cap)
        assert np.array_equal(_min_atoms(n, t, k, v), full)
        strided = adversarial_kernel(n, t, k)(np.random.default_rng(n), 5000)
        assert strided.tobytes() == kern(np.random.default_rng(n), 5000).tobytes()

    @pytest.mark.parametrize("n,k,t,cap", [(10, 5, None, None), (10, 1, 0.3, None),
                                           (10, 10, 0.3, None), (37, 3, None, None),
                                           (37, 3, None, 2), (1000, 500, None, 7),
                                           (10**5, 5 * 10**4, None, 1000)])
    def test_table_values_and_their_neighbours(self, n, k, t, cap, monkeypatch):
        # v is each P(A <= a), a < k, and the doubles next to it: A steps up
        # exactly at a table value, and v = P(A <= k - 1) is an atom row
        if t is None:
            t = solve_combiner(n, k).knee
        if cap is not None:
            monkeypatch.setattr(validity, "_CDF_ENTRIES", cap)
        a = np.arange(k)
        edges = special.betainc(n - a, a + 1, 1.0 - t)
        v = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0)])
        v = v[v < 1.0]
        out = adversarial_kernel(n, t, k)(_FirstDraws(n, v), v.size)
        assert out.tobytes() == _replayed(n, k, t, _FirstDraws(n, v), v.size).tobytes()
        atom = v >= edges[-1]
        assert np.count_nonzero(v == edges[-1]) and np.count_nonzero(~atom)
        x = np.random.default_rng(n).random(v.size)
        assert np.array_equal(out[atom], x[atom] * t)

    def test_table_is_capped_at_large_n(self):
        # at n = 10**10 the table keeps every s-th of k = 5 * 10**9 entries:
        # the kernel holds at most _CDF_ENTRIES values, and a block, half of
        # whose rows bisect at t = 0.5, adds only per-replication scratch
        n, k, size = 10**10, 5 * 10**9, 1024
        tracemalloc.start()
        try:
            kern = adversarial_kernel(n, 0.5, k)
            kept = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = kern(np.random.default_rng(0), size)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert kept <= 8 * validity._CDF_ENTRIES + 4096, kept
        assert peak - kept < 96 * size + 16 * 1024, (peak - kept) / size
        assert out.shape == (size,) and np.all((out >= 0.0) & (out <= 1.0))

    def test_rejects_bad_weight(self):
        with pytest.raises(ValueError):
            adversarial_kernel(3, 1.5)
        with pytest.raises(ValueError):
            adversarial_kernel(3, -0.1)

    @pytest.mark.parametrize("n,k,t,seed", [
        (*case, {(10, 5, None): 17, (10, 5, 0.2): 18, (20, 3, None): 19}.get(case, 20 + i))
        for i, case in enumerate((n, k, t) for n, k in [(1, 1), (10, 5), (20, 3), (10**5, 5 * 10**4)]
                                 for t in [0.0, -0.0, 2.0**-1074, 0.2, None, 1.0])])
    def test_orderstat_matches_exact_cdf(self, n, k, t, seed):
        # z-test of the sampled k-th value's CDF against the exact mixture, at
        # the deciles 1, 5 and 9 of an independent pilot sample and, when
        # there is an atom region, at half the atom weight; t = None is the knee
        if t is None:
            t = solve_combiner(n, k).knee
        reps = 200_000
        kern = adversarial_kernel(n, t, k)
        pilot = kern(np.random.default_rng(seed + 10_000), 1000)
        q = np.quantile(pilot, [0.1, 0.5, 0.9])
        if 0.0 < t < 1.0:
            q = np.append(q, 0.5 * t)
        u = np.sort(kern(np.random.default_rng(seed), reps))
        expected = _exact_orderstat_cdf(n, k, t, q)
        empirical = np.searchsorted(u, q, side="right") / reps
        spread = np.sqrt(expected * (1 - expected) / reps)
        z = np.divide(empirical - expected, spread, out=np.zeros_like(q), where=spread > 0)
        assert np.all(np.abs(z) <= 3.0), z
        assert np.all(empirical[spread == 0] == expected[spread == 0])


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
    # knee, recorded with the direct sampler of the k-th value: one uniform v
    # inverted through the cached table of P(A <= a), a < k, for the atom
    # count A (at most 2**16 entries, with the same A at any stride, and A's
    # law exact up to the binomial tail's error), one uniform x, and a beta
    # for each replication with fewer than k atoms.  Every grid point lies
    # below slope * knee, where the exact CDF is alpha; every count is within
    # 2.1 standard errors of alpha * reps.
    RECORDED_HITS = {
        (10, 5, 100_000): {
            0: [2534, 4953, 7421, 9931, 12398, 14916, 17440, 19911, 22456, 24993,
                27532, 30071, 32513, 35060, 37584, 40129, 42631, 45173, 47651, 50155],
            1: [2449, 4929, 7518, 10057, 12491, 15014, 17568, 20056, 22559, 25061,
                27516, 30028, 32487, 34952, 37369, 39951, 42505, 45057, 47572, 50028],
            2: [2517, 5048, 7475, 9979, 12486, 14943, 17470, 19945, 22492, 25023,
                27523, 29984, 32458, 34946, 37375, 39883, 42351, 44911, 47384, 49902],
        },
        (1000, 500, 4096): {
            0: [104, 199, 306, 421, 543, 645, 749, 862, 964, 1060,
                1139, 1238, 1343, 1450, 1547, 1642, 1749, 1862, 1976, 2106],
            1: [107, 219, 324, 424, 527, 629, 720, 831, 935, 1043,
                1144, 1251, 1351, 1468, 1587, 1690, 1806, 1890, 1987, 2106],
            2: [98, 196, 300, 426, 547, 645, 738, 844, 942, 1044,
                1149, 1269, 1385, 1482, 1598, 1696, 1791, 1894, 1993, 2082],
        },
    }

    @pytest.mark.parametrize("n,k,reps", list(RECORDED_HITS))
    def test_worst_case_report_matches_recorded_counts(self, n, k, reps):
        spec = solve_combiner(n, k)
        assert DEFAULT_ALPHA_GRID[-1] <= spec.slope * spec.knee
        kern = adversarial_kernel(n, spec.knee)
        alpha = DEFAULT_ALPHA_GRID
        for seed, hits in self.RECORDED_HITS[n, k, reps].items():
            report = check_validity(SimConfig(n=n, k=k, reps=reps, seed=seed), spec.apply, kern)
            assert np.array_equal(report.empirical_cdf, np.array(hits) / reps)
            assert np.all(np.abs(np.array(hits) - alpha * reps) <= 3 * np.sqrt(reps * alpha * (1 - alpha)))

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
            return rng.random(size)

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
        # only `uniform_kernel` draws a (CHUNK, n) matrix, the block's only
        # one; the worst case keeps a few numbers a replication, whatever n
        for n, kind in ((100, "uniform"), (100, "worst-case"), (8192, "worst-case")):
            spec = solve_combiner(n, n // 2)
            cfg = SimConfig(n=n, k=n // 2, reps=2 * CHUNK, seed=8)
            kern = uniform_kernel(n) if kind == "uniform" else adversarial_kernel(n, spec.knee)
            tracemalloc.start()
            try:
                one = check_validity(cfg, spec.apply, kern)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            bound = 1.5 * CHUNK * n * 8 if kind == "uniform" else 48 * CHUNK + 64 * 1024
            assert peak < bound, (n, kind, peak / CHUNK)
            two = check_validity(cfg, spec.apply, kern)
            assert np.array_equal(one.empirical_cdf, two.empirical_cdf)

    @pytest.mark.parametrize("shape", [lambda size: (size, 1), lambda size: (size, 5),
                                       lambda size: (4 * size,), lambda size: (size - 1,),
                                       lambda size: (1, size), lambda size: (size, 4)],
                             ids=["narrow", "wide", "flat", "short", "transposed", "matrix"])
    def test_rejects_kernel_of_wrong_shape(self, shape):
        # "matrix" is the (size, n) array kernels returned before they
        # selected the k-th value themselves
        cfg = SimConfig(n=4, k=2, reps=100, seed=0)

        def kernel(rng, size):
            return rng.random(shape(size))

        expected = f"kernel returned shape {re.escape(str(shape(100)))}, expected \\(100,\\)"
        with pytest.raises(ValueError, match=expected):
            check_validity(cfg, lambda u: u, kernel)

    @pytest.mark.parametrize("kernel, k", [(uniform_kernel(5), 2), (adversarial_kernel(5, 0.5, 2), 2),
                                           (uniform_kernel(4, 3), 2), (adversarial_kernel(4, 0.5), 1)],
                             ids=["uniform-n", "worst-case-n", "uniform-k", "worst-case-k"])
    def test_rejects_kernel_of_other_plan(self, kernel, k):
        # a (size,) result cannot show a wrong n by its shape, and a
        # defaulted k can differ from the plan's: both are refused by name
        cfg = SimConfig(n=4, k=k, reps=100, seed=0)
        expected = f"kernel draws the k-th of n at (n, k) = {kernel.nk}, but cfg has (n, k) = (4, {k})"
        with pytest.raises(ValueError, match=re.escape(expected)):
            check_validity(cfg, lambda u: u, kernel)

    def test_trusts_kernel_that_records_no_plan(self):
        kern = uniform_kernel(4, 2)
        cfg = SimConfig(n=4, k=2, reps=100, seed=0)
        plain = check_validity(cfg, lambda u: u, lambda rng, size: kern(rng, size))
        assert np.array_equal(plain.empirical_cdf, check_validity(cfg, lambda u: u, kern).empirical_cdf)

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
        # a read-only result gives the writable one's report and is left as
        # drawn: nothing is reordered or written in place any more
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
    report = check_validity(cfg, lambda u: u, uniform_kernel(n, k))
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

    @pytest.mark.parametrize("reps", [1, 2])
    def test_boundary_shrink_is_consistent_at_small_reps(self, reps):
        # a rule on the estimated standard error, which is 0 at a hit rate of
        # 0 or 1, convicted the exact correction in about half of these seeds
        flagged = [seed for seed in range(200)
                   if tightness_scan(10, 5, 1.0, reps, seed).any_violation]
        assert flagged == []

    @pytest.mark.parametrize("shrink,reps,seed", [(1.0, 50, 3), (0.9, 3000, 4), (0.5, 100, 9)])
    def test_verdict_is_the_exact_binomial_test(self, shrink, reps, seed):
        report = tightness_scan(4, 2, shrink, reps, seed)
        hits = np.rint(report.empirical_cdf * reps)
        tail = stats.binom.sf(hits - 1, reps, report.alpha)
        expected = np.where((hits >= 1) & (tail < stats.norm.cdf(-3.0)), "violation", "consistent")
        assert report.verdict == tuple(expected)

    def test_rejects_bad_shrink(self):
        with pytest.raises(ValueError):
            tightness_scan(4, 2, 0.0, 100, 0)
        with pytest.raises(ValueError):
            tightness_scan(4, 2, 1.1, 100, 0)

    @pytest.mark.parametrize("threads", [0, -3])
    def test_rejects_thread_count_below_one(self, threads):
        with pytest.raises(TypeError, match="threads"):
            tightness_scan(4, 2, 0.5, 100, 0, threads=threads)
