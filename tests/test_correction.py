import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import optimize

import orderpv

from orderpv import correction
from orderpv.binom import binom_upper_tail
from orderpv.combine import default_k
from orderpv.correction import (
    _XTOL,
    DEFAULT_TOL,
    SOLVE_CACHE_SIZE,
    CombinerSpec,
    _brentq,
    _stationarity,
    envelope,
    solve_combiner,
    tail_ratio,
)

from oracles import apply_both_branches, exact_knee, exact_upper_tail, upper_tail_mp

# Solved to 1e-12 by the root finder here; the published reference rounds it to 1.846.
SLOPE_1000_500 = 1.8463229261629466


def pair_suite(limit=30):
    return [(n, k) for n in range(1, limit + 1) for k in range(1, n + 1)]


class TestTailRatio:
    def test_single_sample_is_flat_one(self):
        for p in (0.0, 0.3, 0.7, 1.0):
            assert tail_ratio(1, 1, p) == pytest.approx(1.0, abs=1e-15)

    def test_max_index_is_power(self):
        # ratio at k = n is p**(n-1)
        assert tail_ratio(2, 2, 0.25) == pytest.approx(0.25, abs=1e-15)
        assert tail_ratio(5, 5, 0.5) == pytest.approx(0.5**4, rel=1e-12)

    def test_continuity_value_at_zero(self):
        assert tail_ratio(4, 1, 0.0) == 4.0
        assert tail_ratio(4, 1, 1e-8) == pytest.approx(4.0, rel=1e-6)
        assert tail_ratio(4, 2, 0.0) == 0.0

    def test_finite_and_nonnegative(self):
        for n, k in [(3, 1), (10, 4), (25, 25)]:
            vals = tail_ratio(n, k, np.linspace(0.0, 1.0, 300))
            assert np.all(np.isfinite(vals)) and np.all(vals >= 0.0)


class TestSolve:
    def test_identity_correction_when_k_equals_n(self):
        spec = CombinerSpec.solve(10, 10)
        assert spec.slope == 1.0 and spec.knee == 1.0

    def test_reference_constant_for_large_median(self):
        spec = CombinerSpec.solve(1000, 500)
        assert spec.slope == pytest.approx(1.846, abs=5e-4)
        assert spec.slope == pytest.approx(SLOPE_1000_500, rel=1e-10)

    def test_smallest_index_is_analytic(self):
        spec = CombinerSpec.solve(5, 1)
        assert (spec.knee, spec.slope) == (0.0, 5.0)
        # grid-search oracle at 1e-6 resolution
        grid = np.linspace(0.0, 1.0, 1_000_001)
        assert abs(spec.slope - tail_ratio(5, 1, grid).max()) <= 1e-6

    def test_single_sample_convention(self):
        spec = CombinerSpec.solve(1, 1)
        assert (spec.knee, spec.slope) == (0.0, 1.0)

    @pytest.mark.parametrize("n,k", [(2, 2), (6, 3), (10, 5), (31, 8), (100, 50)])
    def test_knee_lies_in_stated_bracket(self, n, k):
        spec = CombinerSpec.solve(n, k)
        assert (k - 1) / (n - 1) - 1e-12 <= spec.knee <= 1.0

    @pytest.mark.parametrize(
        "n,k", [(4, 2), (10, 5), (31, 8), (317, 200), (1000, 500), (5000, 2500)]
    )
    def test_knee_matches_exact_oracle(self, n, k):
        assert abs(CombinerSpec.solve(n, k).knee - exact_knee(n, k)) <= DEFAULT_TOL

    def test_stationarity_changes_sign_across_bracket(self):
        # the root finder needs w > 0 at (k-1)/(n-1) and w < 0 at 1
        pairs = [(n, k) for n in range(3, 201) for k in range(2, n)]
        pairs += [(n, default_k(n)) for n in (1000, 5000, 10_000)]
        for n, k in pairs:
            assert _stationarity((k - 1) / (n - 1), n, k) > 0.0 > _stationarity(1.0, n, k), (n, k)

    @pytest.mark.parametrize("n,k", [(5, 3), (10, 5), (40, 13), (317, 200)])
    def test_slope_matches_grid_maximum(self, n, k):
        spec = CombinerSpec.solve(n, k)
        grid = np.linspace(0.0, 1.0, 1_000_001)
        assert abs(spec.slope - tail_ratio(n, k, grid).max()) <= 1e-6

    @pytest.mark.parametrize("n,k", [(2, 2), (9, 4), (30, 17)])
    def test_ratio_unimodal_around_knee(self, n, k):
        spec = CombinerSpec.solve(n, k)
        p = np.linspace(0.0, 1.0, 2001)
        vals = tail_ratio(n, k, p)
        before = vals[p <= spec.knee]
        after = vals[p >= spec.knee]
        assert np.all(np.diff(before) >= -1e-12)
        assert np.all(np.diff(after) <= 1e-12)

    def test_slope_within_universal_bounds(self):
        for n, k in pair_suite(20):
            spec = CombinerSpec.solve(n, k)
            assert (n / k) / (1.0 + 5.0 * k ** (-1 / 3)) - 1e-12 <= spec.slope <= n / k + 1e-12

    def test_knee_bit_identical_to_scipy_brentq(self):
        pairs = [(n, k) for n in range(3, 121) for k in range(2, n)]
        rng = np.random.default_rng(8)
        pairs += [(int(n), int(k)) for n in rng.integers(121, 20_001, 300) for k in rng.integers(2, n, 2)]
        pairs += [(1000, 500), (5000, 2500), (10_000, 5000), (100_000, 50_000)]
        for n, k in pairs:
            expected = optimize.brentq(_stationarity, (k - 1) / (n - 1), 1.0, args=(n, k), xtol=_XTOL)
            assert CombinerSpec.solve(n, k).knee == expected, (n, k)

    @pytest.mark.parametrize("f,a,b", [
        (lambda x: x * x - 2.0, 0.0, 2.0),
        (lambda x: math.cos(x) - x, 0.0, 1.0),
        (lambda x: x ** 3 - 0.1, -1.0, 0.5),
        (lambda x: math.exp(x) - 1e-6, -20.0, 1.0),
        (lambda x: math.tanh(50.0 * (x - 0.3)), 0.0, 1.0),
        (lambda x: x - 0.25, 0.25, 1.0),
        (lambda x: x - 1.0, 0.0, 1.0),
    ])
    @pytest.mark.parametrize("xtol", [_XTOL, 1e-3])
    def test_brent_steps_match_scipy_on_other_functions(self, f, a, b, xtol):
        assert _brentq(f, a, b, xtol) == optimize.brentq(f, a, b, xtol=xtol)

    def test_brent_rejects_bracket_without_sign_change(self):
        with pytest.raises(ValueError, match="signs"):
            _brentq(lambda x: x + 1.0, 0.0, 1.0, _XTOL)

    def test_brent_reports_no_convergence(self):
        with pytest.raises(RuntimeError, match="no convergence in 1 iterations"):
            _brentq(lambda x: x * x - 2.0, 0.0, 2.0, _XTOL, maxiter=1)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            CombinerSpec.solve(5, 0)
        with pytest.raises(ValueError):
            CombinerSpec.solve(5, 6)

    @pytest.mark.parametrize("n, k", [(10**17, 5 * 10**16), (10**13, 2), (10**13, 3), (10**14, 10),
                                      (10**15, 100), (10**16, 100)])
    def test_refuses_a_knee_the_float_tail_cannot_place(self, n, k):
        # unguarded, these gave the bracket's left end (knee 0.5 and slope 1
        # at the first; slopes 10-30 % low at the next three) or a slope
        # below the envelope's lower slope (70 % low at (10**15, 100))
        with pytest.raises(ValueError, match=re.escape(f"no reliable knee at (n, k) = ({n}, {k})")):
            CombinerSpec.solve(n, k)

    def test_guard_passes_every_pair_up_to_a_trillion(self):
        # n log-spaced up to 10**12 at the small, median and top indices:
        # the knee stays inside its bracket and the slope inside the envelope
        for n in np.unique(np.round(np.logspace(0, 12, 100)).astype(np.int64)).tolist():
            for k in {1, 2, 3, 10, 100, n // 10, (n + 1) // 2, n - 1, n}:
                if 1 <= k <= n:
                    CombinerSpec.solve(n, k)

    def test_rejects_nan_slope_and_knee(self):
        with pytest.raises(ValueError, match="slope"):
            CombinerSpec(5, 3, 0.5, float("nan"))
        with pytest.raises(ValueError, match="knee"):
            CombinerSpec(5, 3, float("nan"), 2.0)


class TestApply:
    def test_reference_combined_value(self):
        spec = CombinerSpec.solve(1000, 500)
        value = spec.apply(0.03)
        assert value == pytest.approx(0.03 * spec.slope, rel=1e-12)
        assert 0.0553 <= value <= 0.0555

    def test_endpoints_are_fixed(self):
        for n, k in [(1, 1), (7, 3), (64, 64)]:
            spec = CombinerSpec.solve(n, k)
            assert spec.apply(0.0) == 0.0
            assert spec.apply(1.0) == 1.0

    def test_smallest_index_closed_form(self):
        spec = CombinerSpec.solve(3, 1)
        assert spec.apply(0.2) == pytest.approx(0.488, abs=1e-12)

    @pytest.mark.parametrize("n,k", pair_suite(30))
    def test_monotone_bijection_on_grid(self, n, k):
        spec = CombinerSpec.solve(n, k)
        u = np.linspace(0.0, 1.0, 201)
        f = spec.apply(u)
        assert f[0] == 0.0 and f[-1] == 1.0
        diffs = np.diff(f)
        assert np.all(diffs >= 0.0)
        # strict except where the value has saturated to 1 at double precision
        assert np.all(diffs[f[1:] < 1.0 - 1e-13] > 0.0)
        assert np.all((f >= 0.0) & (f <= 1.0))

    @pytest.mark.parametrize("n,k", [(4, 2), (10, 5), (50, 20), (1000, 500)])
    def test_branches_agree_at_knee(self, n, k):
        spec = CombinerSpec.solve(n, k)
        linear = spec.slope * spec.knee
        tail = binom_upper_tail(n, k, spec.knee)
        assert abs(linear - tail) <= 1e-9

    @pytest.mark.parametrize("n,k", [(3, 2), (11, 6), (40, 15)])
    def test_exactly_linear_below_stated_region(self, n, k):
        spec = CombinerSpec.solve(n, k)
        u = np.linspace(0.0, (k - 1) / (n - 1), 50)
        assert_allclose(spec.apply(u), spec.slope * u, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("n,k", [(2, 1), (9, 5), (33, 20), (128, 9)])
    def test_sandwiched_by_envelope(self, n, k):
        spec = CombinerSpec.solve(n, k)
        u = np.linspace(0.0, 1.0, 501)
        lower, upper = envelope(n, k, u)
        f = spec.apply(u)
        assert np.all(f >= lower - 1e-12)
        assert np.all(f <= upper + 1e-12)

    @pytest.mark.parametrize("n,k", [(5, 3), (10, 5), (12, 4)])
    def test_alternative_representation_as_running_max(self, n, k):
        # f(u) = u * max over p in [u, 1] of the tail ratio
        spec = CombinerSpec.solve(n, k)
        for u in np.linspace(0.05, 0.95, 9):
            grid = np.linspace(u, 1.0, 200_001)
            alt = u * tail_ratio(n, k, grid).max()
            assert spec.apply(u) == pytest.approx(alt, abs=1e-6)

    @pytest.mark.parametrize("n,k", [(10, 5), (1000, 500), (10_000, 5000), (7, 1), (7, 7)])
    def test_bit_identical_to_both_branch_formula(self, n, k):
        spec = CombinerSpec.solve(n, k)
        edges = [0.0, spec.knee, np.nextafter(spec.knee, 1.0), 1.0]
        u = np.concatenate([edges, np.random.default_rng(n + k).random(1_000_000)])
        expected = apply_both_branches(n, k, spec.knee, spec.slope, u)
        assert np.array_equal(spec.apply(u), expected)
        assert all(spec.apply(e) == x for e, x in zip(edges, expected))

    @pytest.mark.parametrize("n,k", [(1, 1), (10, 1), (10, 10), (10, 5), (37, 3), (1000, 500)])
    def test_vector_is_the_scalar_apply_of_each_entry(self, n, k):
        # values on both branches and at the knee exactly land in their own
        # slots; a 2-d input keeps its shape and an empty one stays empty
        spec = CombinerSpec.solve(n, k)
        rng = np.random.default_rng(n + k)
        knee = spec.knee
        u = np.concatenate([[0.0, knee, np.nextafter(knee, 0.0), np.nextafter(knee, 1.0), 1.0],
                            knee * rng.random(40), knee + (1.0 - knee) * rng.random(40)])
        u = rng.permutation(np.clip(u, 0.0, 1.0))
        if knee < 1.0:
            assert 0 < np.count_nonzero(u > knee) < u.size
        out = spec.apply(u)
        assert out.tobytes() == np.array([spec.apply(float(x)) for x in u]).tobytes()
        square = spec.apply(u.reshape(5, 17))
        assert square.shape == (5, 17) and square.tobytes() == out.tobytes()
        for empty in (np.empty(0), np.empty((0, 3))):
            got = spec.apply(empty)
            assert isinstance(got, np.ndarray) and got.shape == empty.shape

    @pytest.mark.parametrize("n,k", [(10, 5), (200, 100), (1000, 500), (7, 1), (7, 7)])
    def test_linear_branch_makes_no_tail_call(self, n, k, monkeypatch):
        # u <= knee reads the line alone; the tail is evaluated only where u > knee
        spec = CombinerSpec.solve(n, k)
        u = [0.0, spec.knee / 3, np.nextafter(spec.knee, 0.0), spec.knee]
        want = [spec.apply(x) for x in u]
        vector = spec.apply(np.array(u))

        def no_tail(*args):
            raise AssertionError("the tail was evaluated")

        monkeypatch.setattr(correction, "_upper_tail", no_tail)
        got = [spec.apply(x) for x in u]
        assert all(type(x) is float for x in got)
        assert np.array(got).tobytes() == np.array(want).tobytes()
        assert spec.apply(np.array(u)).tobytes() == vector.tobytes()
        if spec.knee < 1.0:
            with pytest.raises(AssertionError, match="the tail was evaluated"):
                spec.apply(np.nextafter(spec.knee, 1.0))

    def test_rejects_out_of_range(self):
        spec = CombinerSpec.solve(4, 2)
        with pytest.raises(ValueError):
            spec.apply(1.5)
        with pytest.raises(ValueError):
            spec.apply(-0.2)


class TestInvert:
    def test_zero_maps_to_zero(self):
        assert CombinerSpec.solve(8, 3).invert(0.0) == 0.0

    def test_reference_roundtrip(self):
        spec = CombinerSpec.solve(1000, 500)
        assert spec.invert(spec.apply(0.03)) == pytest.approx(0.03, abs=1e-12)

    def test_smallest_index_closed_form(self):
        spec = CombinerSpec.solve(3, 1)
        assert spec.invert(0.488) == pytest.approx(0.2, abs=1e-12)
        assert spec.invert(0.9) == pytest.approx(1.0 - (1.0 - 0.9) ** (1 / 3), rel=1e-12)

    @pytest.mark.parametrize("n,k", [(2, 1), (7, 4), (25, 25), (100, 37)])
    def test_roundtrip_on_grid(self, n, k):
        spec = CombinerSpec.solve(n, k)
        u = np.linspace(0.0, 1.0, 101)
        f = spec.apply(u)
        # within ~1e-9 of 1 the slope vanishes and a 1-ulp error in f blows
        # past any fixed tolerance in u, so test the resolvable region
        mask = f < 1.0 - 1e-9
        assert np.max(np.abs(spec.invert(f[mask]) - u[mask])) <= 1e-9
        assert spec.invert(1.0) == 1.0


class TestDigitOracle:
    """The tail, slope, tail branch and round trip against a 50-digit tail, for n <= 10**4.

    Up to n = 10**4 every error is inside the 1e-12 contract; beyond it, at
    small k, the tail misses it (about 1.5e-12 at n = 10**5).
    """

    FACTORS = (0.5, 0.9, 1.0, 1.1, 1.5, 3.0, 10.0)

    @pytest.mark.parametrize("n,k,p_num,p_den",
                             [(10, 3, 3, 10), (10, 8, 3, 10), (60, 59, 9, 10), (137, 43, 7, 16),
                              (137, 100, 7, 16), (200, 1, 1, 128), (7, 7, 1, 2)])
    def test_oracle_matches_exact_rationals(self, n, k, p_num, p_den):
        # both summation directions, on both sides of n/2
        assert upper_tail_mp(n, k, p_num / p_den) == pytest.approx(
            exact_upper_tail(n, k, p_num, p_den), abs=1e-15)

    @pytest.mark.parametrize("n,k", [(n, k) for n in (1000, 10_000)
                                     for k in (2, 3, 5, 10, 30, 100, (n + 1) // 2)])
    def test_within_contract_around_the_knee(self, n, k):
        spec = CombinerSpec.solve(n, k)
        u = np.minimum(spec.knee * np.array(self.FACTORS), 1.0)
        exact = np.array([upper_tail_mp(n, k, x) for x in u])
        assert np.max(np.abs(binom_upper_tail(n, k, u) - exact)) <= 1e-12
        beyond = u > spec.knee
        assert np.max(np.abs(spec.apply(u[beyond]) - exact[beyond])) <= 1e-12
        assert spec.slope == pytest.approx(exact[self.FACTORS.index(1.0)] / spec.knee,
                                           rel=1e-12, abs=0.0)
        alpha = exact[exact > spec.slope * spec.knee]
        assert alpha.size >= 3
        assert np.max(np.abs(spec.apply(spec.invert(alpha)) - alpha)) <= 1e-12


class TestEnvelope:
    def test_plug_in_at_one(self):
        lower, upper = envelope(4, 2, 1.0)
        assert upper == 1.0
        assert lower == pytest.approx(1.0 / (1.0 + 5.0 * 2 ** (-1 / 3)), rel=1e-12)

    def test_reference_upper_bound_is_twice_median(self):
        _, upper = envelope(1000, 500, 0.03)
        assert upper == 0.06

    def test_identity_case_upper_equals_value(self):
        spec = CombinerSpec.solve(10, 10)
        _, upper = envelope(10, 10, 0.5)
        assert upper == 0.5
        assert spec.apply(0.5) == pytest.approx(0.5, abs=1e-15)

    def test_upper_bound_never_below_identity_at_k_equal_n(self):
        # n * u / k rounds 1 ulp below u here; (n / k) * u is u exactly
        assert envelope(40, 40, 4.198044657764164e-07)[1] == 4.198044657764164e-07
        u = np.linspace(0.0, 1.0, 200)
        for n in range(1, 101):
            lower, upper = envelope(n, n, u)
            f = solve_combiner(n, n).apply(u)
            assert np.all(lower <= f) and np.all(f <= upper)

    def test_upper_bound_is_the_combined_bound(self):
        rng = np.random.default_rng(4)
        for n, k in ((40, 40), (10, 3), (1000, 500), (7, 1)):
            res = orderpv.combine_pvalues(rng.uniform(size=n), k)
            assert res.bound == envelope(res.n, res.k, res.order_stat)[1]


def test_solver_cache_returns_same_object():
    assert solve_combiner(12, 5) is solve_combiner(12, 5)


def test_solver_cache_drops_the_least_recently_used_pair():
    # k = 1 solves in closed form, so filling the cache takes milliseconds
    assert SOLVE_CACHE_SIZE == 4096
    solve_combiner.cache_clear()
    try:
        first = solve_combiner(1, 1)
        for n in range(2, SOLVE_CACHE_SIZE + 1):
            solve_combiner(n, 1)
        info = solve_combiner.cache_info()
        assert (info.maxsize, info.currsize, info.hits, info.misses) == (4096, 4096, 0, 4096)
        assert solve_combiner(1, 1) is first  # a hit makes (1, 1) the most recent
        solve_combiner(SOLVE_CACHE_SIZE + 1, 1)  # full: drops (2, 1), now the least recent
        info = solve_combiner.cache_info()
        assert (info.currsize, info.hits, info.misses) == (4096, 1, 4097)
        assert solve_combiner(1, 1) is first
        solve_combiner(2, 1)
        solve_combiner(SOLVE_CACHE_SIZE, 1)
        info = solve_combiner.cache_info()
        assert (info.currsize, info.hits, info.misses) == (4096, 3, 4098)
    finally:
        solve_combiner.cache_clear()


def test_import_and_solve_leave_scipy_optimize_unloaded():
    # the knee comes from the in-package Brent steps; scipy.optimize adds
    # about 24 MB to the process
    src = os.path.dirname(os.path.dirname(orderpv.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys; import numpy as np; import orderpv; "
        "orderpv.combine_pvalues(np.linspace(0.01, 0.99, 301)); "
        "orderpv.tightness_scan(10, 5, 1.0, 1000, 0); "
        "print('scipy.optimize' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
