import os
import subprocess
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import special

import orderpv
from orderpv.binom import _check_p, _upper_tail, binom_upper_tail, binom_upper_tail_derivative

from oracles import central_difference, exact_pmf, exact_upper_tail


def binom_pmf(n, k, p):
    """P(Bin(n, p) = k) through the tail derivative: d/dp P(Bin(n+1, p) >= k+1) / (n+1)."""
    return binom_upper_tail_derivative(n + 1, k + 1, p) / (n + 1)


# Exact rational oracle values, frozen; the oracle code recomputes them below.
PMF_1000_500_HALF = 0.0252250181783608
TAIL_1000_500_HALF = 0.5126125090891804


class TestPmf:
    def test_small_counts(self):
        assert binom_pmf(3, 2, 0.5) == pytest.approx(0.375, abs=1e-15)

    def test_degenerate_at_zero(self):
        assert binom_pmf(5, 0, 0.0) == 1.0
        assert binom_pmf(5, 2, 0.0) == 0.0
        assert binom_pmf(5, 5, 1.0) == 1.0

    def test_large_central_value_vs_exact_oracle(self):
        oracle = exact_pmf(1000, 500, 1, 2)
        assert oracle == pytest.approx(PMF_1000_500_HALF, rel=1e-14)
        assert binom_pmf(1000, 500, 0.5) == pytest.approx(oracle, rel=1e-12)

    @pytest.mark.parametrize(
        "n,k,p_num,p_den",
        [(10, 3, 3, 10), (60, 59, 9, 10), (200, 1, 1, 100), (137, 43, 7, 16)],
    )
    def test_matches_exact_rationals(self, n, k, p_num, p_den):
        assert binom_pmf(n, k, p_num / p_den) == pytest.approx(
            exact_pmf(n, k, p_num, p_den), rel=1e-12
        )

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            binom_pmf(5, 6, 0.5)
        with pytest.raises(ValueError):
            binom_pmf(5, -1, 0.5)
        with pytest.raises(ValueError):
            binom_pmf(5, 2, 1.5)
        with pytest.raises(ValueError):
            binom_pmf(5, 2, -0.1)

    def test_array_input_keeps_shape(self):
        p = np.array([[0.0, 0.5], [0.25, 1.0]])
        out = binom_pmf(3, 2, p)
        assert out.shape == p.shape
        assert_allclose(out, [[0.0, 0.375], [0.140625, 0.0]], atol=1e-15)


class TestUpperTail:
    def test_symmetric_midpoint(self):
        assert binom_upper_tail(3, 2, 0.5) == pytest.approx(0.5, abs=1e-15)

    def test_zero_at_p_zero(self):
        assert binom_upper_tail(7, 1, 0.0) == 0.0
        assert binom_upper_tail(7, 1, 1.0) == 1.0

    def test_large_central_value_vs_exact_oracle(self):
        oracle = exact_upper_tail(1000, 500, 1, 2)
        assert oracle == pytest.approx(TAIL_1000_500_HALF, rel=1e-14)
        assert binom_upper_tail(1000, 500, 0.5) == pytest.approx(oracle, abs=1e-13)

    @pytest.mark.parametrize("n,k", [(1, 1), (4, 2), (12, 7), (50, 3), (200, 113)])
    def test_direct_sum_identity(self, n, k):
        # tail == 1 - sum of the exact pmf below k, on the p grid i/40
        for i in range(41):
            low = sum(exact_pmf(n, j, i, 40) for j in range(k))
            assert binom_upper_tail(n, k, i / 40) == pytest.approx(1.0 - low, abs=1e-12)

    @pytest.mark.parametrize("n,k", [(2, 1), (5, 4), (30, 11), (100, 50)])
    def test_strictly_increasing_in_p(self, n, k):
        p = np.linspace(0.0, 1.0, 1000)
        tail = binom_upper_tail(n, k, p)
        diffs = np.diff(tail)
        assert np.all(diffs >= 0.0)
        # strict except where the tail has saturated to 1 at double precision
        resolvable = tail[1:] < 1.0 - 1e-13
        assert np.all(diffs[resolvable] > 0.0)

    @pytest.mark.parametrize("n,k", [(3, 1), (10, 5), (40, 28), (150, 9)])
    def test_markov_bound(self, n, k):
        p = np.linspace(1e-6, 1.0, 400)
        bound = (k / (n * p)) * binom_upper_tail(n, k, p)
        assert np.all(bound <= 1.0 + 1e-12)

    def test_rejects_k_zero(self):
        with pytest.raises(ValueError):
            binom_upper_tail(5, 0, 0.5)

    def test_rejects_n_numpy_cannot_hold(self):
        # counts reach numpy as int64: at 2**63 and above it overflowed
        # with OverflowError instead of naming n
        assert binom_upper_tail(2**63 - 1, 1, 0.0) == 0.0
        for n in (2**63, 2**70, 2**1100):
            with pytest.raises(ValueError, match=r"n must be below 2\*\*63"):
                binom_upper_tail(n, 1, 0.5)


class TestScalarPaths:
    """The int-k tail and the 0-d probability check: the array paths' answers, faster."""

    @pytest.mark.parametrize("n", [10, 1000, 2**53 - 1, 2**53 + 1, 2**62 + 3, 2**63 - 1])
    def test_int_k_tail_is_the_int64_array_tail_bit_for_bit(self, n):
        # float(k) and float(n - k + 1) are the doubles numpy makes of the
        # ints, also above 2**53, where they round
        p = np.array([0.0, 5e-324, 1e-12, 0.5, 1.0])
        for k in (1, 2, n // 2, n):
            array = _upper_tail(n, np.full(p.shape, k, dtype=np.int64), p)
            direct = special.betainc(k, n - k + 1, p)
            assert _upper_tail(n, k, p).tobytes() == array.tobytes() == direct.tobytes()
            for i, q in enumerate(p):
                assert np.float64(_upper_tail(n, k, float(q))).tobytes() == array[i].tobytes()

    @staticmethod
    def _outcome(p):
        try:
            return _check_p(p, "u").tobytes()
        except ValueError as error:
            return str(error)

    @pytest.mark.parametrize("value", [np.nan, -0.0, 1.0, float(np.nextafter(1.0, 2.0)), -5e-324,
                                       False, True, 0, 1, 2, -1])
    def test_scalar_check_is_the_array_check(self, value):
        # Python and numpy scalars and 0-d arrays take the one-comparison
        # branch; a 1-element vector takes the array test, with the same answer
        for p in (value, np.float64(value), np.array(value)):
            assert np.ndim(p) == 0
            assert self._outcome(p) == self._outcome(np.reshape(p, 1))
        assert (self._outcome(value) == "u must lie in [0, 1]") == (not 0.0 <= value <= 1.0)


class TestUpperTailDerivative:
    def test_identity_case(self):
        for p in (0.0, 0.2, 0.9, 1.0):
            assert binom_upper_tail_derivative(1, 1, p) == pytest.approx(1.0, abs=1e-15)

    def test_two_trials(self):
        assert binom_upper_tail_derivative(2, 1, 0.5) == pytest.approx(1.0, abs=1e-14)

    def test_finite_difference_single_point(self):
        fd = central_difference(lambda p: binom_upper_tail(20, 7, p), 0.3)
        assert binom_upper_tail_derivative(20, 7, 0.3) == pytest.approx(fd, abs=1e-6)

    @pytest.mark.parametrize("n,k", [(2, 1), (9, 3), (25, 25), (60, 31)])
    def test_finite_difference_grid(self, n, k):
        for p in np.linspace(0.05, 0.95, 10):
            fd = central_difference(lambda q: binom_upper_tail(n, k, q), p)
            assert binom_upper_tail_derivative(n, k, p) == pytest.approx(fd, abs=1e-6)


def test_import_and_combine_leave_scipy_stats_unloaded():
    # scipy.stats is loaded by binom_upper_tail_derivative alone, on first use
    src = os.path.dirname(os.path.dirname(orderpv.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys; import numpy as np; import orderpv; "
        "orderpv.combine_pvalues(np.linspace(0.01, 0.99, 301)); "
        "print('scipy.stats' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def run_fresh(code):
    """Last stdout line of `code` run in a fresh interpreter on this package."""
    src = os.path.dirname(os.path.dirname(orderpv.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return out.stdout.splitlines()[-1]


class TestLazySpecial:
    """scipy.special is imported on its first use, through `binom._special`.

    `import orderpv` loads no scipy; the first tail, solve or inverse
    imports scipy.special, whose package init loads the `_ufuncs` extension
    module the tests look for.
    """

    def test_chain_path_leaves_special_unloaded(self, tmp_path):
        path, trace = tmp_path / "m.csv", tmp_path / "t.csv"
        path.write_text("1,0,1,0\n0,1,1,0\n1,1,0,1\n")
        code = (
            "import sys; import orderpv; from orderpv import cli; "
            "m = orderpv.generate_null_matrix([2, 1, 3], [2, 2, 1, 1], burn_in=100, seed=1); "
            "orderpv.serial_pvalue(m, orderpv.ChainConfig(length=500, seed=2)); "
            f"code = cli.main(['bcmc', {str(path)!r}, '--chain-length', '300', "
            f"'--trace-out', {str(trace)!r}]); "
            "print(code, 'scipy.special._ufuncs' in sys.modules, 'scipy' in sys.modules)"
        )
        assert run_fresh(code) == "0 False False"
        assert len(trace.read_text().splitlines()) == 301

    def test_combine_loads_special_once(self):
        code = (
            "import sys; import numpy as np; import orderpv; "
            "r = orderpv.combine_pvalues(np.linspace(0.01, 0.99, 301)); "
            "print(r.summary, 'scipy.special._ufuncs' in sys.modules, "
            "orderpv.binom._special() is sys.modules['scipy.special'] is sys.modules['scipy'].special)"
        )
        summary, loaded, same = run_fresh(code).split()
        assert float(summary) == orderpv.combine_pvalues(np.linspace(0.01, 0.99, 301)).summary
        assert (loaded, same) == ("True", "True")

    def test_special_imported_first_is_reused(self):
        code = (
            "import sys; import scipy.special; import orderpv; "
            "print(orderpv.binom._special() is scipy.special is sys.modules['scipy.special'])"
        )
        assert run_fresh(code) == "True"

    def test_inverse_tail_as_first_use(self):
        # 0.9 is above slope * knee = 0.75, so betaincinv loads the module
        code = (
            "import orderpv; "
            "print(repr(orderpv.CombinerSpec(10, 5, 0.5, 1.5).invert(0.9)))"
        )
        spec = orderpv.CombinerSpec(10, 5, 0.5, 1.5)
        assert float(run_fresh(code)) == spec.invert(0.9)
        assert spec.apply(spec.invert(0.9)) == pytest.approx(0.9, abs=1e-12)

    @pytest.mark.parametrize(
        "first_use",
        [
            "orderpv.combine_pvalues(np.linspace(0.01, 0.99, 301)).summary",
            "orderpv.CombinerSpec(10, 5, 0.5, 1.5).invert(0.9)",
        ],
    )
    def test_concurrent_first_use(self, first_use):
        # 8 threads released together make the process's first scipy.special
        # call; each must wait for the whole module, not read a half-built
        # one.  A 1-us switch interval interleaves them as tightly as it can.
        code = (
            "import sys, threading; import numpy as np; import orderpv; "
            "sys.setswitchinterval(1e-6); "
            "barrier = threading.Barrier(8); results = []\n"
            "def run():\n"
            "    barrier.wait()\n"
            f"    try: results.append(repr({first_use}))\n"
            "    except Exception as exc: results.append(repr(exc))\n"
            "threads = [threading.Thread(target=run) for _ in range(8)]\n"
            "for t in threads: t.start()\n"
            "for t in threads: t.join()\n"
            "print(' '.join(results))"
        )
        expected = repr(eval(first_use, {"np": np, "orderpv": orderpv}))
        assert run_fresh(code).split(" ") == [expected] * 8
