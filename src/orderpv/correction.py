"""The optimal monotone correction for a single order statistic of p-values.

Given n individually valid, conditionally i.i.d. p-values, the k-th smallest
of them is not itself a valid p-value; the smallest increasing transform that
repairs it is piecewise: a straight line of slope ``c`` up to a knee ``p*``,
then the binomial upper tail ``P(Bin(n, u) >= k)``.  The pair ``(p*, c)`` is
found by maximizing the tail ratio ``P(Bin(n, p) >= k) / p`` over p, which is
unimodal, so the stationarity condition has a single sign change on a fixed
bracket and Brent's root finder converges on it.

The resulting map is a continuous increasing bijection of [0,1] onto [0,1],
bounded above by ``min(1, n*u/k)`` (so "twice the left sample median" is
always a conservative summary) and below by that bound divided by
``1 + 5*k**(-1/3)``.

Three modules reach scipy.special, all through `binom._special`: `binom`,
whose `_upper_tail` is every tail in the package (this module's tail
branch, knee search and slope, and the validity verdict), this module,
whose `invert` calls ``betaincinv``, and `validity`, whose strided
atom-count search starts from ``ndtri``.  `_special` imports scipy.special on
its first call: the first solve, tail or inverse in a process pays that
import, and concurrent first calls wait for it.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .binom import _as_result, _check_nk, _check_p, _special, _upper_tail

DEFAULT_TOL = 1e-12

# brentq stops once the bracket is narrower than xtol + rtol*|knee|, and its
# rtol floor of 4 eps adds under 1e-15 on [0, 1]; half the tolerance leaves
# room for that term.
_XTOL = DEFAULT_TOL / 2


def tail_ratio(n, k, p):
    """P(Bin(n, p) >= k) / p, extended by continuity at p = 0.

    The continuity value at 0 is the tail's derivative there: n when k = 1,
    0 when k >= 2.  Unimodal in p; its maximum is the correction factor.
    """
    n, k = _check_nk(n, k)
    parr = _check_p(p).ravel()

    out = np.empty_like(parr)
    pos = parr > 0.0
    out[pos] = _upper_tail(n, k, parr[pos]) / parr[pos]
    out[~pos] = float(n) if k == 1 else 0.0
    return _as_result(out, p)


def _brentq(f, a, b, xtol, rtol=4 * np.finfo(float).eps, maxiter=100):
    """Root of f in [a, b] by the steps of scipy.optimize.brentq (Brent 1973).

    The same float operations in the same order as scipy's C routine, so the
    root is bit-identical to ``optimize.brentq(f, a, b, xtol=xtol)``; having
    it here keeps scipy.optimize, about 24 MB and 0.3 s, out of the import.
    """
    xpre, xcur, fpre, fcur = a, b, float(f(a)), float(f(b))
    if fpre == 0:
        return a
    if fcur != 0 and (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return float(xcur)
        short = False
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic interpolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            short = 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta)
        spre, scur = (scur, stry) if short else (sbis, sbis)
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = float(f(xcur))
    raise RuntimeError(f"no convergence in {maxiter} iterations")


def _stationarity(p, n, k):
    """w(p) = p * tail'(p) - tail(p): zero where the tail ratio peaks.

    With tail(p) = I_p(k, n-k+1), p * tail'(p) = k * pmf(k) and pmf(k) =
    I_p(k, n-k+1) - I_p(k+1, n-k), so for k < n

        w(p) = (k-1) * I_p(k, n-k+1) - k * I_p(k+1, n-k),

    two tail calls and no binomial pmf.
    """
    return (k - 1) * _upper_tail(n, k, p) - k * _upper_tail(n, k + 1, p)


@dataclass(frozen=True)
class CombinerSpec:
    """Solved correction for the k-th order statistic of n p-values.

    Attributes
    ----------
    n, k : int
        Sample size and order-statistic index, fixed before seeing data.
    knee : float
        Argmax of the tail ratio; upper end of the linear branch.
    slope : float
        Maximum of the tail ratio; the multiplier on the linear branch.
    """

    n: int
    k: int
    knee: float
    slope: float

    def __post_init__(self):
        _check_nk(self.n, self.k)
        if not 0.0 <= self.knee <= 1.0:
            raise ValueError(f"knee must lie in [0, 1], got {self.knee}")
        if not self.slope >= 1.0 - 1e-9:
            raise ValueError(f"slope must be >= 1, got {self.slope}")

    @classmethod
    def solve(cls, n, k):
        """Locate the knee to absolute precision DEFAULT_TOL and the slope there.

        The stationarity function ``w(p) = p * tail' (p) - tail(p)`` is
        strictly decreasing on [(k-1)/(n-1), 1], positive at the left end and
        -1 at the right, so Brent's method finds its root in that bracket.
        Degenerate configurations are dispatched analytically: k = 1 gives
        slope n at knee 0 (n = 1 included) and k = n gives the identity
        correction (knee 1, slope 1).

        A knee on the bracket's left end, where w > 0 in exact arithmetic,
        or a slope below the envelope's lower slope (n/k) / (1 + 5k^(-1/3))
        means the float tail could not place the knee (at n of about 10**13
        and up); that is a `ValueError` naming (n, k), not a correction.
        """
        n, k = _check_nk(n, k)

        if k == 1:
            return cls(n, k, 0.0, float(n))
        if k == n:
            return cls(n, k, 1.0, 1.0)

        left = (k - 1) / (n - 1)
        knee = _brentq(lambda p: _stationarity(p, n, k), left, 1.0, _XTOL)
        slope = float(_upper_tail(n, k, knee) / knee)
        if knee == left or slope < (n / k) / (1.0 + 5.0 * k ** (-1.0 / 3.0)):
            raise ValueError(f"no reliable knee at (n, k) = ({n}, {k}): "
                             f"the float binomial tail is too coarse at this n")
        return cls(n, k, knee, slope)

    def apply(self, u):
        """Corrected p-value for an observed order statistic u.

        Linear (slope * u) on [0, knee], the binomial upper tail beyond;
        the branches agree at the knee by construction.  The tail is
        evaluated only where u > knee, as the incomplete beta I_u(k, n-k+1)
        on the already checked values.  Every value is >= 0 (slope >= 1,
        u >= 0, the tail >= 0), so capping at 1 is the only clip needed.
        """
        uarr = _check_p(u, "u").ravel()
        out = self.slope * uarr
        # one index gathers and scatters the tail; the method form skips
        # np.flatnonzero's wrappers, about 1 us a scalar call
        tail = (uarr > self.knee).nonzero()[0]
        if tail.size:  # a scalar on the linear branch skips an empty betainc call
            out[tail] = _upper_tail(self.n, self.k, uarr[tail])
        return _as_result(np.minimum(out, 1.0, out=out), u)

    def invert(self, alpha):
        """The unique u with apply(u) == alpha.

        The linear branch inverts by division; the tail branch through the
        inverse regularized incomplete beta function, only where alpha is
        beyond the knee's value slope * knee.  ``apply(invert(alpha))`` is
        checked within 1e-12 of alpha for n <= 10**4; for small k at larger
        n the tail's own error carries over, up to about 4e-9 at n = 10**8.
        """
        aarr = _check_p(alpha, "alpha").ravel()
        out = aarr / self.slope
        tail = aarr > self.slope * self.knee
        out[tail] = _special().betaincinv(self.k, self.n - self.k + 1, aarr[tail])
        return _as_result(np.clip(out, 0.0, 1.0), alpha)


# Most solved (n, k) pairs `solve_combiner` keeps, the least recently used
# going first.  An entry holds about 330 bytes (tracemalloc), so the cache
# stays under 1.3 MB however many pairs one process solves.
SOLVE_CACHE_SIZE = 4096


@lru_cache(maxsize=SOLVE_CACHE_SIZE)
def solve_combiner(n, k):
    """Cached CombinerSpec.solve; repeated combinations skip the root search.

    At most `SOLVE_CACHE_SIZE` pairs are kept; the least recently used is
    dropped first.
    """
    return CombinerSpec.solve(n, k)


def envelope(n, k, u):
    """Universal (lower, upper) bounds for the corrected value at u.

    upper = min(1, (n/k)*u); lower = upper / (1 + 5*k**(-1/3)).  The
    corrected value always lies between the two, so the upper bound is a
    valid, simple stand-in for the exact correction.  The upper bound is
    ``(n / k) * u``, as in `CombineResult.bound`: at k = n the ratio is
    exactly 1, so the bound is u itself, never 1 ulp below it as
    ``n * u / k`` can be.
    """
    n, k = _check_nk(n, k)
    uarr = _check_p(u).ravel()

    upper = np.minimum(1.0, (n / k) * uarr)
    lower = upper / (1.0 + 5.0 * k ** (-1.0 / 3.0))
    return _as_result(lower, u), _as_result(upper, u)
