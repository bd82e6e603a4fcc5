"""Numerically stable binomial upper tails and their derivative.

These are the computational substrate for the order-statistic combination
machinery: the upper tail ``P(Bin(n, p) >= k)`` is the distribution function
of the k-th order statistic of n i.i.d. uniforms, and its derivative in p
is that order statistic's density.

All functions accept a scalar or array ``p`` and return a matching float or
ndarray.  ``n`` and ``k`` are scalars.

scipy.special is imported on the first tail, solve or inverse through
`_special`, not by `import orderpv`: importing the package, and the serial
chain, which needs no special function, never load scipy at all.  That
import runs under the import lock, so threads that make their first call
together all wait for one complete module.
"""

from functools import cache

import numpy as np

from .rngs import integral


@cache
def _special():
    """scipy.special, imported on the first call and cached after it."""
    import scipy.special

    return scipy.special


def _check_n(n, name="n"):
    """`n` as an int in [1, 2**63); a non-integral value is refused, not truncated.

    Counts reach numpy as int64, which overflows at 2**63.
    """
    value = integral(n)
    if value is None or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {n!r}")
    if value >= 2**63:
        raise ValueError(f"{name} must be below 2**63, got {n!r}")
    return value


def _check_nk(n, k):
    """(n, k) as ints, with n >= 1 and k in 1..n."""
    n = _check_n(n)
    value = integral(k)
    if value is None or not 1 <= value <= n:
        raise ValueError(f"k must be an integer in [1, {n}], got {k!r}")
    return n, value


def _check_p(p, name="p"):
    """`p` as a float array, every entry in [0, 1]; NaN fails the comparison.

    A 0-d `p` (a Python or numpy scalar, or a 0-d array) is checked by one
    chained float comparison, which accepts and refuses exactly what the
    array test does, with the same message, at about a seventh of its cost.
    """
    arr = np.asarray(p, dtype=float)
    if arr.ndim == 0:
        inside = 0.0 <= float(arr) <= 1.0
    else:
        inside = ((arr >= 0.0) & (arr <= 1.0)).all()
    if not inside:
        raise ValueError(f"{name} must lie in [0, 1]")
    return arr


def _as_result(flat, p_in):
    shaped = flat.reshape(np.shape(p_in))
    return float(shaped) if shaped.ndim == 0 else shaped


def _upper_tail(n, k, p):
    """P(Bin(n, p) >= k) = I_p(k, n - k + 1), unchecked; `k` may be an array.

    The package's one evaluation of the binomial tail: `binom_upper_tail`,
    the correction's tail branch, knee search and slope, the validity
    verdict and the worst-case kernel's atom-count table all call it.  Its absolute error is checked within 1e-12 of a
    50-digit oracle for n <= 10**4.  Beyond that, for small k, ``betainc``
    loses about n * eps: about 1.5e-12 at n = 10**5 and 1.1e-9 at n = 10**8
    (ROADMAP.md, "The correction meets its 1e-12 contract at every n").
    Exactly 0 at p=0 and exactly 1 at p=1, as ``betainc`` is for
    parameters >= 1.

    An int `k` (the solve's case) reaches ``betainc`` as ``float(k)`` and
    ``float(n - k + 1)``: the same correctly rounded doubles numpy would
    make, so the same bits, without numpy's promotion of Python-int
    arguments, which took 12-40 % of a scalar call in timings on a 2-core
    x86 host.  An array `k` goes to ``betainc`` as it is.
    """
    if isinstance(k, int):
        return _special().betainc(float(k), float(n - k + 1), p)
    return _special().betainc(k, n - k + 1, p)


def binom_upper_tail(n, k, p):
    """Upper tail P(Bin(n, p) >= k) for k in 1..n.

    `_upper_tail` after checking n, k and p, with its accuracy: within
    1e-12 absolute for n <= 10**4, and up to about 1.1e-9 at n = 10**8 for
    small k.  Exactly 0 at p=0 and exactly 1 at p=1.
    """
    n, k = _check_nk(n, k)
    parr = _check_p(p).ravel()
    return _as_result(_upper_tail(n, k, parr), p)


def binom_upper_tail_derivative(n, k, p):
    """Derivative in p of the upper tail: n * pmf(n-1, k-1, p).

    The pmf is one scipy call, accurate to 1e-12 relative for n up to 1e6.
    Endpoints are the continuous extensions (n at p=0 when k=1, n at p=1
    when k=n, 0 otherwise).
    """
    n, k = _check_nk(n, k)
    parr = _check_p(p).ravel()
    # Imported here, not at module level: scipy.stats adds about 0.3 s and
    # 22 MB to `import orderpv`, and nothing else in the package needs it.
    from scipy import stats

    return _as_result(n * stats.binom.pmf(k - 1, n - 1, parr), p)
