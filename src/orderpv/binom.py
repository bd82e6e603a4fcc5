"""Numerically stable binomial densities and upper tails.

These are the computational substrate for the order-statistic combination
machinery: the upper tail ``P(Bin(n, p) >= k)`` is the distribution function
of the k-th order statistic of n i.i.d. uniforms, and its derivative in p
drives the correction-constant solver.

All functions accept a scalar or array ``p`` and return a matching float or
ndarray.  ``n`` and ``k`` are scalars.
"""

import numpy as np
from scipy import special


def _check_n(n, n_min=1):
    if n != int(n) or n < n_min:
        raise ValueError(f"n must be an integer >= {n_min}, got {n!r}")
    return int(n)


def _check_k(k, n, k_min):
    if k != int(k) or not k_min <= k <= n:
        raise ValueError(f"k must be an integer in [{k_min}, {n}], got {k!r}")
    return int(k)


def _check_p(p):
    arr = np.asarray(p, dtype=float)
    if arr.size and (np.any(arr < 0.0) or np.any(arr > 1.0) or np.any(np.isnan(arr))):
        raise ValueError("p must lie in [0, 1]")
    return arr


def _as_result(flat, p_in):
    shaped = flat.reshape(np.shape(p_in))
    return float(shaped) if shaped.ndim == 0 else shaped


def binom_pmf(n, k, p):
    """Probability of exactly k successes in n trials at success rate p.

    One call to scipy's binomial pmf; its relative error is at most 1e-12 for
    n up to 1e6.  Endpoints follow the 0^0 = 1 convention: the mass sits
    entirely at k=0 (p=0) or k=n (p=1).
    """
    n = _check_n(n, n_min=0)
    k = _check_k(k, n, 0)
    parr = _check_p(p).ravel()
    # Imported here, not at module level: scipy.stats adds about 0.3 s and
    # 22 MB to `import orderpv`, and nothing else in the package needs it.
    from scipy import stats

    return _as_result(stats.binom.pmf(k, n, parr), p)


def binom_upper_tail(n, k, p):
    """Upper tail P(Bin(n, p) >= k) for k in 1..n.

    Evaluated through the regularized incomplete beta identity
    ``P(Bin(n, p) >= k) = I_p(k, n - k + 1)``, which keeps absolute error
    near machine precision over the whole range.  Exactly 0 at p=0 and
    exactly 1 at p=1, as ``betainc`` is for parameters >= 1.
    """
    n = _check_n(n)
    k = _check_k(k, n, 1)
    parr = _check_p(p).ravel()
    return _as_result(special.betainc(k, n - k + 1, parr), p)


def binom_upper_tail_derivative(n, k, p):
    """Derivative in p of the upper tail: n * pmf(n-1, k-1, p).

    Endpoints are the continuous extensions (n at p=0 when k=1, n at p=1
    when k=n, 0 otherwise).
    """
    n = _check_n(n)
    k = _check_k(k, n, 1)
    out = n * np.asarray(binom_pmf(n - 1, k - 1, p), dtype=float).ravel()
    return _as_result(out, p)
