"""Collapse n conditionally i.i.d. p-values into one valid summary p-value.

The summary is the corrected k-th order statistic.  k must be fixed before
seeing the data; the recommended default is the left sample median index
``floor((n+1)/2)``, for which the simple conservative summary is the minimum
of 1 and twice the sample median.
"""

from dataclasses import dataclass

import numpy as np

from .binom import _check_n, _check_nk, _check_p
from .correction import solve_combiner


def default_k(n):
    """Index of the left sample median: floor((n+1)/2)."""
    return (_check_n(n) + 1) // 2


def _check_sample(values):
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError("expected a non-empty 1-d vector of p-values")
    return _check_p(arr, "all p-values")


def _kth_smallest(arr, k):
    return float(np.partition(arr, k - 1)[k - 1])


def order_statistic(values, k):
    """The k-th smallest entry (ties counted with multiplicity)."""
    arr = _check_sample(values)
    return _kth_smallest(arr, _check_nk(arr.size, k)[1])


@dataclass(frozen=True)
class CombineResult:
    """Summary p-value plus everything needed to report the combination.

    ``bound`` is the simple conservative value min(1, (n/k) * order_stat);
    the exact ``summary`` never exceeds it.
    """

    summary: float
    n: int
    k: int
    order_stat: float
    knee: float
    slope: float
    bound: float


def combine_pvalues(values, k=None):
    """Combine a vector of conditionally i.i.d. p-values.

    Parameters
    ----------
    values : array_like
        The n p-values, each in [0, 1]; order carries no meaning.
    k : int, optional
        Order-statistic index in 1..n, fixed before seeing the data.
        Defaults to the left sample median index.

    Returns
    -------
    CombineResult
        With ``summary`` the valid combined p-value.
    """
    arr = _check_sample(values)
    n = arr.size
    k = default_k(n) if k is None else _check_nk(n, k)[1]
    return _combine(n, k, _kth_smallest(arr, k))


def _combine(n, k, u):
    """The `CombineResult` of a checked k-th smallest value u of n p-values."""
    spec = solve_combiner(n, k)
    return CombineResult(
        summary=spec.apply(u),
        n=n,
        k=k,
        order_stat=u,
        knee=spec.knee,
        slope=spec.slope,
        bound=min(1.0, (n / k) * u),
    )
