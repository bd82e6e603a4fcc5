"""Independent reference computations the tests check against.

Everything here deliberately avoids the package's production code paths:
exact rational arithmetic, direct summation, brute-force enumeration.
"""

import itertools
from fractions import Fraction
from math import comb

import mpmath
import numpy as np


def exact_pmf(n, k, p_num, p_den):
    """Binomial pmf by exact rational arithmetic, for p = p_num / p_den."""
    p = Fraction(p_num, p_den)
    return float(comb(n, k) * p**k * (1 - p) ** (n - k))


def exact_upper_tail(n, k, p_num, p_den):
    """Upper tail by exact rational summation of the smaller side."""
    p = Fraction(p_num, p_den)
    if k <= n - k + 1:
        total = sum(comb(n, j) * p**j * (1 - p) ** (n - j) for j in range(k, n + 1))
    else:
        total = 1 - sum(comb(n, j) * p**j * (1 - p) ** (n - j) for j in range(k))
    return float(total)


def exact_knee(n, k):
    """Knee of the correction by 40-digit bisection, for 1 < k < n.

    The root of w(p) = k C(n, k) p^k (1-p)^(n-k) - I_p(k, n-k+1), i.e.
    p * tail'(p) - tail(p), on the bracket [(k-1)/(n-1), 1].
    """
    with mpmath.workdps(40):
        coeff = k * mpmath.binomial(n, k)

        def w(p):
            density = coeff * p**k * (1 - p) ** (n - k)
            return density - mpmath.betainc(k, n - k + 1, 0, p, regularized=True)

        lo, hi = mpmath.mpf(k - 1) / (n - 1), mpmath.mpf(1)
        while hi - lo > mpmath.mpf("1e-32"):
            mid = (lo + hi) / 2
            if w(mid) > 0:
                lo = mid
            else:
                hi = mid
        return float((lo + hi) / 2)


def central_difference(f, x, h=1e-6):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def enumerate_margin_class(row_sums, col_sums):
    """All 0/1 matrices with the given margins, by backtracking (tiny cases only)."""
    rows = [int(x) for x in row_sums]
    cols = [int(x) for x in col_sums]
    r, c = len(rows), len(cols)
    out = []

    def recurse(i, caps, acc):
        if i == r:
            if all(x == 0 for x in caps):
                out.append(np.array(acc, dtype=np.int8))
            return
        remaining = r - i
        if any(x > remaining for x in caps) or sum(caps) != sum(rows[i:]):
            return
        for combo in itertools.combinations(range(c), rows[i]):
            if all(caps[j] >= 1 for j in combo):
                nxt = caps.copy()
                for j in combo:
                    nxt[j] -= 1
                recurse(i + 1, nxt, acc + [[1 if j in combo else 0 for j in range(c)]])

    recurse(0, cols.copy(), [])
    return out


def rank_sum_null_cdf_bruteforce(m1, m):
    """P(rank sum of a uniform m1-subset of 1..m <= w), by enumeration."""
    sums = [sum(sub) for sub in itertools.combinations(range(1, m + 1), m1)]
    sums = np.asarray(sums)
    max_sum = m * (m + 1) // 2
    return np.array([(sums <= w).mean() for w in range(max_sum + 1)])


def rank_sum_bruteforce(row, tiebreak, m1):
    """Rank sum of the first m1 entries of `row`, ties broken by `tiebreak`.

    Entry i ranks 1 + the number of entries j with (row[j], tiebreak[j])
    lexicographically below (row[i], tiebreak[i]).
    """
    keys = list(zip(row, tiebreak))
    return sum(1 + sum(other < keys[i] for other in keys) for i in range(m1))


def checkerboard_score_bruteforce(entries):
    """Mean over column pairs of (colsum_j - overlap)(colsum_j2 - overlap)."""
    e = np.asarray(entries)
    c = e.shape[1]
    col = e.sum(axis=0)
    terms = []
    for j1 in range(c):
        for j2 in range(j1 + 1, c):
            overlap = int((e[:, j1] * e[:, j2]).sum())
            terms.append((col[j1] - overlap) * (col[j2] - overlap))
    return float(np.mean(terms))
