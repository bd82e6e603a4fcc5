"""Independent reference computations the tests check against.

Everything here deliberately avoids the package's production code paths:
exact rational arithmetic, direct summation, brute-force enumeration.
"""

import itertools
from fractions import Fraction
from math import comb

import mpmath
import numpy as np
from scipy import special, stats


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


def upper_tail_mp(n, k, p):
    """P(Bin(n, p) >= k) at 50 mpmath digits, by summing binomial terms.

    For k <= n/2 it is 1 - sum_{j<k} pmf(j), from pmf(0) = (1-p)^n with the
    term ratio (n-j)/(j+1) * p/(1-p); above n/2 it sums the upper terms
    down from pmf(n) = p^n with the inverse ratio.  Either way it takes at
    most n/2 terms and needs no special function.
    """
    if p <= 0.0 or p >= 1.0:
        return float(p >= 1.0)
    with mpmath.workdps(50):
        p = mpmath.mpf(p)
        odds = p / (1 - p)
        if k <= n / 2:
            term, total = (1 - p) ** n, mpmath.mpf(0)
            for j in range(k):
                total += term
                term *= (n - j) * odds / (j + 1)
            return float(1 - total)
        term, total = p**n, mpmath.mpf(0)
        for j in range(n, k - 1, -1):
            total += term
            term *= j / ((n - j + 1) * odds)
        return float(total)


def exact_knee(n, k):
    """Knee of the correction by 40-digit bisection, for 1 < k < n.

    The root of w(p) = k C(n, k) p^k (1-p)^(n-k) - P(Bin(n, p) >= k), i.e.
    p * tail'(p) - tail(p), on the bracket [(k-1)/(n-1), 1].  The tail is
    summed term by term with the ratio (n-j)/(j+1) * p/(1-p) of consecutive
    binomial terms; mpmath's `betainc` fails to converge at large n (for
    example n = 5000, k = 2500).
    """
    with mpmath.workdps(40):
        coeff = mpmath.binomial(n, k)
        eps = mpmath.mpf(10) ** -45

        def w(p):
            term = coeff * p**k * (1 - p) ** (n - k)  # P(Bin(n, p) = k)
            odds = p / (1 - p)
            density, tail = k * term, term
            for j in range(k, n):
                ratio = (n - j) * odds / (j + 1)
                term *= ratio
                tail += term
                # past the mode the ratios keep falling, so once one is
                # below 1/2 the rest of the sum is under twice this term
                if ratio < 0.5 and term < eps * tail:
                    break
            return density - tail

        lo, hi = mpmath.mpf(k - 1) / (n - 1), mpmath.mpf(1)
        while hi - lo > mpmath.mpf("1e-32"):
            mid = (lo + hi) / 2
            if w(mid) > 0:
                lo = mid
            else:
                hi = mid
        return float((lo + hi) / 2)


def apply_both_branches(n, k, knee, slope, u):
    """The correction with both branches evaluated on every value, merged by np.where.

    This was the production formula before `CombinerSpec.apply` evaluated the
    tail only beyond the knee; the two must agree bit for bit.
    """
    u = np.asarray(u, dtype=float)
    out = np.where(u <= knee, slope * u, special.betainc(k, n - k + 1, u))
    return np.clip(out, 0.0, 1.0)


def worst_case_orderstat_cdf(n, k, t, q):
    """P(U_(k) <= q) for the two-point worst-case kernel at atom weight 0 < t < 1.

    A ~ Bin(n, t) of the n values sit on the shared atom x*t, x uniform on
    [0, 1]; the rest are i.i.d. uniform on [t, 1].  If A >= k then
    U_(k) = x*t, otherwise U_(k) = t + (1-t) * Beta(k-A, n-k+1).  Exact up
    to the rounding of scipy.stats; `q` is a vector.
    """
    q = np.asarray(q, dtype=float)
    a = np.arange(k)
    on_atom = stats.binom.sf(k - 1, n, t) * np.minimum(1.0, q / t)
    above = np.clip((q - t) / (1.0 - t), 0.0, 1.0)
    scattered = stats.binom.pmf(a, n, t) @ stats.beta.cdf(above[None, :], (k - a)[:, None], n - k + 1)
    return on_atom + scattered


def adversarial_kernel_where(n, t):
    """The worst-case kernel as an `np.where` copy of its uniform matrix.

    This was the production kernel before `adversarial_kernel` wrote the
    atom into its own draws; the two must agree bit for bit.
    """

    def kernel(rng, size):
        x = rng.random(size)
        u = rng.random((size, n))
        return np.where(u < t, (x * t)[:, None], u)

    return kernel


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


def gale_ryser_feasible(row_sums, col_sums):
    """Whether some 0/1 matrix has these margins (Gale-Ryser theorem).

    With the row sums sorted in decreasing order, the m largest may together
    use at most min(col_sum_j, m) cells of column j, for every m; the totals
    must agree.  Margins are assumed non-negative and at most the opposite
    dimension.
    """
    rows = sorted((int(x) for x in row_sums), reverse=True)
    cols = [int(x) for x in col_sums]
    if sum(rows) != sum(cols):
        return False
    return all(sum(rows[:m]) <= sum(min(x, m) for x in cols) for m in range(1, len(rows) + 1))


def rank_sum_null_cdf_bruteforce(m1, m):
    """P(rank sum of a uniform m1-subset of 1..m <= w), by enumeration."""
    sums = [sum(sub) for sub in itertools.combinations(range(1, m + 1), m1)]
    sums = np.asarray(sums)
    max_sum = m * (m + 1) // 2
    return np.array([(sums <= w).mean() for w in range(max_sum + 1)])


def mann_whitney_null_pmf(a, b):
    """pmf of #{(i, j): key_j < key_i} for i among a and j among b uniformly ordered keys."""
    shift = a * (a - 1) // 2
    counts = [sum(places) - shift for places in itertools.combinations(range(a + b), a)]
    return np.bincount(counts) / len(counts)


def subsample_rank_sum_law(groups):
    """F_data: the exact law of one repetition's `rank_sum_test` p-value, given the groups.

    Every pick of one observation per group is enumerated at once, through
    `np.indices` over the group sizes, each with probability 1/prod(sizes).
    The first m1 = m // 2 groups are tested against the rest, and ties are
    broken uniformly at random, so a pick's rank sum is

        W = m1 + sum_{i < m1} #{j: x_j < x_i} + sum_classes a(a-1)/2 + R,

    where each class of c tied values, a of them in the first m1, adds an
    independent Mann-Whitney count of a against c - a to R.  The law of R
    depends only on the pick's multiset of (a, c), so it is convolved once
    per distinct multiset.  Returns (atoms, masses): the p-values P(W0 <= w)
    from `rank_sum_null_cdf_bruteforce`, increasing, and their probabilities.
    """
    sizes = [len(g) for g in groups]
    m, m1 = len(groups), len(groups) // 2
    picks = np.indices(sizes).reshape(m, -1)
    x = np.stack([np.asarray(g, dtype=float)[i] for g, i in zip(groups, picks)], axis=1)
    below = (x[:, None, :] < x[:, :m1, None]).sum(axis=(1, 2))
    equal = x[:, :, None] == x[:, None, :]
    pairs_in_first = (equal[:, :m1, :m1].sum(axis=(1, 2)) - m1) // 2
    base = m1 + below + pairs_in_first
    c, a = equal.sum(axis=2), equal[:, :, :m1].sum(axis=2)
    # every column of a class carries the class's (a, c), so the sorted codes
    # name the pick's multiset of classes; each row is made one void scalar,
    # which np.unique sorts far faster than rows along axis 0
    codes = np.ascontiguousarray(np.sort(a * (m + 1) + c, axis=1))
    rows, which = np.unique(codes.view(np.dtype((np.void, codes.strides[0]))).ravel(),
                            return_inverse=True)
    signatures = rows.view(codes.dtype).reshape(len(rows), m)
    mass = np.zeros(m * (m + 1) // 2 + 1)
    for s, signature in enumerate(signatures):
        law = np.ones(1)
        codes, columns = np.unique(signature, return_counts=True)
        for code, count in zip(codes, columns):
            a_class, c_class = divmod(int(code), m + 1)
            for _ in range(count // c_class):
                law = np.convolve(law, mann_whitney_null_pmf(a_class, c_class - a_class))
        for r, p in enumerate(law):
            np.add.at(mass, base[which == s] + r, p)
    mass /= picks.shape[1]
    support = np.flatnonzero(mass)
    return rank_sum_null_cdf_bruteforce(m1, m)[support], mass[support]


def rank_sum_bruteforce(row, tiebreak, m1):
    """Rank sum of the first m1 entries of `row`, ties broken by `tiebreak`.

    Entry i ranks 1 + the number of entries j with (row[j], tiebreak[j])
    lexicographically below (row[i], tiebreak[i]).
    """
    keys = list(zip(row, tiebreak))
    return sum(1 + sum(other < keys[i] for other in keys) for i in range(m1))


def rank_sum_lexsort(x, rng):
    """`rank_sum_test` by one lexsort over the whole block, tie-breaks drawn at once.

    This was the production formula before the rows were ranked in pieces by
    a stable argsort of complex keys; the two must agree bit for bit and
    leave `rng` in the same state.  The null CDF table is the package's,
    checked on its own against `rank_sum_null_cdf_bruteforce`.
    """
    from orderpv.subsample import _rank_sum_cdf

    x = np.asarray(x, dtype=float)
    m = x.shape[1]
    m1 = m // 2
    cdf = _rank_sum_cdf(m1, m)
    order = np.lexsort((rng.random(x.shape), x), axis=-1)
    return cdf[(order < m1) @ np.arange(1, m + 1)]


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


def checkerboard_score_int64(entries):
    """The checkerboard score with an all-int64 column-overlap product."""
    e = np.asarray(entries)
    c = e.shape[1]
    overlap = e.T.astype(np.int64) @ e.astype(np.int64)
    col = e.sum(axis=0, dtype=np.int64)
    score = (col[:, None] - overlap) * (col[None, :] - overlap)
    return float(score.sum() / (c * (c - 1)))


def advance_reference(work, steps, rng, statistic=None, threshold=None, trace=None):
    """The swap chain with numpy-scalar indexing of `work`, step by step.

    Draws the same index blocks from `rng` as the production chain and
    applies the same rule: flip the 2x2 corners when they form a
    checkerboard; evaluate `statistic` after each step on a stack of one
    state, reusing the last value while the state is unchanged.
    """
    if steps <= 0:
        return 0
    r, c = work.shape
    if r < 2 or c < 2:
        raise ValueError("checkerboard swaps need at least 2 rows and 2 columns")
    count = 0
    current = None
    remaining = steps
    while remaining:
        b = min(8192, remaining)
        i1 = rng.integers(0, r, size=b)
        i2 = rng.integers(0, r - 1, size=b)
        j1 = rng.integers(0, c, size=b)
        j2 = rng.integers(0, c - 1, size=b)
        i2 = i2 + (i2 >= i1)
        j2 = j2 + (j2 >= j1)
        for s in range(b):
            r1, r2, c1, c2 = i1[s], i2[s], j1[s], j2[s]
            a = work[r1, c1]
            bb = work[r1, c2]
            if a != bb and work[r2, c2] == a and work[r2, c1] == bb:
                work[r1, c1] = bb
                work[r2, c2] = bb
                work[r1, c2] = a
                work[r2, c1] = a
                current = None
            if statistic is not None:
                if current is None:
                    current = statistic(work[None])[0]
                if trace is not None:
                    trace.append(current)
                if threshold is not None and current >= threshold:
                    count += 1
        remaining -= b
    return count
