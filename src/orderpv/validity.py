"""Monte Carlo verification that a combination rule yields valid p-values.

A simulated kernel draws conditionally i.i.d. p-value vectors; a combination
rule is valid when the empirical CDF of the combined value never climbs above
the diagonal.  The worst case over all kernels is a two-point family: with
probability t all n values collapse onto a shared atom below t, otherwise
they scatter uniformly above t.  That family attains equality in the validity
bound, so it both certifies the exact correction and convicts anything
smaller.

Kernels are callables ``kernel(rng, size) -> (size,) array``: each value is
the k-th smallest of n conditionally i.i.d. p-values of one replication.
`adversarial_kernel` draws it from its closed law in O(1) memory per
replication, whatever n: the atom count A ~ Bin(n, t) by inverting a table
of P(A <= a), a < k, built once from `binom._upper_tail` (at most
`_CDF_ENTRIES` entries; above that, every s-th entry, with a bisection
between them that gives the same A for a given uniform), so the draw is
exact up to the tail's own error and uses only `Generator.random` and
`Generator.beta`.  Only the rows whose uniform lies below P(A <= k - 1),
the rows with A < k, are inverted (and bisected); the others are atom
rows.  It is the module's one kernel, since its family attains equality.
Replications run serially in the fixed-size blocks of `rngs.blocks`, each
on its own counter-derived stream, and the per-block tallies are summed,
so a report depends only on the plan.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .binom import _check_n, _check_nk, _check_p, _upper_tail
from .combine import default_k
from .correction import solve_combiner
from .rngs import blocks, check_seed

DEFAULT_ALPHA_GRID = np.linspace(0.025, 0.5, 20)

# Flag a grid point only where P(Bin(reps, alpha) >= hits) < Phi(-3), an exact
# 3-sigma binomial test: across a 20-point grid this keeps the false-alarm
# rate per report at the percent level, at any reps.
SIGMA_RULE = 3.0

# Entries of P(A <= a) one worst-case kernel keeps (at least 2): 2**16
# float64 values are 512 KiB.  With k above it, the table keeps every s-th
# entry and the last, s = ceil((k - 1) / (_CDF_ENTRIES - 1)).
_CDF_ENTRIES = 2**16


@dataclass(frozen=True)
class SimConfig:
    """Replication plan for a validity study.

    `n`, `k`, `reps` and `seed` are checked and stored as ints; a
    non-integral one is refused.  How much memory a block takes is the
    kernel's to bound.
    """

    n: int
    k: int
    reps: int
    seed: int
    alpha_grid: np.ndarray = field(default_factory=lambda: DEFAULT_ALPHA_GRID.copy())

    def __post_init__(self):
        n, k = _check_nk(self.n, self.k)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "reps", _check_n(self.reps, "reps"))
        object.__setattr__(self, "seed", check_seed(self.seed))
        grid = _check_p(self.alpha_grid, "alpha_grid")
        if grid.ndim != 1 or grid.size == 0 or np.any(np.diff(grid) <= 0.0):
            raise ValueError("alpha_grid must be a non-empty, strictly increasing 1-d vector")
        object.__setattr__(self, "alpha_grid", grid)


@dataclass(frozen=True)
class SimReport:
    """Empirical CDF of the combined value on the alpha grid."""

    alpha: np.ndarray
    empirical_cdf: np.ndarray
    std_err: np.ndarray
    verdict: tuple
    reps: int
    seed: int

    @property
    def violations(self):
        """Alpha grid points where the empirical CDF is above alpha by the 3-sigma binomial test."""
        mask = np.array([v == "violation" for v in self.verdict])
        return self.alpha[mask]

    @property
    def any_violation(self):
        return bool(len(self.violations))

    def rows(self):
        for a, e, s, v in zip(self.alpha, self.empirical_cdf, self.std_err, self.verdict):
            yield float(a), float(e), float(s), v


def _atom_count(n, t, k):
    """P(A <= k - 1) and v -> A for A ~ Bin(n, t), by inversion of uniforms v below it.

    A = min{a : P(A <= a) > v}.  A v >= P(A <= k - 1), the table's last
    entry, means A >= k, which is all a kernel of the k-th value needs, so
    `count` takes only the v below that entry and never returns k.
    P(A <= a) is P(Bin(n, 1 - t) >= n - a) through `_upper_tail`, whose
    complement form keeps the lower tail accurate; the law of A is exact up
    to that tail's error (about 1e-10 at n = 10**7 for small k).  The table
    holds P(A <= a) at a = 0, s, 2s, ... and at a = k - 1, at most
    `_CDF_ENTRIES` values; with s > 1, a v that falls strictly inside a gap
    is placed by ceil(log2 s) bisection steps on the same tail values, so A
    does not depend on s (given a tail non-decreasing in a).  t = 0 gives
    A = 0; at t = 1 the last entry is 0, so no v is below it.
    """
    stride = max(1, -(-(k - 1) // (_CDF_ENTRIES - 1)))

    def cdf(a):
        return _upper_tail(n, n - a, 1.0 - t)

    table = cdf(np.append(np.arange(0, k - 1, stride), k - 1))

    def count(v):
        hits = np.searchsorted(table, v, side="right")
        if stride == 1:
            return hits
        # entry j is at a = j * stride, the last at k - 1, and v < table[-1]
        atoms = np.minimum(hits * stride, k - 1)
        # P(A <= lo) <= v < P(A <= hi): A lies in (lo, hi]
        rows = np.flatnonzero(hits)
        lo, hi, w = (hits[rows] - 1) * stride, atoms[rows], v[rows]
        for _ in range((stride - 1).bit_length()):
            mid = (lo + hi) // 2
            below = cdf(mid) <= w
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        atoms[rows] = hi
        return atoms

    return table[-1], count


def adversarial_kernel(n, t, k=None):
    """Worst-case kernel at atom weight t: (rng, size) -> (size,) k-th smallest values.

    Each replication has n values that share an x uniform on [0, 1]; each
    value independently equals x*t with probability t, else is uniform on
    [t, 1].  Its k-th smallest value U_(k) is drawn directly: A ~ Bin(n, t)
    values sit on the atom, so U_(k) = x*t if A >= k, and otherwise the
    (k-A)-th smallest of n-A uniforms on [t, 1], t + (1-t) * Beta(k-A, n-k+1).
    A call draws one uniform v per replication, then one uniform x per
    replication, then one beta per replication with A < k, in that order.
    A >= k exactly where v >= P(A <= k - 1), the last entry of the table of
    the binomial CDF, so only the rows with v below it are inverted
    (`_atom_count`) to set A.  Its memory per replication does not depend
    on n, and the factory keeps a table of at most `_CDF_ENTRIES` CDF
    values.  Its cost does not depend on n either while k <=
    `_CDF_ENTRIES`; above, a replication whose v falls between two table
    entries costs ceil(log2 s) more tail evaluations.

    `n` must be an integer >= 1; `k` defaults to `default_k(n)`.
    """
    n = _check_n(n)
    k = default_k(n) if k is None else _check_nk(n, k)[1]
    if not 0.0 <= t <= 1.0:
        raise ValueError("t must lie in [0, 1]")
    t = float(t)
    last, atom_count = _atom_count(n, t, k)

    def kernel(rng, size):
        v = rng.random(size)
        u = rng.random(size)
        u *= t
        free = np.flatnonzero(v < last)
        u[free] = t + (1.0 - t) * rng.beta(k - atom_count(v[free]), n - k + 1)
        return u

    kernel.nk = (n, k)
    return kernel


def _tally_chunk(cfg, f, kernel, rng, size):
    u = np.asarray(kernel(rng, size))
    if u.shape != (size,):
        raise ValueError(f"kernel returned shape {u.shape}, expected {(size,)}")
    v = np.asarray(f(u), dtype=float)
    if v.shape != u.shape:
        raise ValueError(f"f gave shape {v.shape} for {u.size} values")
    v = np.sort(v)
    # NaN sorts last and NaN <= alpha is False: it would pass as valid
    if v.size and np.isnan(v[-1]):
        raise ValueError(f"f gave NaN on {np.count_nonzero(np.isnan(v))} of {v.size} values")
    # hits at alpha: the number of combined values <= alpha
    return np.searchsorted(v, cfg.alpha_grid, side="right")


def check_validity(cfg, f, kernel):
    """Estimate P(f(k-th smallest) <= alpha) on the alpha grid.

    Parameters
    ----------
    cfg : SimConfig
    f : callable
        Increasing map [0,1] -> [0,1], vectorized over ndarrays: one value
        per value, in the input's shape.  Another shape or a NaN value is a
        `ValueError`.
    kernel : callable
        ``kernel(rng, size) -> (size,)``: the k-th smallest of n
        conditionally i.i.d. p-values, one per replication; another shape
        is a `ValueError`.  A kernel that records its ``nk = (n, k)``, as
        `adversarial_kernel` does, must match cfg's, or it is a
        `ValueError`; a kernel that records none is trusted.  It is called
        once per block of `rngs.blocks`, one block at a time.

    Returns
    -------
    SimReport
        Violation is declared where hits h >= 1 and P(Bin(reps, alpha) >= h)
        < Phi(-SIGMA_RULE); std_err, 0 at a hit rate of 0 or 1, is not used.
    """
    nk = getattr(kernel, "nk", None)
    if nk is not None and nk != (cfg.n, cfg.k):
        raise ValueError(f"kernel draws the k-th of n at (n, k) = {nk}, "
                         f"but cfg has (n, k) = {(cfg.n, cfg.k)}")
    counts = sum(_tally_chunk(cfg, f, kernel, rng, length)
                 for _, length, rng in blocks(cfg.seed, cfg.reps))

    emp = counts / cfg.reps
    se = np.sqrt(emp * (1.0 - emp) / cfg.reps)
    # P(Bin(reps, alpha) >= hits), for hits >= 1
    tail = _upper_tail(cfg.reps, np.maximum(counts, 1), cfg.alpha_grid)
    level = 0.5 * math.erfc(SIGMA_RULE / math.sqrt(2.0))
    verdict = tuple(
        "violation" if h >= 1 and p < level else "consistent" for h, p in zip(counts, tail)
    )
    return SimReport(
        alpha=cfg.alpha_grid.copy(),
        empirical_cdf=emp,
        std_err=se,
        verdict=verdict,
        reps=cfg.reps,
        seed=cfg.seed,
    )


def tightness_scan(n, k, shrink, reps, seed):
    """Probe whether a shrunken correction still looks valid.

    Runs `check_validity` with ``shrink * corrected`` against the worst-case
    kernel at the solved knee.  Any shrink < 1 inflates the combined CDF to
    alpha/shrink there, so violations appear once the Monte Carlo error is
    small enough; shrink = 1 is the boundary case and stays consistent.
    """
    if not 0.0 < shrink <= 1.0:
        raise ValueError(f"shrink must lie in (0, 1], got {shrink}")
    cfg = SimConfig(n=n, k=k, reps=reps, seed=seed)
    spec = solve_combiner(n, k)
    return check_validity(cfg, lambda u: shrink * spec.apply(u), adversarial_kernel(n, spec.knee, k))
