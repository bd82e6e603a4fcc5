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
`adversarial_kernel` draws it from its closed law at O(1) cost per
replication, whatever n; `uniform_kernel` draws the n uniforms and selects
the k-th, and refuses a call whose (size, n) matrix would hold more than
`MAX_CHUNK_VALUES` draws.  Replications run serially in the fixed-size
blocks of `rngs.blocks`, each on its own counter-derived stream, and the
per-block tallies are summed, so a report depends only on the plan.
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

# Draws one call of `uniform_kernel` may hold: 2**27 float64 values are
# 1 GiB.  A block is min(reps, CHUNK) rows of n values, so at full blocks
# n is at most 8192.  `adversarial_kernel` holds O(1) per replication and
# needs no bound.
MAX_CHUNK_VALUES = 2**27


@dataclass(frozen=True)
class SimConfig:
    """Replication plan for a validity study.

    `n`, `k`, `reps` and `seed` are checked and stored as ints; a
    non-integral one is refused.  How much memory a block takes is the
    kernel's to bound: `uniform_kernel` refuses a block above
    `MAX_CHUNK_VALUES` draws.
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


def adversarial_kernel(n, t, k=None):
    """Worst-case kernel at atom weight t: (rng, size) -> (size,) k-th smallest values.

    Each replication has n values that share an x uniform on [0, 1]; each
    value independently equals x*t with probability t, else is uniform on
    [t, 1].  Its k-th smallest value U_(k) is drawn directly: A ~ Bin(n, t)
    values sit on the atom, so U_(k) = x*t if A >= k, and otherwise the
    (k-A)-th smallest of n-A uniforms on [t, 1], t + (1-t) * Beta(k-A, n-k+1).
    A call draws one binomial and one uniform per replication and one beta
    per replication with A < k, so its cost and memory do not depend on n.

    `n` must be an integer >= 1; `k` defaults to `default_k(n)`.
    """
    n = _check_n(n)
    k = default_k(n) if k is None else _check_nk(n, k)[1]
    if not 0.0 <= t <= 1.0:
        raise ValueError("t must lie in [0, 1]")
    t = float(t)

    def kernel(rng, size):
        atoms = rng.binomial(n, t, size)
        u = rng.random(size)
        u *= t
        free = np.flatnonzero(atoms < k)
        u[free] = t + (1.0 - t) * rng.beta(k - atoms[free], n - k + 1)
        return u

    kernel.nk = (n, k)
    return kernel


def uniform_kernel(n, k=None):
    """Kernel of the k-th smallest of n i.i.d. uniforms (the no-dependence base case).

    Each call draws a (size, n) matrix and reorders its rows in place to
    select the k-th smallest value.  A call whose matrix would hold more
    than `MAX_CHUNK_VALUES` draws raises ValueError before drawing.  `n`
    must be an integer >= 1; `k` defaults to `default_k(n)`.
    """
    n = _check_n(n)
    k = default_k(n) if k is None else _check_nk(n, k)[1]

    def kernel(rng, size):
        if size * n > MAX_CHUNK_VALUES:
            raise ValueError(f"a block of {size} x n = {size * n} draws exceeds "
                             f"MAX_CHUNK_VALUES = {MAX_CHUNK_VALUES}; lower n or reps")
        draws = rng.random((size, n))
        draws.partition(k - 1, axis=1)
        return draws[:, k - 1]

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
        `adversarial_kernel` and `uniform_kernel` do, must match cfg's, or
        it is a `ValueError`; a kernel that records none is trusted.  It is
        called once per block of `rngs.blocks`, one block at a time.

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
