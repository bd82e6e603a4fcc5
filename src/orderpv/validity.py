"""Monte Carlo verification that a combination rule yields valid p-values.

A simulated kernel draws conditionally i.i.d. p-value vectors; a combination
rule is valid when the empirical CDF of the combined value never climbs above
the diagonal.  The worst case over all kernels is a two-point family: with
probability t all n values collapse onto a shared atom below t, otherwise
they scatter uniformly above t.  That family attains equality in the validity
bound, so it both certifies the exact correction and convicts anything
smaller.

Kernels are callables ``kernel(rng, size) -> (size, n) array``.  Replications
run serially in the fixed-size blocks of `rngs.blocks`, each on its own
counter-derived stream, and the per-block tallies are summed, so a report
depends only on the plan.  A block holds one (size, n) draw matrix and a
fixed scratch: `adversarial_kernel` writes its atom into its uniform
matrix in cache-sized pieces without a data-dependent branch,
`check_validity` selects the k-th smallest value by reordering each row of
the kernel's array in place (a read-only array is copied first), and
`SimConfig` refuses a plan whose block would hold more than
`MAX_CHUNK_VALUES` draws.
"""

from dataclasses import dataclass, field

import numpy as np

from .binom import _check_n, _check_nk, _check_p
from .correction import solve_combiner
from .rngs import CHUNK, blocks, check_seed

DEFAULT_ALPHA_GRID = np.linspace(0.025, 0.5, 20)

# Flag only excursions beyond 3 binomial standard errors: across a 20-point
# grid this keeps the false-alarm rate per report at the percent level.
SIGMA_RULE = 3.0

# Most values of one piece of the atom write in `adversarial_kernel`.  Each
# numpy call costs about a microsecond whatever its size, and the piece's
# mask is the kernel's only scratch (one byte a value).  On one 16384 x 10
# block at the knee (2-core x86 host, 2 MiB L2 a core) the write took
# 0.56-0.65 ms in pieces of 2**13 values, 0.41-0.48 ms in pieces of 2**15,
# and 0.41-0.44 ms over the whole matrix with a mask of 160 KiB.
_PIECE_VALUES = 2**15

# Draws one block may hold: 2**27 float64 values are 1 GiB.  The block is
# min(reps, CHUNK) rows of n values, so at full blocks n is at most 8192.
MAX_CHUNK_VALUES = 2**27


@dataclass(frozen=True)
class SimConfig:
    """Replication plan for a validity study.

    `n`, `k`, `reps` and `seed` are checked and stored as ints; a
    non-integral one is refused.  A plan whose block of min(reps, CHUNK) rows of n draws holds
    more than `MAX_CHUNK_VALUES` values is refused before anything is drawn.
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
        values = min(self.reps, CHUNK) * self.n
        if values > MAX_CHUNK_VALUES:
            raise ValueError(
                f"a block of min(reps, {CHUNK}) x n = {values} draws exceeds "
                f"MAX_CHUNK_VALUES = {MAX_CHUNK_VALUES}; lower n or reps"
            )
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
        """Alpha grid points where the empirical CDF exceeds alpha + 3 SE."""
        mask = np.array([v == "violation" for v in self.verdict])
        return self.alpha[mask]

    @property
    def any_violation(self):
        return bool(len(self.violations))

    def rows(self):
        for a, e, s, v in zip(self.alpha, self.empirical_cdf, self.std_err, self.verdict):
            yield float(a), float(e), float(s), v


def adversarial_kernel(n, t):
    """Worst-case kernel at atom weight t: (rng, size) -> (size, n).

    Each row draws a shared x uniform on [0,1]; each of its n values
    independently equals x*t with probability t, else is uniform on [t, 1].
    One uniform u per value does both: u < t picks the atom, and otherwise
    u itself is uniform on [t, 1].  The atom is written into the uniform
    matrix, which is returned as the one (size, n) array of the block.

    The write has no data-dependent branch, so its cost does not depend
    on t.  On pieces of at most `_PIECE_VALUES` values it multiplies u by
    the mask u >= t and raises the result to its row's x*t with an
    elementwise maximum: a value u < t becomes x*t, and u >= t > x*t stays.
    A masked copy (`np.copyto(u, x*t, where=u < t)`) mispredicts a branch
    on about min(t, 1 - t) of the values: on one 16384 x 10 block it wrote
    in 0.19-0.23 ms at t = 0, 1.1-1.3 ms at t = 0.3, 1.25-1.47 ms at the
    knee 0.628 and 0.33-0.57 ms at t = 0.99, where the branch-free write
    took 0.33-0.51 ms at every t.  `n` must be an integer >= 1.
    """
    n = _check_n(n)
    if not 0.0 <= t <= 1.0:
        raise ValueError("t must lie in [0, 1]")
    t = float(t) + 0.0  # t = -0.0 gives atoms -0.0, and np.maximum(+0.0, -0.0) is -0.0
    rows, cols = max(1, _PIECE_VALUES // n), min(n, _PIECE_VALUES)

    def kernel(rng, size):
        x = rng.random(size)
        u = rng.random((size, n))
        np.multiply(x, t, out=x)
        atoms = x[:, None]
        kept = np.empty(rows * cols, dtype=bool)
        for r in range(0, size, rows):
            for c in range(0, n, cols):
                piece = u[r:r + rows, c:c + cols]
                keep = kept[:piece.size].reshape(piece.shape)
                np.greater_equal(piece, t, out=keep)
                piece *= keep
                np.maximum(piece, atoms[r:r + rows], out=piece)
        return u

    return kernel


def uniform_kernel(n):
    """Kernel drawing n i.i.d. uniforms (the no-dependence base case).

    `n` must be an integer >= 1.
    """
    n = _check_n(n)

    def kernel(rng, size):
        return rng.random((size, n))

    return kernel


def _tally_chunk(cfg, f, kernel, rng, size):
    draws = np.require(kernel(rng, size), requirements="W")
    if draws.shape != (size, cfg.n):
        raise ValueError(f"kernel returned shape {draws.shape}, expected {(size, cfg.n)}")
    draws.partition(cfg.k - 1, axis=1)
    u = draws[:, cfg.k - 1]
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
        ``kernel(rng, size) -> (size, n)`` of conditionally i.i.d. p-values;
        another shape is a `ValueError`.  Each row of a writable result is
        reordered in place to select its k-th smallest value, so a kernel
        returns a new array per call; a read-only one is copied instead.
        It is called once per block of `rngs.blocks`, one block at a time.

    Returns
    -------
    SimReport
        Violation is declared where empirical_cdf > alpha + 3 * std_err.
    """
    counts = sum(_tally_chunk(cfg, f, kernel, rng, length)
                 for _, length, rng in blocks(cfg.seed, cfg.reps))

    emp = counts / cfg.reps
    se = np.sqrt(emp * (1.0 - emp) / cfg.reps)
    verdict = tuple(
        "violation" if e > a + SIGMA_RULE * s else "consistent"
        for a, e, s in zip(cfg.alpha_grid, emp, se)
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
    return check_validity(cfg, lambda u: shrink * spec.apply(u), adversarial_kernel(n, spec.knee))
