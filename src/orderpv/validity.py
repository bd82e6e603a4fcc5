"""Monte Carlo verification that a combination rule yields valid p-values.

A simulated kernel draws conditionally i.i.d. p-value vectors; a combination
rule is valid when the empirical CDF of the combined value never climbs above
the diagonal.  The worst case over all kernels is a two-point family: with
probability t all n values collapse onto a shared atom below t, otherwise
they scatter uniformly above t.  That family attains equality in the validity
bound, so it both certifies the exact correction and convicts anything
smaller.

Kernels are callables ``kernel(rng, size) -> (size, n) array``.  Replications
are processed in fixed-size blocks with one counter-derived stream per block
(see `rngs`), so reports are bit-identical however the blocks are scheduled.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .binom import _check_nk, _check_p
from .correction import solve_combiner
from .rngs import check_seed, iter_chunks, stream

DEFAULT_ALPHA_GRID = np.linspace(0.025, 0.5, 20)

# Flag only excursions beyond 3 binomial standard errors: across a 20-point
# grid this keeps the false-alarm rate per report at the percent level.
SIGMA_RULE = 3.0


@dataclass(frozen=True)
class SimConfig:
    """Replication plan for a validity study."""

    n: int
    k: int
    reps: int
    seed: int
    alpha_grid: np.ndarray = field(default_factory=lambda: DEFAULT_ALPHA_GRID.copy())

    def __post_init__(self):
        _check_nk(self.n, self.k)
        if self.reps < 1:
            raise ValueError("reps must be >= 1")
        check_seed(self.seed)
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
    u itself is uniform on [t, 1].
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError("t must lie in [0, 1]")

    def kernel(rng, size):
        x = rng.random(size)
        u = rng.random((size, n))
        return np.where(u < t, (x * t)[:, None], u)

    return kernel


def uniform_kernel(n):
    """Kernel drawing n i.i.d. uniforms (the no-dependence base case)."""

    def kernel(rng, size):
        return rng.random((size, n))

    return kernel


def _tally_chunk(cfg, f, kernel, index, size):
    rng = stream(cfg.seed, index)
    draws = kernel(rng, size)
    u = np.partition(draws, cfg.k - 1, axis=1)[:, cfg.k - 1]
    v = np.sort(np.asarray(f(u), dtype=float))
    # hits at alpha: the number of combined values <= alpha
    return np.searchsorted(v, cfg.alpha_grid, side="right")


def check_validity(cfg, f, kernel, threads=1):
    """Estimate P(f(k-th smallest) <= alpha) on the alpha grid.

    Parameters
    ----------
    cfg : SimConfig
    f : callable
        Increasing map [0,1] -> [0,1], vectorized over ndarrays.
    kernel : callable
        ``kernel(rng, size) -> (size, n)`` of conditionally i.i.d. p-values.
    threads : int
        Worker threads over replication blocks, at least 1; any count yields
        the same report because block streams are fixed and the tallies are
        summed.  Blocks are handed out `threads` at a time, so at most that
        many are in flight whatever `cfg.reps` is.

    Returns
    -------
    SimReport
        Violation is declared where empirical_cdf > alpha + 3 * std_err.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")

    def tally(chunk):
        return _tally_chunk(cfg, f, kernel, *chunk)

    chunks = iter_chunks(cfg.reps)
    if threads > 1:
        counts = 0
        with ThreadPoolExecutor(max_workers=threads) as pool:
            while batch := list(islice(chunks, threads)):
                counts += sum(pool.map(tally, batch))
    else:
        counts = sum(map(tally, chunks))

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


def tightness_scan(n, k, shrink, reps, seed, alpha_grid=None, threads=1):
    """Probe whether a shrunken correction still looks valid.

    Runs `check_validity` with ``shrink * corrected`` against the worst-case
    kernel at the solved knee.  Any shrink < 1 inflates the combined CDF to
    alpha/shrink there, so violations appear once the Monte Carlo error is
    small enough; shrink = 1 is the boundary case and stays consistent.
    """
    if not 0.0 < shrink <= 1.0:
        raise ValueError(f"shrink must lie in (0, 1], got {shrink}")
    spec = solve_combiner(n, k)
    cfg = SimConfig(
        n=n, k=k, reps=reps, seed=seed,
        alpha_grid=DEFAULT_ALPHA_GRID.copy() if alpha_grid is None else alpha_grid,
    )
    return check_validity(
        cfg, lambda u: shrink * spec.apply(u), adversarial_kernel(n, spec.knee),
        threads=threads,
    )
