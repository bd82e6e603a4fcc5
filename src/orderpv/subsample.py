"""Grouped-data subsampling: one observation per block, test, repeat, combine.

When dependence is suspected only within known blocks (same day, same
household, ...), drawing one observation per block justifies an i.i.d.
assumption for the base test.  Repeating the draw n times with fresh
randomness yields n conditionally i.i.d. p-values, which `combine_pvalues`
collapses into a single valid summary.

Base tests are callables ``test(observations, rng) -> float in [0, 1]``
taking the picked per-block tuple; deterministic tests simply ignore `rng`.
Repetition i always runs on the counter-derived stream keyed (seed, i), so
results are reproducible and any single repetition can be recomputed alone.
"""

from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

from .bcmc import BinaryMatrix, _serial_pvalue_rng, checkerboard_score
from .combine import CombineResult, combine_pvalues, default_k
from .rngs import check_seed, stream


@dataclass
class GroupedDataset:
    """Observations partitioned into blocks with arbitrary within-block dependence.

    `groups` is a list of non-empty sequences; the observations themselves
    are opaque to this module.
    """

    groups: list

    def __post_init__(self):
        if not self.groups:
            raise ValueError("need at least one group")
        for j, g in enumerate(self.groups):
            if len(g) < 1:
                raise ValueError(f"group {j} is empty")

    @property
    def m(self):
        return len(self.groups)

    @property
    def sizes(self):
        return [len(g) for g in self.groups]

    @property
    def total(self):
        return sum(self.sizes)


def pick_one_per_group(data, rng):
    """Select one observation uniformly and independently from each block."""
    return tuple(g[int(rng.integers(0, len(g)))] for g in data.groups)


def subsample_pvalues(data, test, n, seed):
    """n independent repetitions of pick-then-test; conditionally i.i.d. given data.

    A repetition whose test raises, or returns a value outside [0, 1],
    aborts the whole run: silently dropping repetitions would bias the
    conditional i.i.d. structure.
    """
    if n != int(n) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    n = int(n)
    check_seed(seed)

    def one(i):
        rng = stream(seed, i)
        obs = pick_one_per_group(data, rng)
        p = float(test(obs, rng))
        if np.isnan(p) or not 0.0 <= p <= 1.0:
            raise ValueError(f"base test returned {p!r} on repetition {i}, not in [0, 1]")
        return p

    return np.asarray([one(i) for i in range(n)], dtype=float)


@dataclass(frozen=True)
class PipelineResult:
    """Summary p-value with the subsample distribution behind it."""

    summary: float
    combined: CombineResult
    sample: np.ndarray
    quartiles: tuple
    maximum: float
    bin_edges: np.ndarray
    bin_counts: np.ndarray


def run_pipeline(data, test, n, k=None, seed=0, bins=20):
    """Subsample n p-values, combine them, and bin the sample for reporting.

    The histogram covers [0, 1] in `bins` equal cells and stands in for a
    figure; quartiles and the maximum summarize the subsample distribution.
    """
    if bins < 1:
        raise ValueError("bins must be >= 1")
    sample = subsample_pvalues(data, test, n, seed)
    combined = combine_pvalues(sample, default_k(n) if k is None else k)
    q1, q2, q3 = np.quantile(sample, [0.25, 0.5, 0.75])
    counts, edges = np.histogram(sample, bins=bins, range=(0.0, 1.0))
    return PipelineResult(
        summary=combined.summary,
        combined=combined,
        sample=sample,
        quartiles=(float(q1), float(q2), float(q3)),
        maximum=float(sample.max()),
        bin_edges=edges,
        bin_counts=counts,
    )


# Largest group count the exact rank-sum test accepts.  Its cached CDF table
# holds (m/2 + 1) * (m(m+1)/2 + 1) float64 entries: 16 MB and about 0.2 s to
# build at m = 200, growing as m^3 (about 2 GB near m = 1000).
RANK_SUM_MAX_GROUPS = 200


@lru_cache(maxsize=None)
def _rank_sum_cdf(m1, m):
    """Exact CDF of the rank sum of a uniform m1-subset of ranks 1..m.

    cdf[w] = P(sum of chosen ranks <= w); computed by subset-sum counting.
    Raises ValueError above `RANK_SUM_MAX_GROUPS` ranks, before allocating.
    """
    if m > RANK_SUM_MAX_GROUPS:
        raise ValueError(
            f"the exact rank-sum test supports at most {RANK_SUM_MAX_GROUPS} "
            f"groups, got {m}"
        )
    max_sum = m * (m + 1) // 2
    ways = np.zeros((m1 + 1, max_sum + 1), dtype=float)
    ways[0, 0] = 1.0
    for rank in range(1, m + 1):
        for j in range(min(m1, rank), 0, -1):
            ways[j, rank:] += ways[j - 1, : max_sum - rank + 1]
    cdf = np.cumsum(ways[m1]) / comb(m, m1)
    # rounding in the running sum can push the top entries past 1
    return np.minimum(cdf, 1.0)


def rank_sum_test(obs, rng):
    """Exact one-sided rank-sum test of the first half against the rest.

    Splits the m-tuple into its first floor(m/2) entries and the remainder,
    and returns P(rank sum <= observed) under uniform ranking.  At most
    `RANK_SUM_MAX_GROUPS` entries are accepted.  Ties are
    broken uniformly at random with `rng`, which keeps the null distribution
    of the ranks exact for any common marginal.  Small p-values mean the
    first half is stochastically smaller.
    """
    x = np.asarray(obs, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise ValueError("rank_sum_test needs a flat tuple of at least 2 scalars")
    m = x.size
    m1 = m // 2
    order = np.lexsort((rng.random(m), x))
    ranks = np.empty(m, dtype=np.int64)
    ranks[order] = np.arange(1, m + 1)
    w = int(ranks[:m1].sum())
    return float(_rank_sum_cdf(m1, m)[w])


def make_bcmc_test(chain_length=1000, statistic=checkerboard_score):
    """Base test running the serial Monte Carlo association test per pick.

    Each observation must be a 0/1 vector (one matrix row per block); the
    picked rows are stacked and ranked within a fresh chain of the given
    length, driven by the repetition's own stream.
    """
    if chain_length < 1:
        raise ValueError("chain length must be >= 1")

    def base_test(obs, rng):
        mat = BinaryMatrix(np.vstack([np.asarray(row) for row in obs]))
        return _serial_pvalue_rng(mat, chain_length, statistic, rng)

    return base_test
