"""Grouped-data subsampling: one observation per block, test, repeat, combine.

When dependence is suspected only within known blocks (same day, same
household, ...), drawing one observation per block justifies an i.i.d.
assumption for the base test.  Repeating the draw n times with fresh
randomness yields n conditionally i.i.d. p-values, which `combine_pvalues`
collapses into a single valid summary.

Repetitions run in blocks of `rngs.CHUNK`.  Block b draws all its picks, and
the base test draws whatever randomness it needs, from the counter-derived
stream keyed (seed, b), so results are reproducible and any block can be
recomputed alone.  Base tests are callables ``test(picks, rng) -> (b,)``:
`picks` holds one row per repetition with one observation per group, shape
``(b, m, ...)``, and the result is one p-value in [0, 1] per row.
Deterministic tests simply ignore `rng`.
"""

from dataclasses import dataclass, field
from functools import lru_cache
from math import comb

import numpy as np

from .bcmc import _as_binary, _serial_pvalue_rng, checkerboard_score
from .binom import _check_n
from .combine import CombineResult, combine_pvalues
from .rngs import CHUNK, iter_chunks, stream


@dataclass(frozen=True)
class GroupedDataset:
    """Observations partitioned into blocks with arbitrary within-block dependence.

    `groups` is a list of non-empty sequences.  The observations are stacked
    once into one array, so they must share a shape: scalars, or equal-length
    vectors, and so on.  They must share a dtype kind too, so that stacking
    never turns numbers into strings: bool, int and float groups may mix,
    but a string, bytes or object group may only sit next to its own kind.
    The stacked copy is the dataset: picks, `m`, `sizes` and `total` all
    come from it, so changing `groups` afterwards changes none of them.
    """

    groups: list
    _stacked: np.ndarray = field(init=False, repr=False, compare=False)
    _sizes: np.ndarray = field(init=False, repr=False, compare=False)
    _offsets: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.groups:
            raise ValueError("need at least one group")
        blocks = []
        for j, g in enumerate(self.groups):
            if len(g) < 1:
                raise ValueError(f"group {j} is empty")
            try:
                block = np.asarray(g)
            except ValueError:
                raise ValueError(f"group {j}: observations of different shapes") from None
            if blocks and block.shape[1:] != blocks[0].shape[1:]:
                raise ValueError(
                    f"group {j}: observations of shape {block.shape[1:]}, "
                    f"group 0 has {blocks[0].shape[1:]}"
                )
            if blocks and _kind(block) != _kind(blocks[0]):
                raise ValueError(
                    f"group {j}: observations of dtype {block.dtype}, "
                    f"group 0 has {blocks[0].dtype}"
                )
            blocks.append(block)
        sizes = np.array([len(block) for block in blocks])
        object.__setattr__(self, "_stacked", np.concatenate(blocks))
        object.__setattr__(self, "_sizes", sizes)
        object.__setattr__(self, "_offsets", np.cumsum(sizes) - sizes)

    @property
    def m(self):
        return self._sizes.size

    @property
    def sizes(self):
        return self._sizes.tolist()

    @property
    def total(self):
        return len(self._stacked)


def _kind(block):
    """The dtype kind of `block`, with bool, int and float counted as one."""
    return "number" if block.dtype.kind in "biuf" else block.dtype.kind


def pick_one_per_group(data, rng, size):
    """`size` independent picks of one observation per block, uniform within it.

    Returns an array of shape ``(size, m, ...)``: row i is pick i, in group
    order.
    """
    return data._stacked[data._offsets + rng.integers(0, data._sizes, size=(size, data.m))]


def subsample_pvalues(data, test, n, seed):
    """n independent repetitions of pick-then-test; conditionally i.i.d. given data.

    The test is called once per block of at most `rngs.CHUNK` repetitions.
    More than `MAX_REPETITIONS` repetitions raise ValueError before the
    sample is allocated.
    A block whose test raises, or returns anything but one value in [0, 1]
    per repetition, aborts the whole run: silently dropping repetitions
    would bias the conditional i.i.d. structure.
    """
    n = _check_n(n)
    if n > MAX_REPETITIONS:
        raise ValueError(f"at most MAX_REPETITIONS = {MAX_REPETITIONS} repetitions are "
                         f"supported, got {n}")
    out = np.empty(n)
    for index, length in iter_chunks(n):
        rng = stream(seed, index)
        p = np.asarray(test(pick_one_per_group(data, rng, length), rng), dtype=float)
        if p.shape != (length,):
            raise ValueError(f"base test returned shape {p.shape} for {length} repetitions, "
                             f"expected ({length},)")
        bad = np.flatnonzero(~((p >= 0.0) & (p <= 1.0)))
        if bad.size:
            j = bad[0]
            raise ValueError(f"base test returned {float(p[j])!r} on repetition "
                             f"{index * CHUNK + j}, not in [0, 1]")
        out[index * CHUNK:index * CHUNK + length] = p
    return out


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
    combined = combine_pvalues(sample, k)
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


# Most repetitions one subsample run accepts: its float64 sample is 1 GiB.
# The count is checked before the sample is allocated.
MAX_REPETITIONS = 2**27

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


def rank_sum_test(picks, rng):
    """Exact one-sided rank-sum test of the first half against the rest, per row.

    `picks` has shape (b, m).  Each row is split into its first floor(m/2)
    entries and the remainder, and the result holds P(rank sum <= observed)
    under uniform ranking for every row.  At most `RANK_SUM_MAX_GROUPS`
    columns are accepted.  Ties are broken uniformly at random with `rng`,
    which keeps the null distribution of the ranks exact for any common
    marginal.  Small p-values mean the first half is stochastically smaller.
    """
    x = np.asarray(picks, dtype=float)
    if x.ndim != 2 or x.shape[1] < 2:
        raise ValueError(f"rank_sum_test needs a (b, m) array with m >= 2, got shape {x.shape}")
    m = x.shape[1]
    m1 = m // 2
    cdf = _rank_sum_cdf(m1, m)
    # order[:, r] is the column ranked r + 1, so the first half's rank sum
    # adds r + 1 wherever that column is one of the first m1
    order = np.lexsort((rng.random(x.shape), x), axis=-1)
    return cdf[(order < m1) @ np.arange(1, m + 1)]


def make_bcmc_test(chain_length=1000, statistic=checkerboard_score):
    """Base test running the serial Monte Carlo association test on each pick.

    Each observation must be a 0/1 vector (one matrix row per block), so
    `picks` has shape (b, m, c).  One check and one int8 cast cover the
    whole block.  Each (m, c) pick, which must be at least 2x2, is ranked
    within a fresh chain of the given length; the chains run one after
    another on the block's stream.  `statistic` maps a stack of chain
    states to their values, as in `ChainConfig`.
    """
    chain_length = _check_n(chain_length, "chain length")

    def base_test(picks, rng):
        return np.array([_serial_pvalue_rng(mat, chain_length, statistic, rng)
                         for mat in _as_binary(picks, ndim=3)])

    return base_test
