"""Grouped-data subsampling: one observation per block, test, repeat, combine.

When dependence is suspected only within known blocks (same day, same
household, ...), drawing one observation per block justifies an i.i.d.
assumption for the base test.  Repeating the draw n times with fresh
randomness yields n conditionally i.i.d. p-values, which `combine_pvalues`
collapses into a single valid summary.

Repetitions run in the blocks of `rngs.blocks`, at most `rngs.CHUNK` each.
Block b draws all its picks, and the base test draws whatever randomness it
needs, from the counter-derived stream keyed (seed, b), so results are
reproducible and any block can be recomputed alone.  Base tests are callables
``test(picks, rng) -> (b,)``: `picks` holds one row per repetition with one
observation per group, shape ``(b, m, ...)``, and the result is one p-value
in [0, 1] per row.  Deterministic tests simply ignore `rng`.
"""

from dataclasses import dataclass, field
from functools import lru_cache
from math import comb, floor

import numpy as np

from .bcmc import _as_binary, _serial_pvalue_rng, checkerboard_score
from .binom import _check_n, _check_nk
from .combine import CombineResult, _combine, default_k
from .rngs import CHUNK, blocks


@dataclass(frozen=True)
class GroupedDataset:
    """Observations partitioned into blocks with arbitrary within-block dependence.

    `groups` is a list of non-empty sequences, or an array whose rows are
    the groups.  The observations are stacked once into one array, so they
    must share a shape: scalars, or equal-length vectors, and so on.  They
    must share a dtype kind too, so that stacking never turns numbers into
    strings: bool, int and float groups may mix, but a string, bytes or
    object group may only sit next to its own kind.
    The stacked copy is the dataset: picks, `m`, `sizes` and `total` all
    come from it, so changing `groups` afterwards changes none of them.
    """

    groups: list
    _stacked: np.ndarray = field(init=False, repr=False, compare=False)
    _offsets: np.ndarray = field(init=False, repr=False, compare=False)
    _ends: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.groups) == 0:
            raise ValueError("need at least one group")
        blocks = []
        for j, g in enumerate(self.groups):
            if len(g) < 1:
                raise ValueError(f"group {j} is empty")
            try:
                block = np.asarray(g)
            except ValueError:
                raise ValueError(f"group {j}: observations of different shapes") from None
            # group 0 sets the shape and kind that every later group is held
            # to; a group of group 0's dtype has its kind
            if not blocks:
                first, shape = block, block.shape[1:]
            elif block.shape[1:] != shape:
                raise ValueError(
                    f"group {j}: observations of shape {block.shape[1:]}, group 0 has {shape}"
                )
            elif block.dtype != first.dtype and _kind(block) != _kind(first):
                raise ValueError(
                    f"group {j}: observations of dtype {block.dtype}, group 0 has {first.dtype}"
                )
            blocks.append(block)
        sizes = np.array([len(block) for block in blocks])
        # the method form skips np.cumsum's wrapper, about 1 us a dataset
        ends = sizes.cumsum()
        object.__setattr__(self, "_stacked", np.concatenate(blocks))
        object.__setattr__(self, "_offsets", ends - sizes)
        object.__setattr__(self, "_ends", ends)

    def __eq__(self, other):
        """Equal when the groups hold equal observations, group by group.

        The stacked data and group ends are compared, not `groups`, which
        may be an array that gives no single truth value.
        """
        if not isinstance(other, GroupedDataset):
            return NotImplemented
        return (np.array_equal(self._ends, other._ends)
                and np.array_equal(self._stacked, other._stacked))

    @property
    def m(self):
        return self._ends.size

    @property
    def sizes(self):
        return (self._ends - self._offsets).tolist()

    @property
    def total(self):
        return len(self._stacked)


def _kind(block):
    """The dtype kind of `block`, with bool, int and float counted as one."""
    return "number" if block.dtype.kind in "biuf" else block.dtype.kind


def pick_one_per_group(data, rng, size):
    """`size` independent picks of one observation per block, uniform within it.

    Returns an array of shape ``(size, m, ...)``: row i is pick i, in group
    order.  The stacked index of group j's pick is drawn from
    [offset_j, end_j) directly: numpy draws from the width of that range
    and adds the offset, so this is the draw from [0, size_j) plus the
    offset, value for value, without a second (size, m) array.
    """
    return data._stacked[rng.integers(data._offsets, data._ends, size=(size, data.m))]


def subsample_pvalues(data, test, n, seed):
    """n independent repetitions of pick-then-test; conditionally i.i.d. given data.

    The test is called once per block of at most `rngs.CHUNK` repetitions.
    More than `MAX_REPETITIONS` repetitions, or a block whose min(n, CHUNK)
    rows of m int64 indices and m picks take more than `MAX_BLOCK_BYTES`,
    raise ValueError before the sample is allocated.
    A block whose test raises, or returns anything but one value in [0, 1]
    per repetition, aborts the whole run: silently dropping repetitions
    would bias the conditional i.i.d. structure.
    """
    n = _check_n(n)
    if n > MAX_REPETITIONS:
        raise ValueError(f"at most MAX_REPETITIONS = {MAX_REPETITIONS} repetitions are "
                         f"supported, got {n}")
    row = data.m * (8 + data._stacked[:1].nbytes)
    if min(n, CHUNK) * row > MAX_BLOCK_BYTES:
        raise ValueError(f"a block of min(n, {CHUNK}) repetitions x {row} bytes of indices and "
                         f"picks exceeds MAX_BLOCK_BYTES = {MAX_BLOCK_BYTES}; lower n or the "
                         f"group count")
    out = np.empty(n)
    for start, length, rng in blocks(seed, n):
        p = np.asarray(test(pick_one_per_group(data, rng, length), rng), dtype=float)
        if p.shape != (length,):
            raise ValueError(f"base test returned shape {p.shape} for {length} repetitions, "
                             f"expected ({length},)")
        # one mask, searched only when it fails; NaN fails both comparisons
        ok = (p >= 0.0) & (p <= 1.0)
        if not ok.all():
            j = np.flatnonzero(~ok)[0]
            raise ValueError(f"base test returned {float(p[j])!r} on repetition "
                             f"{start + j}, not in [0, 1]")
        out[start:start + length] = p
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
    More than `MAX_BINS` bins, or a given k outside 1..n, are refused before
    anything is drawn.

    One sort feeds the combined value and every summary.  The k-th sorted
    value is the order statistic `combine_pvalues` would select, and the
    sample was checked block by block as it was drawn, so it is neither
    checked nor partitioned again.  The maximum is the last sorted value,
    the bin counts are differences of the sorted positions of the bin
    edges, and the quartiles interpolate between neighbouring sorted
    values.  Each equals what `combine_pvalues`, `np.quantile`,
    `np.histogram` and ``sample.max()`` give, bit for bit, without
    rescanning the sample four times; only a sample holding both 0.0 and
    -0.0 may give its k-th value the other zero's sign, which compares
    equal.  The edges are a fresh copy of the cached edges of the last bin
    count, so each result owns writable edges.  On a 2-core x86 host, at
    n = 200 on 12 groups with `rank_sum_test`, a call took about 130 µs:
    about 100 µs drawing and testing, and 26–30 µs for the report.
    """
    bins = _check_n(bins, "bins")
    if bins > MAX_BINS:
        raise ValueError(f"at most MAX_BINS = {MAX_BINS} histogram bins are supported, got {bins}")
    k = default_k(n) if k is None else _check_nk(n, k)[1]
    sample = subsample_pvalues(data, test, n, seed)
    ordered = np.sort(sample)
    combined = _combine(sample.size, k, float(ordered[k - 1]))
    edges = _bin_edges(bins).copy()
    # every value lies in [0, 1]: bin i holds edges[i] <= x < edges[i + 1],
    # and the last bin holds 1.0 too, as in np.histogram
    at = ordered.searchsorted(edges)
    at[-1] = ordered.size
    return PipelineResult(
        summary=combined.summary,
        combined=combined,
        sample=sample,
        quartiles=_quartiles(ordered),
        maximum=float(ordered[-1]),
        bin_edges=edges,
        bin_counts=at[1:] - at[:-1],
    )


@lru_cache(maxsize=1)
def _bin_edges(bins):
    """``np.linspace(0, 1, bins + 1)``, read-only; only the last `bins` is kept."""
    edges = np.linspace(0.0, 1.0, bins + 1)
    edges.flags.writeable = False
    return edges


def _quartiles(ordered):
    """``np.quantile(ordered, [0.25, 0.5, 0.75])`` of a sorted sample, as floats.

    numpy's default (linear) method in the same float operations: at the
    virtual index (n - 1) q, with a and b the sorted values on either side
    of it and g its fractional part, a + (b - a) g, or b - (b - a) (1 - g)
    when g >= 0.5.
    """
    last = ordered.size - 1
    out = []
    for q in (0.25, 0.5, 0.75):
        index = last * q
        lo = floor(index)
        if lo >= last:  # a single value
            out.append(float(ordered[last]))
            continue
        g = index - lo
        a, b = float(ordered[lo]), float(ordered[lo + 1])
        out.append(b - (b - a) * (1 - g) if g >= 0.5 else a + (b - a) * g)
    return tuple(out)


# Most repetitions one subsample run accepts: its float64 sample is 1 GiB.
# The count is checked before the sample is allocated.
MAX_REPETITIONS = 2**27

# Most bytes of one block's int64 pick indices and picks, min(n, CHUNK) rows
# of m groups each, checked before anything is drawn.
MAX_BLOCK_BYTES = 2**30

# Most histogram bins `run_pipeline` accepts; the report then holds bins + 1
# float64 edges, as many int64 sorted positions and bins int64 counts, about
# 24 MB here, and the cached edges of the last bin count 8 MB more.
MAX_BINS = 2**20

# Largest group count the exact rank-sum test accepts.  Its cached CDF table
# holds (m/2 + 1) * (m(m+1)/2 + 1) float64 entries: 16 MB and about 0.2 s to
# build at m = 200, growing as m^3 (about 2 GB near m = 1000).
RANK_SUM_MAX_GROUPS = 200

# Most values `rank_sum_test` ranks at once: a piece of max(1, 2**16 // m)
# rows keeps its complex keys, tie-breaks and sort order under 3 MB.
_RANK_SUM_PIECE = 2**16


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

    Each row is ranked by one stable argsort of the complex keys value +
    1j * tie-break.  numpy orders complex numbers by real part, then
    imaginary part, with NaN last in each, and a stable sort keeps index
    order on a full tie, so this is the lexicographic (value, tie-break)
    order of ``np.lexsort((tiebreak, x))``.  The rows are ranked in pieces
    of at most `_RANK_SUM_PIECE` values, each drawing its own tie-breaks
    from `rng`; consecutive draws consume the same doubles as one draw over
    the whole block, so the p-values and the generator's end state do not
    depend on the piece size, and the scratch memory does not grow with b.
    """
    x = np.asarray(picks, dtype=float)
    if x.ndim != 2 or x.shape[1] < 2:
        raise ValueError(f"rank_sum_test needs a (b, m) array with m >= 2, got shape {x.shape}")
    b, m = x.shape
    m1 = m // 2
    cdf = _rank_sum_cdf(m1, m)
    ranks = np.arange(1, m + 1)
    rows = max(1, _RANK_SUM_PIECE // m)
    out = np.empty(b)
    for start in range(0, b, rows):
        piece = x[start:start + rows]
        key = np.empty(piece.shape, dtype=complex)
        key.real = piece
        key.imag = rng.random(piece.shape)
        # order[:, r] is the column ranked r + 1, so the first half's rank
        # sum adds r + 1 wherever that column is one of the first m1
        order = key.argsort(axis=-1, kind="stable")
        out[start:start + len(piece)] = cdf[(order < m1) @ ranks]
    return out


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
