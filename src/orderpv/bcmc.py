"""Besag-Clifford serial Monte Carlo test for binary matrices with fixed margins.

The no-association null treats every 0/1 matrix with the observed row and
column sums as equally likely.  The sampler is the standard checkerboard-swap
chain: pick two rows and two columns uniformly; if the 2x2 corner pattern is
a checkerboard, flip it (margins are untouched), otherwise stay put.  The
proposal is symmetric, so the uniform distribution on the margin class is
stationary and the chain is reversible; the backward half of the serial
construction therefore reuses the forward kernel.

The serial p-value embeds the observed matrix at a uniform random position
of a length-N stationary chain and reports the fraction of chain states whose
statistic is at least the observed one; it is always a multiple of 1/N.
"""

from dataclasses import dataclass, field

import numpy as np

from .rngs import check_seed

_BLOCK = 8192  # index draws are pre-generated in blocks of this many steps


class BinaryMatrix:
    """Immutable 0/1 matrix: the validated read-only int8 `entries`."""

    __slots__ = ("_entries",)

    def __init__(self, entries):
        self._entries = _as_binary(entries)

    @property
    def entries(self):
        return self._entries

    @property
    def shape(self):
        return self._entries.shape


def _as_binary(entries, ndim=2):
    """`entries` as a read-only int8 array, checked to be non-empty, `ndim`-d and 0/1.

    A BinaryMatrix is not checked again: its entries already are such an array.
    """
    if isinstance(entries, BinaryMatrix):
        return entries.entries
    arr = np.asarray(entries)
    if arr.ndim != ndim or arr.size == 0:
        raise ValueError(f"entries must be a non-empty {ndim}-d array")
    if not np.isin(arr, (0, 1)).all():
        raise ValueError("entries must be 0/1")
    arr = arr.astype(np.int8)
    arr.setflags(write=False)
    return arr


def _check_swappable(shape):
    r, c = shape
    if r < 2 or c < 2:
        raise ValueError(
            f"checkerboard swaps need at least 2 rows and 2 columns, got {r}x{c}"
        )


def _advance(work, steps, rng, statistic=None, threshold=None, trace=None):
    """Run `steps` swap steps in place on `work`.

    When `statistic` is given it is evaluated after every step; returns the
    number of steps with statistic >= threshold, appending each value to
    `trace` when provided.

    The indices of a block are drawn as numpy arrays (one `rng.integers` call
    per corner, so the random stream is fixed by the block layout) and then
    turned into Python ints, and the cells are read and written through a
    memoryview of `work`.  Indexing a numpy array with numpy scalars costs
    about 100 ns per access; a memoryview indexed with Python ints is several
    times cheaper, follows any strides, and writes straight into `work`, so
    `statistic(work)` sees every flip.
    """
    if steps <= 0:
        return 0
    _check_swappable(work.shape)
    r, c = work.shape
    cells = memoryview(work)
    count = 0
    current = None  # statistic of the running state; rejected moves keep it
    remaining = steps
    while remaining:
        b = min(_BLOCK, remaining)
        i1 = rng.integers(0, r, size=b)
        i2 = rng.integers(0, r - 1, size=b)
        j1 = rng.integers(0, c, size=b)
        j2 = rng.integers(0, c - 1, size=b)
        i2 = i2 + (i2 >= i1)
        j2 = j2 + (j2 >= j1)
        for r1, r2, c1, c2 in zip(i1.tolist(), i2.tolist(), j1.tolist(), j2.tolist()):
            a = cells[r1, c1]
            bb = cells[r1, c2]
            if a != bb and cells[r2, c2] == a and cells[r2, c1] == bb:
                cells[r1, c1] = bb
                cells[r2, c2] = bb
                cells[r1, c2] = a
                cells[r2, c1] = a
                current = None
            if statistic is not None:
                if current is None:
                    current = statistic(work)
                if trace is not None:
                    trace.append(current)
                if threshold is not None and current >= threshold:
                    count += 1
        remaining -= b
    return count


def checkerboard_score(mat):
    """Mean over column pairs of (col_sum_j - overlap)(col_sum_j' - overlap).

    The classic checkerboard statistic (C-score): large values mean column
    pairs tend to avoid sharing rows.  Varies across the fixed-margin class,
    which is what gives the serial test its power; it is the default
    statistic of `ChainConfig`.

    The column-overlap matrix is one float64 BLAS product (numpy has no BLAS
    path for int64, which is several times slower).  For 0/1 entries it is
    exact: every entry, and every partial sum of the product, is an integer
    count of at most `rows` < 2**53.  It is cast back to int64 before the
    products and the sum, so the score is the same float as with an
    all-int64 computation.  Its diagonal holds the column sums.
    """
    e = mat.entries if isinstance(mat, BinaryMatrix) else np.asarray(mat)
    c = e.shape[1]
    if c < 2:
        raise ValueError("need at least 2 columns")
    f = e.astype(np.float64)
    overlap = np.dot(f.T, f).astype(np.int64)
    gap = overlap.diagonal()[:, None] - overlap  # col_sum_j - overlap(j, j')
    # vdot sums gap * gap.T, i.e. (col_j - overlap)(col_j' - overlap); on the
    # diagonal it vanishes, so the pair mean is the full sum over c*(c-1)
    # ordered pairs.
    return float(np.vdot(gap, gap.T)) / (c * (c - 1))


@dataclass(frozen=True)
class ChainConfig:
    """Length, statistic, and seed of one serial Monte Carlo run.

    `statistic` is any callable on the int8 0/1 entries array; larger
    values count as more extreme.  The seed is checked and stored as an int.
    """

    length: int
    statistic: object = field(default=checkerboard_score)
    seed: int = 0

    def __post_init__(self):
        if self.length < 1:
            raise ValueError("chain length must be >= 1")
        object.__setattr__(self, "seed", check_seed(self.seed))


def _serial_pvalue_rng(entries, length, statistic, rng, return_trace=False):
    """Serial construction on a caller-provided generator; see `serial_pvalue`.

    `entries` comes from `_as_binary`; its shape is checked at every length.
    """
    _check_swappable(entries.shape)
    tau = int(rng.integers(1, length + 1))
    observed = statistic(entries)

    forward_trace = [] if return_trace else None
    backward_trace = [] if return_trace else None

    count = 1  # t = tau
    work = np.array(entries, dtype=np.int8)
    count += _advance(work, length - tau, rng, statistic, observed, forward_trace)
    work = np.array(entries, dtype=np.int8)
    count += _advance(work, tau - 1, rng, statistic, observed, backward_trace)

    pvalue = count / length
    if not return_trace:
        return pvalue
    trace = list(reversed(backward_trace)) + [observed] + (forward_trace or [])
    return pvalue, np.asarray(trace, dtype=float)


def serial_pvalue(mat, cfg, return_trace=False):
    """Serial Monte Carlo p-value for the no-association null.

    `mat` is a BinaryMatrix or any 0/1 array-like of at least 2x2.  Places
    the observed matrix at a uniform position tau of a length-N chain,
    extends forward and backward with the (self-adjoint) swap kernel,
    and returns ``#{t : stat(X_tau) <= stat(X_t)} / N``.  Output is a
    multiple of 1/N in (0, 1]; the observed position always counts.

    With ``return_trace=True`` also returns the statistic values in chain
    order 1..N.
    """
    entries = _as_binary(mat)
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    return _serial_pvalue_rng(entries, cfg.length, cfg.statistic, rng, return_trace)


def _check_margins(row_sums, col_sums):
    rows = np.asarray(row_sums, dtype=np.int64)
    cols = np.asarray(col_sums, dtype=np.int64)
    if rows.ndim != 1 or cols.ndim != 1 or rows.size == 0 or cols.size == 0:
        raise ValueError("row_sums and col_sums must be non-empty 1-d integer vectors")
    if np.any(rows < 0) or np.any(cols < 0):
        raise ValueError("margins must be non-negative")
    if np.any(rows > cols.size) or np.any(cols > rows.size):
        raise ValueError("margins cannot exceed the opposite dimension")
    if rows.sum() != cols.sum():
        raise ValueError("row and column sums must agree in total")
    return rows, cols


def generate_null_matrix(row_sums, col_sums, burn_in=10_000, seed=0):
    """A matrix with the given margins, randomized by `burn_in` swap steps.

    Builds a matrix greedily (each row, largest first, puts its ones in the
    columns with the largest remaining demand) and then advances the swap
    chain.  The greedy build fails exactly when no 0/1 matrix has these
    margins (the Gale-Ryser condition), so it is the feasibility check.
    Degenerate shapes with fewer than 2 rows or columns are returned as
    built: their margin class is a single matrix.
    """
    seed = check_seed(seed)
    rows, cols = _check_margins(row_sums, col_sums)
    if burn_in < 0:
        raise ValueError("burn_in must be >= 0")

    entries = np.zeros((rows.size, cols.size), dtype=np.int8)
    caps = cols.copy()
    for i in np.argsort(-rows, kind="stable"):
        need = int(rows[i])
        if need == 0:
            continue
        targets = np.argsort(-caps, kind="stable")[:need]
        if caps[targets[-1]] < 1:
            raise ValueError("margins are not realizable by any 0/1 matrix")
        entries[i, targets] = 1
        caps[targets] -= 1

    if burn_in > 0 and rows.size >= 2 and cols.size >= 2:
        _advance(entries, burn_in, np.random.default_rng(np.random.SeedSequence(seed)))
    return BinaryMatrix(entries)
