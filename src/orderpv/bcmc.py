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

from .binom import _check_n
from .rngs import check_seed

_BLOCK = 8192  # index draws are pre-generated in blocks of this many steps
# Most bytes of chain states scored in one statistic call.  Larger stacks
# are slower once their float64 copies leave the cache: on a 2-core x86
# host the ~1000 states of a 40x20 chain took 9-11 ms to score in one call
# and 3.7-4.6 ms in stacks of 40 (2**15 bytes).
_STACK_BYTES = 2**15


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
    if not ((arr == 0) | (arr == 1)).all():
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

    When `statistic` is given, each step is scored by the state it leaves;
    returns the number of steps with statistic >= threshold, appending each
    step's value to `trace` when provided.

    The indices of a block are drawn as numpy arrays (one `rng.integers` call
    per corner, so the random stream is fixed by the block layout) and then
    turned into Python ints.  The state is copied once into a bytearray,
    whatever the layout of `work`, and written back at the end.  The loop
    reads and writes cells through one 1-D memoryview per row of it,
    `rows[r1][c1]`: a list lookup and a 1-D index cost less than a tuple
    index into a 2-D memoryview (on a 2-core x86 host, 10**4 steps of a
    40x20 chain without a statistic took 3.6 ms with that and 2.1 ms with
    the row views).  Flat indices r1 * c + c1 are not precomputed: above 256
    they are not cached small ints, and the four lists of one block add
    about 0.7 MB to the traced peak of a 40x20 chain.

    The statistic is not called inside the loop.  A state keeps its value
    until the next accepted swap, so the loop only appends a byte snapshot
    of each new state, and the step where it begins, to a stack.  A stack
    is scored in one call when it is full (`_STACK_BYTES`; a larger state
    goes alone) and at the end, and each value counts once per step its
    state lasts.  One numpy call costs several microseconds whatever its
    size, and on a 40x20 chain about one step in ten is accepted.  Scored
    one state at a time, the statistic took about 80 % of such a chain's
    time; in stacks it takes about half: 10**4 steps took 2.1 ms without a
    statistic, 2.7 ms with one that costs nothing, and 5.9 ms with
    `checkerboard_score`.
    """
    if steps <= 0:
        return 0
    _check_swappable(work.shape)
    r, c = work.shape
    cells = bytearray(work.tobytes())
    view = memoryview(cells)
    rows = [view[i * c:(i + 1) * c] for i in range(r)]
    full = max(1, _STACK_BYTES // len(cells)) * len(cells)  # bytes of a full stack
    stack = None if statistic is None else bytearray(cells)
    starts = [0]  # the step at which each stacked state begins
    count = 0
    done = 0
    while done < steps:
        b = min(_BLOCK, steps - done)
        i1 = rng.integers(0, r, size=b)
        i2 = rng.integers(0, r - 1, size=b)
        j1 = rng.integers(0, c, size=b)
        j2 = rng.integers(0, c - 1, size=b)
        i2 = i2 + (i2 >= i1)
        j2 = j2 + (j2 >= j1)
        for t, r1, r2, c1, c2 in zip(range(done, done + b), i1.tolist(), i2.tolist(),
                                     j1.tolist(), j2.tolist()):
            row1 = rows[r1]
            row2 = rows[r2]
            a = row1[c1]
            bb = row1[c2]
            if a != bb and row2[c2] == a and row2[c1] == bb:
                row1[c1] = bb
                row2[c2] = bb
                row1[c2] = a
                row2[c1] = a
                if stack is not None:
                    if len(stack) == full:
                        count += _score_stack(stack, starts, t, work.shape, statistic,
                                              threshold, trace)
                        stack, starts = bytearray(), []
                    stack += cells
                    starts.append(t)
        done += b
    if stack is not None:
        count += _score_stack(stack, starts, steps, work.shape, statistic, threshold, trace)
    work[...] = np.frombuffer(cells, dtype=np.int8).reshape(r, c)
    return count


def _score_stack(stack, starts, end, shape, statistic, threshold, trace):
    """Score the stacked states in one `statistic` call; see `_advance`.

    State i lasts from step starts[i] to the next start, the last one to
    `end`.  Only the first state can last no step (the chain's first step
    swapped it away); it is dropped.  Returns the number of steps >= threshold.
    """
    runs = np.diff(starts, append=end)
    states = np.frombuffer(stack, dtype=np.int8).reshape(-1, *shape)
    if not runs[0]:
        states, runs = states[1:], runs[1:]
        if not runs.size:
            return 0
    states.setflags(write=False)
    values = statistic(states)
    if trace is not None:
        for value, run in zip(values, runs.tolist()):
            trace += [value] * run
    if threshold is None:
        return 0
    return int(runs[np.asarray(values) >= threshold].sum())


def checkerboard_score(mats):
    """Mean over column pairs of (col_sum_j - overlap)(col_sum_j' - overlap), per matrix.

    The classic checkerboard statistic (C-score): large values mean column
    pairs tend to avoid sharing rows.  Varies across the fixed-margin class,
    which is what gives the serial test its power; it is the default
    statistic of `ChainConfig`.

    Takes a (B, r, c) stack of 0/1 matrices and returns their (B,) scores;
    one matrix (2-D array, list or BinaryMatrix) gives one float.  The chain
    scores the states it visits as stacks because each call costs several
    microseconds whatever its size: on a 2-core x86 host about 1000 states
    of 40x20 took 2.3 ms in stacks of 40 and 12.5 ms one by one.

    No c x c array of the differences is built.  With O = X^T X the column
    overlaps of an r x c matrix X, s = diag(O) its column sums and N = sum(s)
    its ones, the sum over the c(c-1) ordered column pairs is

        c(c-1) * score = N**2 - 2 * sum_j' (sum_j O[j, j']) * s[j'] + sum_jj' O[j, j']**2,

    since a pair j = j' adds nothing (O[j, j] = s[j]).  O is one float64
    `np.matmul` of a C-contiguous copy of the transposed stack with the
    stack: numpy has no BLAS path for int64, and BLAS multiplies the
    transposed view more slowly than the copy.  For 0/1 entries it is
    exact, as every entry and partial sum is an integer count of at most
    r < 2**53.  It is cast to int64 before the reductions, where each term
    is at most 2 * (r * c)**2, so the numerator is exact for r * c < 2**31
    and each score is the same float as with the all-int64 sum of the
    products, whatever stack the matrix is in.
    """
    e = mats.entries if isinstance(mats, BinaryMatrix) else np.asarray(mats)
    c = e.shape[-1]
    if c < 2:
        raise ValueError("need at least 2 columns")
    f = e.astype(np.float64)
    overlap = np.matmul(np.ascontiguousarray(f.swapaxes(-1, -2)), f).astype(np.int64)
    col = np.diagonal(overlap, axis1=-2, axis2=-1)
    ones = col.sum(axis=-1)
    cross = np.einsum("...ij,...j->...", overlap, col)
    square = np.einsum("...ij,...ij->...", overlap, overlap)
    return (ones * ones - 2 * cross + square) / (c * (c - 1))


@dataclass(frozen=True)
class ChainConfig:
    """Length, statistic, and seed of one serial Monte Carlo run.

    `statistic` maps a (B, r, c) int8 stack of 0/1 matrices to their (B,)
    values; larger values count as more extreme.  A matrix must get the
    same value whatever stack it is in.  The length and the seed are
    checked and stored as ints; a non-integral one is refused.
    """

    length: int
    statistic: object = field(default=checkerboard_score)
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "length", _check_n(self.length, "chain length"))
        object.__setattr__(self, "seed", check_seed(self.seed))


def _serial_pvalue_rng(entries, length, statistic, rng, return_trace=False):
    """Serial construction on a caller-provided generator; see `serial_pvalue`.

    `entries` comes from `_as_binary`; its shape is checked at every length.
    """
    _check_swappable(entries.shape)
    tau = int(rng.integers(1, length + 1))
    observed = statistic(entries[None])[0]

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
