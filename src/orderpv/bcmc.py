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
from .rngs import check_seed, integral, stream

_BLOCK = 8192  # index draws are pre-generated in blocks of this many steps
# Most bytes of chain states scored in one statistic call.  Larger stacks
# are slower once their float copies leave the cache: on a 2-core x86
# host the ~1000 states of a 40x20 chain took 9-11 ms to score in one call
# and 3.7-4.6 ms in stacks of 40 (2**15 bytes).
_STACK_BYTES = 2**15
# Below this many rows the checkerboard overlap counts are exact in float32.
_FLOAT32_EXACT_ROWS = 2**24
# Up to this many cells r * c the checkerboard sum is exact in float32.
_FLOAT32_EXACT_CELLS = 2**13
# Longest chain whose trace `serial_pvalue` returns.  The trace is one
# float64 array, 8 bytes a step (0.13 GB here) above the chain's own peak.
MAX_TRACE_LENGTH = 2**24


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


def _advance(work, steps, rng, score=None):
    """Run `steps` swap steps in place on `work`.

    When `score` is given, it is called as ``score(states, runs)`` on
    read-only (B, r, c) int8 stacks of the states left by the steps, in
    order; state i lasts ``runs[i]`` steps, and all runs add up to `steps`.

    The indices of a block are drawn as numpy arrays (one `rng.integers` call
    per corner, so the random stream is fixed by the block layout) and then
    iterated as Python ints: as `bytes` when both dimensions are at most
    256, so that every index fits in a byte, and as lists from `tolist`
    otherwise.  The loop keeps no step counter: an accepted swap's step is
    the block's last step less the remaining length of the first index
    iterator, which list and bytes iterators report exactly, so only the
    accepted steps pay for it.  The state is copied once into a bytearray,
    whatever the layout of `work`, and written back at the end.  The loop
    reads and writes cells through one 1-D memoryview per row of it,
    `rows[r1][c1]`: a list lookup and a 1-D index cost less than a tuple
    index into a 2-D memoryview (on a 2-core x86 host, 10**4 steps of a
    40x20 chain without scoring took 3.6 ms with that and 2.1 ms with
    the row views).  Flat indices r1 * c + c1 are not precomputed: they
    pass 255 on all but the smallest matrices, so they would be lists of
    ints that are not cached small ints, which add about 0.7 MB to the
    traced peak of a 40x20 chain.

    A state lasts until the next accepted swap, so the loop appends a byte
    snapshot of a state, and its run, to a stack only when the swap that
    ends it is accepted, before the swap's cell writes, and the state left
    by the last step after the loop.  A swap at step 0 ends the initial
    state after no step, and that state is skipped.  The stack goes to
    `score` when full (`_STACK_BYTES`; a larger state goes alone) and at
    the end, so each state is scored once, and only after it has ended,
    whatever the index blocks.  One numpy call costs several
    microseconds whatever its size, and on a 40x20 chain
    about one step in ten is accepted.  Scored one state at a time, the
    statistic takes about 80 % of such a chain's time; in stacks it takes
    about 40 %: 10**4 steps took 1.7 ms without scoring, 2.1 ms with a
    statistic that costs nothing, and 3.4 ms with `checkerboard_score`
    (medians of 60 rounds).
    """
    if steps <= 0:
        return
    _check_swappable(work.shape)
    r, c = work.shape
    cells = bytearray(work.tobytes())
    view = memoryview(cells)
    rows = [view[i * c:(i + 1) * c] for i in range(r)]
    small = max(r, c) <= 256  # every index fits in a byte
    full = max(1, _STACK_BYTES // len(cells)) * len(cells)  # bytes of a full stack
    stack, runs = bytearray(), []  # snapshots of the states that have ended, and their runs
    start = 0  # the step at which the current state began
    done = 0
    while done < steps:
        b = min(_BLOCK, steps - done)
        i1 = rng.integers(0, r, size=b)
        i2 = rng.integers(0, r - 1, size=b)
        j1 = rng.integers(0, c, size=b)
        j2 = rng.integers(0, c - 1, size=b)
        i2 = i2 + (i2 >= i1)
        j2 = j2 + (j2 >= j1)
        blocks = [a.astype(np.uint8).tobytes() if small else a.tolist() for a in (i1, i2, j1, j2)]
        first = iter(blocks[0])
        left = first.__length_hint__  # the steps of this block after the current one
        last = done + b - 1
        for r1, r2, c1, c2 in zip(first, *blocks[1:]):
            row1 = rows[r1]
            row2 = rows[r2]
            a = row1[c1]
            bb = row1[c2]
            if a != bb and row2[c2] == a and row2[c1] == bb:
                if score is not None:
                    t = last - left()
                    if t > start:
                        stack += cells
                        runs.append(t - start)
                        start = t
                        if len(stack) == full:
                            _score_stack(stack, runs, work.shape, score)
                            stack, runs = bytearray(), []
                row1[c1] = bb
                row2[c2] = bb
                row1[c2] = a
                row2[c1] = a
        done += b
    if score is not None:
        stack += cells
        runs.append(steps - start)
        _score_stack(stack, runs, work.shape, score)
    work[...] = np.frombuffer(cells, dtype=np.int8).reshape(r, c)


def _score_stack(stack, runs, shape, score):
    """Hand the stacked states and their runs to `score`; see `_advance`.

    With the runs, a score keeps no Python object per step: the trace of
    `_serial_pvalue_rng` holds 8 bytes a step.
    """
    states = np.frombuffer(stack, dtype=np.int8).reshape(-1, *shape)
    states.setflags(write=False)
    score(states, np.array(runs))


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
    of 40x20 took 1.3 ms in stacks of 40 and 9.3 ms one by one.

    With M = X^T (1 - X) for an r x c matrix X, M[j, j'] counts the rows
    that have column j but not column j': it is s[j] - O[j, j'], with s the
    column sums and O = X^T X the column overlaps, and M[j, j] = 0.  The
    sum over the c(c-1) ordered column pairs is then

        c(c-1) * score = sum_jj' M[j, j'] * M[j', j],

    as a pair j = j' adds nothing.  M is one BLAS `np.matmul` of the
    transposed stack with its complement (numpy has no BLAS path for
    int64).  For 0/1 entries it is exact, as every entry and partial sum is
    an integer count of at most r: in float32 below 2**24 rows, which
    halves the temporaries, and in float64 from there.  M[j, j'] and
    M[j', j] count disjoint sets of rows, so they add up to at most r and
    each term of the sum is at most r**2 / 4.  Up to r * c = 2**13 cells
    the sum runs on the float32 product itself: every partial sum is an
    integer of at most c(c-1) r**2 / 4 < (r c)**2 / 4 <= 2**24, which
    float32 holds exactly, in any order of addition.  Above that the
    product is cast to int64 first, so the numerator is exact for
    r * c < 2**31.  Either way each score is the same float as with the
    all-int64 sum of the products, whatever stack the matrix is in.

    Anything but a 2-D matrix or a 3-D stack is refused by its shape.
    """
    e = mats.entries if isinstance(mats, BinaryMatrix) else np.asarray(mats)
    if e.ndim not in (2, 3):
        raise ValueError(f"need an r x c matrix or a (B, r, c) stack, got shape {e.shape}")
    r, c = e.shape[-2:]
    if c < 2:
        raise ValueError("need at least 2 columns")
    f = e.astype(np.float32 if r < _FLOAT32_EXACT_ROWS else np.float64)
    only = np.matmul(f.swapaxes(-1, -2), 1 - f)
    if r * c > _FLOAT32_EXACT_CELLS:
        only = only.astype(np.int64)
    return np.einsum("...ij,...ji->...", only, only).astype(np.float64) / (c * (c - 1))


@dataclass(frozen=True)
class ChainConfig:
    """Length, statistic, and seed of one serial Monte Carlo run.

    `statistic` maps a (B, r, c) int8 stack of 0/1 matrices to their (B,)
    values; larger values count as more extreme.  A matrix must get the
    same value whatever stack it is in; a NaN value stops the chain with a
    ValueError.  The length and the seed are checked and stored as ints; a
    non-integral one is refused.
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
    `tally` scores each stack `_advance` hands on in one `statistic` call and
    counts the runs of values >= the observed one.  The trace is one float64
    array of the chain's length: each stack's runs are written into it as
    they come, forward from position tau + 1 up and backward from tau - 1
    down.  A run longer than a state's bytes is written as one slice, and
    the runs between such runs as one `np.repeat` piece, so a piece holds
    at most 8 bytes per stacked byte (256 KiB for a full stack) and the
    trace holds 8 bytes a step and nothing more.  A traced 10**4-step 6x4
    chain, whose runs are a few steps each, takes a few per cent longer than
    the untraced one; with one slice a run it took about 35 % longer.
    """
    _check_swappable(entries.shape)
    tau = int(rng.integers(1, length + 1))

    def evaluate(states):
        values = np.asarray(statistic(states))
        if values.shape != (len(states),):
            raise ValueError(f"statistic gave shape {values.shape} for {len(states)} states")
        # NaN >= x and x >= NaN are both False: a NaN state would count as
        # less extreme, and a NaN observed value would give p = 1/N
        nan = np.count_nonzero(values != values)
        if nan:
            raise ValueError(f"statistic gave NaN on {nan} of {len(states)} states")
        return values

    def tally(states, runs):
        nonlocal count, filled
        values = evaluate(states)
        count += int(runs[values >= observed].sum())
        if side is None:
            return
        lo = 0
        for i in np.flatnonzero(runs > states[0].size).tolist() + [len(runs)]:
            piece = np.repeat(values[lo:i], runs[lo:i])
            side[filled:filled + len(piece)] = piece
            filled += len(piece)
            if i < len(runs):
                run = int(runs[i])
                side[filled:filled + run] = values[i]
                filled += run
            lo = i + 1

    observed = evaluate(entries[None])[0]
    count = 1  # t = tau
    trace = np.empty(length) if return_trace else None
    # the forward chain fills trace[tau:] and the backward chain trace[:tau - 1]
    # through a reversed view, so both fill their side upward
    sides = (trace[tau:], trace[:tau - 1][::-1]) if return_trace else (None, None)
    for steps, side in zip((length - tau, tau - 1), sides):
        filled = 0
        _advance(np.array(entries, dtype=np.int8), steps, rng, tally)
    if not return_trace:
        return count / length
    trace[tau - 1] = observed
    return count / length, trace


def serial_pvalue(mat, cfg, return_trace=False):
    """Serial Monte Carlo p-value for the no-association null.

    `mat` is a BinaryMatrix or any 0/1 array-like of at least 2x2.  Places
    the observed matrix at a uniform position tau of a length-N chain,
    extends forward and backward with the (self-adjoint) swap kernel,
    and returns ``#{t : stat(X_tau) <= stat(X_t)} / N``.  Output is a
    multiple of 1/N in (0, 1]; the observed position always counts.

    With ``return_trace=True`` also returns the statistic values in chain
    order 1..N; a chain longer than `MAX_TRACE_LENGTH` is then refused
    before any step runs.
    """
    if return_trace and cfg.length > MAX_TRACE_LENGTH:
        raise ValueError(f"a trace of {cfg.length} steps exceeds MAX_TRACE_LENGTH = "
                         f"{MAX_TRACE_LENGTH}; lower the chain length or drop the trace")
    entries = _as_binary(mat)
    return _serial_pvalue_rng(entries, cfg.length, cfg.statistic, stream(cfg.seed), return_trace)


def _check_margins(row_sums, col_sums):
    """The margins as int64 vectors; a non-integral one is refused, not truncated."""
    checked = []
    for name, sums in (("row_sums", row_sums), ("col_sums", col_sums)):
        arr = np.asarray(sums)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError(f"{name} must be a non-empty 1-d integer vector")
        values = arr.tolist()
        ints = [integral(v) for v in values]
        if None in ints:
            raise ValueError(f"{name} must hold integers, got {values[ints.index(None)]!r}")
        checked.append(ints)
    rows, cols = checked
    if min(rows) < 0 or min(cols) < 0:
        raise ValueError("margins must be non-negative")
    if max(rows) > len(cols) or max(cols) > len(rows):
        raise ValueError("margins cannot exceed the opposite dimension")
    if sum(rows) != sum(cols):
        raise ValueError("row and column sums must agree in total")
    return np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64)


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
    steps = integral(burn_in)
    if steps is None or steps < 0:
        raise ValueError(f"burn_in must be a non-negative integer, got {burn_in!r}")

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

    if steps > 0 and rows.size >= 2 and cols.size >= 2:
        _advance(entries, steps, stream(seed))
    return BinaryMatrix(entries)
