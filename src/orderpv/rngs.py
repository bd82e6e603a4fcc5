"""Counter-based random streams for reproducible, schedule-independent simulation.

Every simulation in this package derives its randomness from a 64-bit master
seed through `numpy.random.SeedSequence` spawn keys.  Work unit ``i`` always
receives the stream keyed ``(seed, i)``, so results do not depend on the
order the units run in, and any unit can be recomputed alone.  `blocks` is
the one place that lays replications out in units of `CHUNK`.
"""

import numpy as np

# Replications are processed in fixed-size blocks; block b always consumes
# stream b (see `blocks`).  Changing this constant changes simulation output.
CHUNK = 1 << 14


def integral(value):
    """`value` as an int when it is a whole number, else None; never truncates."""
    try:
        number = int(value)
    except (TypeError, ValueError, OverflowError):
        return None
    return number if number == value else None


def check_seed(seed):
    """Validate and return a 64-bit unsigned seed as an int.

    A non-integral seed such as 1.5 is refused, not truncated: truncating
    would run another seed's streams under this one's name.
    """
    value = integral(seed)
    if value is None or not 0 <= value < 2**64:
        raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed!r}")
    return value


def stream(seed, *key):
    """Generator for the work unit keyed `key` under the master `seed`.

    The mapping (seed, key) -> stream is fixed, so any scheduling of the
    work units reproduces the same draws.  The empty key is the master
    stream ``SeedSequence(seed)`` itself, for a computation that is one unit.
    """
    ss = np.random.SeedSequence(check_seed(seed), spawn_key=tuple(map(int, key)))
    return np.random.default_rng(ss)


def blocks(seed, total):
    """Yield (start, length, rng) for the blocks covering `total` replications.

    Block b covers replications start = b * CHUNK up to start + length, with
    length = min(CHUNK, total - start), and draws from ``stream(seed, b)``.
    """
    for index, start in enumerate(range(0, total, CHUNK)):
        yield start, min(CHUNK, total - start), stream(seed, index)
