"""Counter-based random streams for reproducible, schedule-independent simulation.

Every simulation in this package derives its randomness from a 64-bit master
seed through `numpy.random.SeedSequence` spawn keys.  Work unit ``i`` always
receives the stream keyed ``(seed, i)``, so results are identical whether the
units run serially, threaded, or in any order.
"""

import numpy as np

# Replications are processed in fixed-size blocks; block b always consumes
# stream b.  Changing this constant changes simulation output.
CHUNK = 1 << 14


def check_seed(seed):
    """Validate and return a 64-bit unsigned seed."""
    seed = int(seed)
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed}")
    return seed


def stream(seed, index):
    """Generator for work unit `index` under the master `seed`.

    The mapping (seed, index) -> stream is fixed, so any scheduling of the
    work units reproduces the same draws.
    """
    ss = np.random.SeedSequence(check_seed(seed), spawn_key=(int(index),))
    return np.random.default_rng(ss)


def iter_chunks(total, size=CHUNK):
    """Yield (index, length) blocks covering `total` replications."""
    index = 0
    done = 0
    while done < total:
        length = min(size, total - done)
        yield index, length
        index += 1
        done += length
