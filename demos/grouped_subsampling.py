"""One observation per block, test, repeat n times, combine.

Observations come in blocks with arbitrary within-block dependence (here: a
shared random shift per block).  Picking one observation per block justifies
an i.i.d. assumption for a base test; repeating the pick gives conditionally
i.i.d. p-values; the corrected median collapses them into a single defensible
number.  A null dataset and a signal dataset go through the same pipeline.
`run_pipeline` returns the sample and its combination; the quartiles,
maximum and histogram below come from the sample through numpy, as in the
`subsample` command.

Run:  python demos/grouped_subsampling.py
"""

import numpy as np

from orderpv import GroupedDataset, rank_sum_test, run_pipeline

SIZES = [3, 5, 2, 4, 6, 3, 4, 2, 5, 3, 4, 4]


def make_dataset(rng, signal=False):
    """Blocks with a shared component; under `signal` the first half runs low."""
    groups = []
    for j, size in enumerate(SIZES):
        base = rng.random()
        values = (base + 0.6 * rng.random(size)) % 1.0
        if signal:
            low = j < len(SIZES) // 2
            values = 0.45 * values if low else 0.55 + 0.45 * values
        groups.append(values.tolist())
    return GroupedDataset(groups)


def show(title, result):
    print(title)
    sample = result.sample
    q1, q2, q3 = np.quantile(sample, [0.25, 0.5, 0.75])
    print(f"  subsample p-values: quartiles {q1:.3f} {q2:.3f} {q3:.3f}, maximum {sample.max():.3f}")
    print(f"  combined summary (k = {result.combined.k}): {result.summary:.4f}"
          f"   simple bound: {result.combined.bound:.4f}")
    counts, edges = np.histogram(sample, 10, range=(0.0, 1.0))
    width = max(counts.max(), 1)
    for left, right, count in zip(edges[:-1], edges[1:], counts):
        bar = "#" * int(round(40 * count / width))
        print(f"  [{left:4.2f},{right:4.2f}) {count:>4} {bar}")
    print()


rng = np.random.default_rng(33)

null_data = make_dataset(rng)
show("NULL: all blocks share one distribution",
     run_pipeline(null_data, rank_sum_test, n=400, seed=1))

signal_data = make_dataset(rng, signal=True)
show("SIGNAL: the first half of the blocks runs low (rank-sum should notice)",
     run_pipeline(signal_data, rank_sum_test, n=400, seed=2))

print("The same data-dependent pick would be easy to cherry-pick once; the")
print("combined summary reflects all 400 re-picks at once.")
