"""Do the columns of a 0/1 matrix associate, given its margins?

The null keeps every matrix with the observed row/column sums equally
likely; the chain explores that class by checkerboard swaps.  A custom
"total squared overlap" statistic is large when column pairs share rows,
so a matrix with planted co-occurrence lands in the extreme tail of the
chain and earns a small serial p-value, while a null draw does not.

Run:  python demos/matrix_association.py
"""

import numpy as np

from orderpv import BinaryMatrix, ChainConfig, generate_null_matrix, serial_pvalue


def squared_overlap(stack):
    """Sum over column pairs of (shared-row count)^2, per matrix of a (B, r, c) stack.

    Larger means more association.  The chain scores the states it visits
    in stacks, so a statistic takes a stack and returns one value per matrix.
    """
    e = np.asarray(stack, dtype=np.int64)
    overlap = e.swapaxes(-1, -2) @ e
    shared = np.diagonal(overlap, axis1=-2, axis2=-1)  # a column with itself
    return ((overlap ** 2).sum(axis=(-2, -1)) - (shared ** 2).sum(axis=-1)) // 2


ROWS, COLS = 42, 6
ROW_SUMS = [2] * ROWS
COL_SUMS = [ROWS * 2 // COLS] * COLS  # 42 rows x 2 ones = 6 columns x 14

# a null matrix: same margins, no structure beyond them
null_mat = generate_null_matrix(ROW_SUMS, COL_SUMS, burn_in=20_000, seed=5)

# planted association: the two 1s of each row sit in one of three fixed
# column pairs, so those pairs co-occur far more than the margins force
planted = np.zeros((ROWS, COLS), dtype=int)
for i in range(ROWS):
    pair = (2 * (i % 3), 2 * (i % 3) + 1)
    planted[i, pair[0]] = planted[i, pair[1]] = 1
planted_mat = BinaryMatrix(planted)

assert planted_mat.entries.sum(axis=1).tolist() == ROW_SUMS
assert planted_mat.entries.sum(axis=0).tolist() == COL_SUMS

print(f"matrix shape {ROWS}x{COLS}, row sums all 2, column sums all {COL_SUMS[0]}")
null_score, planted_score = squared_overlap([null_mat.entries, planted_mat.entries])
print(f"squared-overlap statistic: null draw = {null_score}, planted = {planted_score}")
print()

for length in (100, 1_000, 10_000):
    cfg = ChainConfig(length=length, statistic=squared_overlap, seed=42)
    p_null = serial_pvalue(null_mat, cfg)
    p_planted = serial_pvalue(planted_mat, cfg)
    print(f"chain length {length:>6}: serial p-value null = {p_null:.4f}   planted = {p_planted:.4f}")

print()
print("The planted matrix's p-value is pinned near 1/N: virtually no state of")
print("the chain matches its overlap.  The null draw stays unremarkable, and")
print("margins are conserved exactly throughout (that's the whole point).")
