"""Combining dependent-but-conditionally-i.i.d. p-values, the wrong way and the right way.

The sample below is drawn from the worst-case dependence structure: with
probability t all n p-values collapse onto one small common value, otherwise
they scatter above t.  Taking the minimum (or even the raw median) of such a
sample as "the" p-value is anticonservative; the corrected order statistic
is valid by construction.

Run:  python demos/combine_pvalues.py
"""

import numpy as np

from orderpv import adversarial_kernel, combine_pvalues, default_k, solve_combiner

n = 101
k = default_k(n)
spec = solve_combiner(n, k)
kernel = adversarial_kernel(n, spec.knee)
rng = np.random.default_rng(7)
sample = kernel(rng, 1)[0]

print(f"one draw of {n} conditionally i.i.d. p-values (worst-case kernel):")
print(f"  min = {sample.min():.4f}   median = {np.median(sample):.4f}   max = {sample.max():.4f}")

res = combine_pvalues(sample)  # k defaults to the left sample median index
print()
print(f"combined with k = {res.k} (left sample median):")
print(f"  order statistic u = {res.order_stat:.4f}")
print(f"  exact summary     = {res.summary:.4f}   (slope {res.slope:.4f}, knee {res.knee:.4f})")
print(f"  simple bound      = {res.bound:.4f}   (min(1, (n/k) u), always >= the summary)")

print()
print("How often would each report fall below 0.05 if the null were true?")
draws = kernel(rng, 40_000)  # one row per simulated sample
mins = draws.min(axis=1)
medians = np.median(draws, axis=1)
summaries = spec.apply(np.partition(draws, k - 1, axis=1)[:, k - 1])
for label, vals in [("raw minimum", mins), ("raw median", medians), ("corrected summary", summaries)]:
    print(f"  P({label:>17} <= 0.05) = {(vals <= 0.05).mean():.4f}   (valid means <= 0.05)")
