"""Acceptance suite: every shipped guarantee at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all
live; they also appear in captured output on failure).
"""

import time

import numpy as np

from orderpv.bcmc import _advance, _serial_pvalue_rng, checkerboard_score, generate_null_matrix
from orderpv.binom import binom_upper_tail
from orderpv.correction import CombinerSpec, envelope, solve_combiner, tail_ratio
from orderpv.rngs import stream
from orderpv.subsample import GroupedDataset, rank_sum_test, run_pipeline
from orderpv.validity import (
    SimConfig,
    adversarial_kernel,
    check_validity,
    tightness_scan,
    uniform_kernel,
)

from oracles import enumerate_margin_class, subsample_rank_sum_law


def verdict(num, desc, ok):
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {desc}")
    assert ok, f"acceptance criterion {num} failed: {desc}"


def test_criterion_01_reference_constant():
    start = time.perf_counter()
    spec = CombinerSpec.solve(1000, 500)
    elapsed = time.perf_counter() - start
    ok = abs(spec.slope - 1.846) <= 5e-4 and elapsed < 1.0
    verdict(1, f"solve(1000,500) -> {spec.slope:.6f} (1.846 +/- 5e-4) in {elapsed:.3f}s (< 1s)", ok)


def test_criterion_02_reference_combined_value():
    spec = solve_combiner(1000, 500)
    value = spec.apply(0.03)
    _, upper = envelope(1000, 500, 0.03)
    ok = (
        value == 0.03 * spec.slope
        and 0.0553 <= value <= 0.0555
        and upper == 0.06
    )
    verdict(2, f"f(0.03) = {value:.6f} in [0.0553, 0.0555]; simple bound exactly 0.06", ok)


def test_criterion_03_trivial_constants():
    ok = solve_combiner(10, 10).slope == 1.0
    worst = 0.0
    u = np.linspace(0.0, 1.0, 101)
    for n in range(2, 51):
        spec = CombinerSpec.solve(n, 1)
        ok = ok and spec.slope == float(n)
        closed_form = 1.0 - (1.0 - u) ** n
        worst = max(worst, np.max(np.abs(spec.apply(u) - closed_form)))
    ok = ok and worst <= 1e-10
    verdict(3, f"identity at k=n; k=1 closed form within 1e-10 (worst {worst:.2e})", ok)


def test_criterion_04_bound_sandwich():
    start = time.perf_counter()
    u = np.linspace(0.0, 1.0, 200)
    violations = 0
    for n in range(1, 101):
        for k in range(1, n + 1):
            f = solve_combiner(n, k).apply(u)
            lower, upper = envelope(n, k, u)
            violations += int(np.any(f < lower - 1e-12) or np.any(f > upper + 1e-12))
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < 30.0
    verdict(4, f"envelope holds for all n<=100 on 200-point grids, {violations} violations, "
               f"{elapsed:.1f}s (< 30s)", ok)


def test_criterion_05_solver_against_grid_maximum():
    rng = np.random.default_rng(20240809)
    grid = np.linspace(0.0, 1.0, 1_000_001)  # 1e-6 resolution
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 10_001))
        k = int(rng.integers(1, n + 1))
        spec = CombinerSpec.solve(n, k)
        worst = max(worst, abs(spec.slope - tail_ratio(n, k, grid).max()))
    ok = worst <= 1e-6
    verdict(5, f"slope matches 1e-6-resolution grid max for 50 random (n,k), n<=1e4 "
               f"(worst {worst:.2e})", ok)


def test_criterion_06_validity_at_one_million_reps():
    start = time.perf_counter()
    spec = solve_combiner(10, 5)
    cfg = SimConfig(n=10, k=5, reps=1_000_000, seed=60)
    report = check_validity(cfg, spec.apply, adversarial_kernel(10, spec.knee))
    elapsed = time.perf_counter() - start
    ok = not report.any_violation and elapsed < 60.0
    verdict(6, f"exact correction consistent on 20-point grid at 1e6 reps, "
               f"{elapsed:.1f}s (< 1min)", ok)


def test_criterion_07_equality_case_and_tightness():
    spec = solve_combiner(10, 5)
    reps = 200_000
    worst_z = 0.0
    for i, alpha in enumerate(SimConfig(n=10, k=5, reps=1, seed=0).alpha_grid):
        t = max(spec.knee, spec.invert(alpha))
        cfg = SimConfig(n=10, k=5, reps=reps, seed=700 + i,
                        alpha_grid=np.array([alpha]))
        report = check_validity(cfg, spec.apply, adversarial_kernel(10, t))
        se = np.sqrt(alpha * (1.0 - alpha) / reps)
        worst_z = max(worst_z, abs(report.empirical_cdf[0] - alpha) / se)
    scan = tightness_scan(10, 5, 0.9, 1_000_000, 71)
    ok = worst_z <= 3.0 and scan.any_violation
    verdict(7, f"worst-case kernel attains equality (max |z| = {worst_z:.2f} <= 3); "
               f"shrink 0.9 caught at {len(scan.violations)} grid points", ok)


def test_criterion_08_order_statistic_identity():
    rng = np.random.default_rng(808)
    worst_z = 0.0
    for i in range(10):
        n = int(rng.integers(2, 101))
        k = int(rng.integers(1, n + 1))
        q = float(rng.uniform(0.05, 0.95))
        reps = 100_000
        cfg = SimConfig(n, k, reps, 900 + i, alpha_grid=np.array([q]))
        report = check_validity(cfg, lambda u: u, uniform_kernel(n, k))
        empirical = report.empirical_cdf[0]
        expected = binom_upper_tail(n, k, q)
        if empirical != expected:  # a tail of exactly 0 or 1 has no spread
            se = np.sqrt(expected * (1.0 - expected) / reps)
            worst_z = max(worst_z, abs(empirical - expected) / se)
    ok = worst_z <= 3.0
    verdict(8, f"order-statistic CDF matches binomial tail, 10 random triples at 1e5 reps "
               f"(worst |z| = {worst_z:.2f})", ok)


def test_criterion_09_association_chain():
    start = time.perf_counter()

    # margin conservation over 1e6 steps, exact integer check
    base = generate_null_matrix([3] * 12, [4] * 9, burn_in=0, seed=0)
    work = np.array(base.entries)
    _advance(work, 1_000_000, np.random.default_rng(91))
    margins_ok = (
        work.sum(axis=1).tolist() == base.entries.sum(axis=1).tolist()
        and work.sum(axis=0).tolist() == base.entries.sum(axis=0).tolist()
    )

    # uniformity over the six 3x3 permutation matrices, 1e6 steps;
    # thinned to keep the binomial error bar honest for a dependent chain
    members = enumerate_margin_class([1, 1, 1], [1, 1, 1])
    index = {m.tobytes(): i for i, m in enumerate(members)}
    state = np.eye(3, dtype=np.int8)
    rng = np.random.default_rng(92)
    thin, blocks = 25, 40_000  # 1e6 steps total
    visits = np.zeros(6, dtype=np.int64)
    for _ in range(blocks):
        _advance(state, thin, rng)
        visits[index[state.tobytes()]] += 1
    freq = visits / blocks
    se = np.sqrt((1 / 6) * (5 / 6) / blocks)
    uniform_ok = bool(np.all(np.abs(freq - 1 / 6) <= 3 * se))

    # null validity of the serial p-value: uniform starts from the
    # enumerated class, 1e4 replications of a length-1e3 chain
    members = enumerate_margin_class([2, 2, 2, 2, 2, 2], [3, 3, 3, 3])
    picker = np.random.default_rng(93)
    reps, length = 10_000, 1_000
    ps = np.empty(reps)
    for i in range(reps):
        start_state = members[picker.integers(len(members))]
        ps[i] = _serial_pvalue_rng(start_state, length, checkerboard_score, stream(94, i))
    null_ok = True
    for alpha in (0.05, 0.1, 0.25):
        se = np.sqrt(alpha * (1 - alpha) / reps)
        null_ok = null_ok and (ps <= alpha).mean() <= alpha + 3 * se

    elapsed = time.perf_counter() - start
    ok = margins_ok and uniform_ok and null_ok and elapsed < 300.0
    verdict(9, f"margins exact over 1e6 steps; permutation-class uniform at 3 sigma; "
               f"serial p-value valid at alpha in (0.05, 0.1, 0.25); {elapsed:.0f}s (< 5min)", ok)


def test_criterion_10_pipeline_null_validity():
    outer, n, k = 10_000, 200, 100
    solve_combiner(n, k)
    sizes = [2, 3, 1, 4, 2, 3, 2, 2, 3, 1, 2, 3]
    summaries = np.empty(outer)
    for i in range(outer):
        gen = np.random.default_rng(100_000 + i)
        groups = []
        for size in sizes:
            shift = gen.random()
            groups.append(((shift + 0.1 * gen.random(size)) % 1.0).tolist())
        result = run_pipeline(
            GroupedDataset(groups), rank_sum_test, n=n, k=k, seed=200_000 + i
        )
        summaries[i] = result.summary
    ok = True
    details = []
    for alpha in (0.01, 0.05, 0.1):
        emp = (summaries <= alpha).mean()
        se = np.sqrt(alpha * (1 - alpha) / outer)
        details.append(f"{emp:.4f}<= {alpha}+3se")
        ok = ok and emp <= alpha + 3 * se
    verdict(10, "pipeline summary valid under grouped null: " + ", ".join(details), ok)


def test_criterion_10_exact_conditional_rejection():
    # acceptance 10 without its Monte Carlo: on its first datasets, the
    # summary's conditional rejection rate given the data is exactly
    # P(Bin(n, F_data(f^-1(alpha))) >= k), with F_data the enumerated law of
    # one repetition's p-value
    datasets, n, k = 150, 200, 100
    alphas = (0.01, 0.05, 0.1)
    cuts = solve_combiner(n, k).invert(np.array(alphas))
    sizes = [2, 3, 1, 4, 2, 3, 2, 2, 3, 1, 2, 3]
    rejection = np.empty((datasets, len(alphas)))
    for i in range(datasets):
        gen = np.random.default_rng(100_000 + i)
        groups = []
        for size in sizes:
            shift = gen.random()
            groups.append(((shift + 0.1 * gen.random(size)) % 1.0).tolist())
        atoms, masses = subsample_rank_sum_law(groups)
        rejection[i] = binom_upper_tail(n, k, [masses[atoms <= cut].sum() for cut in cuts])
    mean = rejection.mean(axis=0)
    se = rejection.std(axis=0, ddof=1) / np.sqrt(datasets)
    details = [f"{m:.4f}<= {a}+3*{s:.4f}" for m, a, s in zip(mean, alphas, se)]
    verdict(10, f"exact conditional rejection over {datasets} datasets: " + ", ".join(details),
            bool(np.all(mean <= np.array(alphas) + 3 * se)))
