"""The four benchmark workloads and the checks on their outputs.

Each workload drives one public `orderpv` entry point.  An instance is made
from the workload seed; `start` builds its seeded inputs, `make_input(i)`
gives the input of op i, `call` runs one op untraced, and `traced_call` runs
the same op with spans around the callables the public API accepts (the
library itself is never patched).  `check` raises `CheckError` when an
output is wrong; `finish` runs the checks that pool the whole run.

Only public names that the roadmap keeps are used: no `threads=` argument,
no underscored names, none of `adversarial_draw`, `swap_step`,
`orderstat_cdf_check`, `rngs.split` or `cooccurrence_stat`.
"""

import hashlib

import numpy as np

from orderpv import (
    ChainConfig,
    CombineResult,
    CombinerSpec,
    GroupedDataset,
    SimConfig,
    adversarial_kernel,
    binom_upper_tail,
    binom_upper_tail_derivative,
    check_validity,
    checkerboard_score,
    combine_pvalues,
    default_k,
    envelope,
    generate_null_matrix,
    order_statistic,
    rank_sum_test,
    run_pipeline,
    serial_pvalue,
    solve_combiner,
    tail_ratio,
)
from orderpv.rngs import stream

# Two-sided z bound for Monte Carlo equality checks.  A run makes a few
# thousand such tests; at 6 sigma a false alarm is about 2e-9 per test.
Z_BOUND = 6.0
REFERENCE_SLOPE = 1.846322926  # CombinerSpec.solve(1000, 500).slope, README
DIGEST_OPS = 100  # outputs of the first ops feed the digest; every run has them


class CheckError(Exception):
    """An op's output failed its correctness check."""


def _seed_bits(rng):
    return int(rng.integers(0, 2**63))


def check_reference_slope(slope):
    if abs(slope - REFERENCE_SLOPE) > 1e-9:
        raise CheckError(f"slope(1000, 500) = {slope!r}, expected {REFERENCE_SLOPE}")


def check_combine(values, res):
    """The summary sits in the envelope and the knee maximises the tail ratio."""
    n, k, u = res.n, res.k, res.order_stat
    if n != values.size or k != default_k(n):
        raise CheckError(f"(n, k) = ({n}, {k}) for {values.size} values")
    if np.count_nonzero(values <= u) < k or np.count_nonzero(values < u) > k - 1:
        raise CheckError(f"{u!r} is not the {k}-th smallest value")
    lower, upper = envelope(n, k, u)
    if not lower * (1 - 1e-12) <= res.summary <= upper * (1 + 1e-12):
        raise CheckError(f"summary {res.summary!r} outside envelope [{lower!r}, {upper!r}]")
    probe = np.clip([res.knee - 1e-4, res.knee, res.knee + 1e-4], 0.0, 1.0)
    side, at, other = tail_ratio(n, k, probe)
    if at < max(side, other) * (1 - 1e-12):
        raise CheckError(f"tail ratio at knee {res.knee!r} is not a maximum (n={n}, k={k})")


def check_cdf(alpha, hits, reps, cutoff):
    """P(f(U_k) <= alpha) equals alpha below `cutoff` and is at most alpha above.

    `hits` counts replications with f(U_k) <= alpha.  Under the worst-case
    kernel at the knee the equality is exact for alpha <= slope * knee, so a
    shrunk correction shows as a large positive z.
    """
    emp = np.asarray(hits, dtype=float) / reps
    z = (emp - alpha) / np.sqrt(alpha * (1.0 - alpha) / reps)
    bad = np.where(alpha <= cutoff, np.abs(z) > Z_BOUND, z > Z_BOUND)
    if bad.any():
        a = alpha[bad][0]
        raise CheckError(f"empirical CDF at alpha={a:.4g}: z={z[bad][0]:.2f}, |z| bound {Z_BOUND}")


def check_pipeline(res, k):
    sample = np.asarray(res.sample)
    if np.any(sample < 0.0) or np.any(sample > 1.0):
        raise CheckError("subsample p-value outside [0, 1]")
    expected = combine_pvalues(sample, k).summary
    if res.summary != expected:
        raise CheckError(f"summary {res.summary!r} != combine_pvalues(sample) {expected!r}")


def check_serial(p, length, mat, row_sums, col_sums):
    """p lies on the 1/N lattice in (0, 1]; the input keeps its margins."""
    steps = p * length
    if not 1 <= round(steps) <= length or abs(steps - round(steps)) > 1e-6:
        raise CheckError(f"p-value {p!r} is not a multiple of 1/{length} in (0, 1]")
    entries = np.asarray(getattr(mat, "entries", mat))
    if (entries.sum(axis=1) != row_sums).any() or (entries.sum(axis=0) != col_sums).any():
        raise CheckError("input matrix margins changed")


class Workload:
    """Base: op loop hooks shared by every workload."""

    name = ""
    stream_id = 0

    def __init__(self, seed):
        self.seed = seed

    def start(self):
        self.rng = np.random.default_rng(np.random.SeedSequence([self.seed, self.stream_id]))
        self._digest = hashlib.sha256()
        self._digested = 0

    def digest(self, out):
        if self._digested < DIGEST_OPS:
            self._digest.update(self.digest_item(out).encode())
            self._digested += 1

    def hexdigest(self):
        return self._digest.hexdigest()

    def probe(self, inp, out, rec):
        """Extra timed calls after a traced op, outside its span."""

    def finish(self):
        """Checks over the whole run; raises CheckError."""

    def counters(self):
        return {}


class CombineCold(Workload):
    """`combine_pvalues` on fresh uniform vectors, every solve cold.

    Sizes come from a pool of distinct n, drawn with weight 1/n from
    10..10 000 and shuffled, so any prefix of the run has the same mix.  The
    solve cache is cleared whenever the pool starts over.
    """

    name = "combine-cold"
    stream_id = 0
    units_per_op = 1
    POOL = 2048
    N_RANGE = (10, 10_000)

    def warmup(self):
        combine_pvalues(np.random.default_rng(0).random(1000))

    def start(self):
        super().start()
        ns = np.arange(self.N_RANGE[0], self.N_RANGE[1] + 1)
        weight = 1.0 / ns
        self.sizes = self.rng.choice(ns, size=self.POOL, replace=False, p=weight / weight.sum())
        self.rng.shuffle(self.sizes)
        self.cache_hits = 0
        solve_combiner.cache_clear()

    def make_input(self, i):
        if i and i % self.POOL == 0:
            self.cache_hits += solve_combiner.cache_info().hits
            solve_combiner.cache_clear()
        return self.rng.random(int(self.sizes[i % self.POOL]))

    def call(self, values):
        return combine_pvalues(values)

    def traced_call(self, values, rec):
        # The three public steps combine_pvalues composes, one span each.
        n = values.size
        k = default_k(n)
        u = rec.call("combine.order_statistic", order_statistic, values, k)
        spec = rec.call("correction.solve", solve_combiner, n, k)
        summary = rec.call("correction.apply", spec.apply, u)
        return CombineResult(summary=summary, n=n, k=k, order_stat=u, knee=spec.knee,
                             slope=spec.slope, bound=min(1.0, (n / k) * u))

    def probe(self, values, res, rec):
        n, k, knee = res.n, res.k, res.knee
        rec.call("binom.upper_tail", binom_upper_tail, n, k, knee)
        side = "n_le_500" if n <= 500 else "n_gt_500"
        rec.call("binom.tail_derivative." + side, binom_upper_tail_derivative, n, k, knee)

    check = staticmethod(check_combine)

    def digest_item(self, res):
        return f"{res.n},{float(res.summary).hex()};"

    def finish(self):
        self.cache_hits += solve_combiner.cache_info().hits
        check_reference_slope(CombinerSpec.solve(1000, 500).slope)

    def counters(self):
        return {"solve_cache_hits": self.cache_hits}

    @staticmethod
    def layer_metrics(t, rec, ops, extra):
        return {
            "correction.solve_ms": _mean(t, "correction.solve") / 1e6,
            "combine.order_statistic_us": _mean(t, "combine.order_statistic") / 1e3,
            "correction.apply_us": _mean(t, "correction.apply") / 1e3,
            "binom.upper_tail_us": _mean(t, "binom.upper_tail") / 1e3,
            "binom.tail_derivative_us.n_le_500": _mean(t, "binom.tail_derivative.n_le_500") / 1e3,
            "binom.tail_derivative_us.n_gt_500": _mean(t, "binom.tail_derivative.n_gt_500") / 1e3,
            "correction.solve_cache_hits": extra["solve_cache_hits"],
        }


class ValidateN10(Workload):
    """`check_validity` at n=10, k=5 against the worst-case kernel at the knee."""

    name = "validate-n10"
    stream_id = 1
    N, K, REPS = 10, 5, 2**16
    units_per_op = REPS

    def _prepare(self):
        self.spec = solve_combiner(self.N, self.K)
        self.kernel = adversarial_kernel(self.N, self.spec.knee)

    def warmup(self):
        self._prepare()
        self.call(0)

    def start(self):
        super().start()
        self._prepare()
        self.cutoff = self.spec.slope * self.spec.knee
        self.hits = None
        self.reps = 0

    def make_input(self, i):
        return _seed_bits(self.rng)

    def _config(self, seed):
        return SimConfig(n=self.N, k=self.K, reps=self.REPS, seed=seed)

    def call(self, seed):
        return check_validity(self._config(seed), self.spec.apply, self.kernel)

    def traced_call(self, seed, rec):
        self.batches = []

        def kernel(rng, size):
            draws = rec.call("validity.kernel", self.kernel, rng, size)
            rec.count("validity.kernel_bytes", draws.nbytes)
            return draws

        def apply(u):
            self.batches.append(np.array(u))  # a view would keep the whole draw alive
            return rec.call("correction.apply", self.spec.apply, u)

        return check_validity(self._config(seed), apply, kernel)

    def probe(self, seed, report, rec):
        for u in self.batches:
            rec.call("binom.upper_tail", binom_upper_tail, self.N, self.K, u)
            rec.count("binom.upper_tail.values", u.size)

    def check(self, seed, report):
        if report.reps != self.REPS or report.alpha.size != 20:
            raise CheckError(f"report has {report.reps} reps on {report.alpha.size} points")
        hits = np.rint(report.empirical_cdf * report.reps).astype(np.int64)
        check_cdf(report.alpha, hits, report.reps, self.cutoff)
        self.alpha = report.alpha
        self.hits = hits if self.hits is None else self.hits + hits
        self.reps += report.reps

    def finish(self):
        check_cdf(self.alpha, self.hits, self.reps, self.cutoff)

    def digest_item(self, report):
        return ",".join(str(int(round(e * report.reps))) for e in report.empirical_cdf) + ";"

    @classmethod
    def layer_metrics(cls, t, rec, ops, extra):
        reps = ops * cls.REPS
        return {
            "validity.kernel_ns_per_rep": t["validity.kernel"][1] / reps,
            "validity.kernel_calls": t["validity.kernel"][0] / ops,
            "validity.kernel_bytes_per_rep": rec.counters["validity.kernel_bytes"] / reps,
            "correction.apply_ns_per_rep": t["correction.apply"][1] / reps,
            "binom.upper_tail_ns_per_value":
                t["binom.upper_tail"][1] / rec.counters["binom.upper_tail.values"],
            "validity.self_ns_per_rep": t["op"][2] / reps,
        }


class SubsampleRanksum(Workload):
    """`run_pipeline` with the rank-sum test on fresh 12-group null datasets."""

    name = "subsample-ranksum"
    stream_id = 2
    SIZES = (2, 3, 1, 4, 2, 3, 2, 2, 3, 1, 2, 3)
    N, K = 200, 100
    STREAM_PROBES = 20
    units_per_op = N

    def warmup(self):
        self.call(self._dataset(np.random.default_rng(0)) + (0,))

    def _dataset(self, rng):
        # Each group clusters near its own random centre: null across groups,
        # strong dependence within one.
        groups = []
        for size in self.SIZES:
            shift = rng.random()
            groups.append(((shift + 0.1 * rng.random(size)) % 1.0).tolist())
        return (groups,)

    def make_input(self, i):
        return self._dataset(self.rng) + (_seed_bits(self.rng),)

    def call(self, inp, test=rank_sum_test):
        groups, seed = inp
        return run_pipeline(GroupedDataset(groups), test, n=self.N, k=self.K, seed=seed)

    def traced_call(self, inp, rec):
        return self.call(inp, rec.wrap("subsample.test", rank_sum_test))

    def probe(self, inp, res, rec):
        seed = inp[1]
        sid = rec.enter("rngs.stream")
        for j in range(self.STREAM_PROBES):
            stream(seed, j)
        rec.exit(sid)
        rec.count("rngs.stream.calls", self.STREAM_PROBES)

    def check(self, inp, res):
        if len(res.sample) != self.N:
            raise CheckError(f"{len(res.sample)} subsample p-values, expected {self.N}")
        check_pipeline(res, self.K)

    def digest_item(self, res):
        return float(res.summary).hex() + ";"

    @classmethod
    def layer_metrics(cls, t, rec, ops, extra):
        return {
            "subsample.test_us": _mean(t, "subsample.test") / 1e3,
            "subsample.test_calls": t["subsample.test"][0] / ops,
            "subsample.self_us_per_rep": t["op"][2] / (ops * cls.N) / 1e3,
            "rngs.stream_us": t["rngs.stream"][1] / rec.counters["rngs.stream.calls"] / 1e3,
        }


class BcmcChain(Workload):
    """`serial_pvalue` with the checkerboard score on 40x20 null matrices."""

    name = "bcmc-chain"
    stream_id = 3
    ROWS, COLS = (6,) * 40, (12,) * 20
    LENGTH = 10_000
    POOL = 16
    units_per_op = LENGTH

    def _config(self, seed, statistic=checkerboard_score):
        # The statistic is passed explicitly: the library default may change.
        return ChainConfig(length=self.LENGTH, statistic=statistic, seed=seed)

    def warmup(self):
        mat = generate_null_matrix(self.ROWS, self.COLS, seed=0)
        serial_pvalue(mat, self._config(0))

    def start(self):
        super().start()
        self.pool = [generate_null_matrix(self.ROWS, self.COLS, seed=_seed_bits(self.rng))
                     for _ in range(self.POOL)]

    def make_input(self, i):
        return self.pool[i % self.POOL], _seed_bits(self.rng)

    def call(self, inp):
        mat, seed = inp
        return serial_pvalue(mat, self._config(seed))

    def traced_call(self, inp, rec):
        mat, seed = inp
        return serial_pvalue(mat, self._config(seed, rec.wrap("bcmc.statistic", checkerboard_score)))

    def check(self, inp, p):
        check_serial(p, self.LENGTH, inp[0], self.ROWS, self.COLS)

    def digest_item(self, p):
        return f"{p!r};"

    @classmethod
    def layer_metrics(cls, t, rec, ops, extra):
        steps = ops * cls.LENGTH
        return {
            "bcmc.statistic_us": _mean(t, "bcmc.statistic") / 1e3,
            "bcmc.statistic_evals_per_step": t["bcmc.statistic"][0] / steps,
            "bcmc.chain_self_ns_per_step": t["op"][2] / steps,
        }


def _mean(totals, name):
    count, total, _ = totals[name]
    return total / count


WORKLOADS = {w.name: w for w in (CombineCold, ValidateN10, SubsampleRanksum, BcmcChain)}
