"""Command-line front end: CSV in, plain-text/CSV reports out.

Exit codes: 0 success, 1 a requested check did not come out as expected,
2 usage or data error, 3 internal numeric failure.  Every stochastic
command echoes its seed; re-running with the same seed reproduces the
output byte for byte, and `validate` gives the same bytes whatever its
--threads says.
"""

import argparse
import csv
import os
import sys

import numpy as np

from .bcmc import ChainConfig, serial_pvalue
from .combine import combine_pvalues
from .correction import CombinerSpec, envelope
from .rngs import check_seed
from .subsample import GroupedDataset, make_bcmc_test, rank_sum_test, run_pipeline
from .validity import tightness_scan

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3

SEED_ENV_VAR = "ORDERPV_SEED"


def _fmt(value, precision):
    return format(float(value), f".{precision}g")


def _resolve_seed(arg_seed):
    if arg_seed is not None:
        return check_seed(arg_seed)
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return check_seed(int(env))
        except ValueError as exc:
            raise ValueError(f"{SEED_ENV_VAR}={env!r}: {exc}") from exc
    return 0


# ---------------------------------------------------------------- parsing


def read_pvalues(path):
    """One p-value per line (or a single CSV column, optional header)."""
    values = []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        for lineno, raw in enumerate(fh, start=1):
            text = raw.strip().rstrip(",")
            if not text:
                continue
            try:
                value = float(text)
            except ValueError:
                if lineno == 1 and not values:
                    continue  # header line
                raise ValueError(f"{path}: line {lineno}: cannot parse {text!r} as a p-value")
            if np.isnan(value) or not 0.0 <= value <= 1.0:
                raise ValueError(f"{path}: line {lineno}: value {text} outside [0, 1]")
            values.append(value)
    if not values:
        raise ValueError(f"{path}: no p-values found")
    return np.asarray(values)


def read_grouped_csv(path, group_col):
    """Rows of a headered CSV, grouped by the named column (first-appearance order).

    Returns the groups: one list per group of (line number, data-field tuple)
    pairs, the fields being strings without the group column.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if group_col not in header:
            raise ValueError(f"{path}: no column named {group_col!r} in header {header}")
        gidx = header.index(group_col)
        groups = {}
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not f.strip() for f in row):
                continue
            if len(row) != len(header):
                raise ValueError(f"{path}: line {lineno}: expected {len(header)} fields, got {len(row)}")
            key = row[gidx].strip()
            fields = tuple(f.strip() for i, f in enumerate(row) if i != gidx)
            groups.setdefault(key, []).append((lineno, fields))
    return list(groups.values())


def _to_float(path, lineno, text):
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"{path}: line {lineno}: cannot parse {text!r} as a number") from None
    if not np.isfinite(value):
        raise ValueError(f"{path}: line {lineno}: non-finite value {text!r}")
    return value


def _to_bit(path, lineno, text):
    value = _to_float(path, lineno, text)
    if value not in (0.0, 1.0):
        raise ValueError(f"{path}: line {lineno}: non-binary entry {text!r}")
    return int(value)


def read_binary_matrix(path):
    """0/1 CSV matrix as int8, with optional header row and optional leading label column."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        rows = [row for row in csv.reader(fh) if row and any(f.strip() for f in row)]
    if not rows:
        raise ValueError(f"{path}: empty file")

    def _all_numeric(row):
        for f in row:
            try:
                float(f)
            except ValueError:
                return False
        return True

    start = 0 if _all_numeric(rows[0]) else 1
    if start == len(rows):
        raise ValueError(f"{path}: no data rows")
    has_label = not _all_numeric(rows[start][:1])
    data = []
    for offset, row in enumerate(rows[start:], start=start + 1):
        fields = row[1:] if has_label else row
        data.append([_to_bit(path, offset, f) for f in fields])
    widths = {len(r) for r in data}
    if len(widths) != 1:
        raise ValueError(f"{path}: ragged rows, widths {sorted(widths)}")
    return np.asarray(data, dtype=np.int8)


# ---------------------------------------------------------------- commands


def _cmd_fnk(args):
    prec = args.precision
    spec = CombinerSpec.solve(args.n, args.k)
    # The envelope is linear in u below k/n, so its slopes are the bounds on
    # the correction; a power of two below 1/n keeps the division exact.
    probe = 2.0 ** -spec.n.bit_length()
    lower, upper = envelope(spec.n, spec.k, probe)
    print(f"n = {spec.n}")
    print(f"k = {spec.k}")
    print(f"knee = {_fmt(spec.knee, prec)}")
    print(f"correction = {_fmt(spec.slope, prec)}")
    print(f"correction_lower_bound = {_fmt(lower / probe, prec)}")
    print(f"correction_upper_bound = {_fmt(upper / probe, prec)}")
    for u in args.u or []:
        print(f"f({_fmt(u, prec)}) = {_fmt(spec.apply(u), prec)}")
    return EXIT_OK


def _cmd_combine(args):
    prec = args.precision
    res = combine_pvalues(read_pvalues(args.file), args.k)  # --median leaves k None
    print(f"n = {res.n}")
    print(f"k = {res.k}")
    print(f"order_stat = {_fmt(res.order_stat, prec)}")
    print(f"summary = {_fmt(res.summary, prec)}")
    print(f"bound = {_fmt(res.bound, prec)}")
    return EXIT_OK


def _cmd_validate(args):
    seed = _resolve_seed(args.seed)
    report = tightness_scan(args.n, args.k, args.shrink, args.reps, seed, threads=args.threads)
    metadata = {
        "command": "validate",
        "n": args.n,
        "k": args.k,
        "reps": args.reps,
        "seed": seed,
        "shrink": args.shrink,
    }
    if args.out:
        with open(args.out, "w") as fh:
            report.write_csv(fh, metadata)
        print(f"seed = {seed}")
        print(f"report = {args.out}")
        print(f"violations = {len(report.violations)}")
    else:
        report.write_csv(sys.stdout, metadata)
    expect_violation = args.shrink < 1.0
    return EXIT_OK if report.any_violation == expect_violation else EXIT_CHECK_FAILED


def _make_ranksum_observations(path, raw_groups):
    groups = []
    for block in raw_groups:
        obs = []
        for lineno, fields in block:
            if len(fields) != 1:
                raise ValueError(
                    f"{path}: line {lineno}: the ranksum test needs exactly one "
                    f"data column, got {len(fields)}"
                )
            obs.append(_to_float(path, lineno, fields[0]))
        groups.append(obs)
    return groups


def _make_bcmc_observations(path, raw_groups):
    groups = []
    for block in raw_groups:
        obs = []
        for lineno, fields in block:
            obs.append(np.asarray([_to_bit(path, lineno, f) for f in fields], dtype=np.int8))
        groups.append(obs)
    return groups


def _cmd_subsample(args):
    prec = args.precision
    seed = _resolve_seed(args.seed)
    raw_groups = read_grouped_csv(args.file, args.group_col)
    if args.test == "ranksum":
        data = GroupedDataset(_make_ranksum_observations(args.file, raw_groups))
        test = rank_sum_test
    else:
        data = GroupedDataset(_make_bcmc_observations(args.file, raw_groups))
        test = make_bcmc_test(chain_length=args.chain_length)
    result = run_pipeline(data, test, args.n, k=args.k, seed=seed, bins=args.bins)
    print("# command = subsample")
    print(f"# seed = {seed}")
    print(f"# test = {args.test}")
    print(f"n = {args.n}")
    print(f"k = {result.combined.k}")
    print(f"m_groups = {data.m}")
    q1, q2, q3 = result.quartiles
    print(f"quartiles = {_fmt(q1, prec)} {_fmt(q2, prec)} {_fmt(q3, prec)}")
    print(f"maximum = {_fmt(result.maximum, prec)}")
    print(f"order_stat = {_fmt(result.combined.order_stat, prec)}")
    print(f"summary = {_fmt(result.summary, prec)}")
    print(f"bound = {_fmt(result.combined.bound, prec)}")

    def _write_hist(fh):
        fh.write("bin_left,bin_right,count\n")
        for left, right, count in zip(
            result.bin_edges[:-1], result.bin_edges[1:], result.bin_counts
        ):
            fh.write(f"{left:.10g},{right:.10g},{int(count)}\n")

    if args.hist_out:
        with open(args.hist_out, "w") as fh:
            _write_hist(fh)
        print(f"histogram = {args.hist_out}")
    else:
        _write_hist(sys.stdout)
    return EXIT_OK


def _cmd_bcmc(args):
    prec = args.precision
    seed = _resolve_seed(args.seed)
    mat = read_binary_matrix(args.file)
    cfg = ChainConfig(length=args.chain_length, seed=seed)
    if args.trace_out:
        pvalue, trace = serial_pvalue(mat, cfg, return_trace=True)
        with open(args.trace_out, "w") as fh:
            fh.write("t,statistic\n")
            for t, value in enumerate(trace, start=1):
                fh.write(f"{t},{value:.10g}\n")
    else:
        pvalue = serial_pvalue(mat, cfg)
    print("# command = bcmc")
    print(f"# seed = {seed}")
    print(f"rows = {mat.shape[0]}")
    print(f"cols = {mat.shape[1]}")
    print(f"chain_length = {args.chain_length}")
    print(f"statistic = {cfg.statistic.__name__}")
    if args.trace_out:
        print(f"trace = {args.trace_out}")
    print(f"pvalue = {_fmt(pvalue, prec)}")
    return EXIT_OK


# ---------------------------------------------------------------- wiring


def _precision(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"precision must be an integer, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError("precision must be >= 0")
    return value


def _add_common(sub):
    sub.add_argument("--precision", type=_precision, default=6, metavar="DIGITS",
                     help="significant digits in numeric output (default 6)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="orderpv",
        description="Combine conditionally i.i.d. p-values through one order statistic.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("fnk", help="solve the correction and evaluate it")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--u", type=float, nargs="*", metavar="U",
                   help="evaluate the corrected value at these order statistics")
    _add_common(p)
    p.set_defaults(func=_cmd_fnk)

    p = subs.add_parser("combine", help="combine a file of p-values")
    p.add_argument("file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--k", type=int)
    group.add_argument("--median", action="store_true",
                       help="use the left sample median index floor((n+1)/2)")
    _add_common(p)
    p.set_defaults(func=_cmd_combine)

    p = subs.add_parser("validate", help="Monte Carlo validity / tightness check")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--reps", type=int, required=True)
    p.add_argument("--seed", type=int, default=None,
                   help=f"master seed (default: ${SEED_ENV_VAR} or 0); echoed in output")
    p.add_argument("--shrink", type=float, default=1.0,
                   help="scale the correction by this factor; < 1 expects violations")
    p.add_argument("--out", metavar="FILE", help="write the report CSV here instead of stdout")
    p.add_argument("--threads", type=int, default=1,
                   help="worker threads (>= 1); never changes the result")
    _add_common(p)
    p.set_defaults(func=_cmd_validate)

    p = subs.add_parser("subsample", help="one-per-group subsampling pipeline")
    p.add_argument("file", help="CSV with a group column and data columns")
    p.add_argument("--group-col", required=True, metavar="NAME")
    p.add_argument("--test", choices=["ranksum", "bcmc"], default="ranksum")
    p.add_argument("--n", type=int, required=True, help="number of subsample repetitions")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--k", type=int, default=None)
    group.add_argument("--median", action="store_true",
                       help="use the left sample median index (the default)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--bins", type=int, default=20, help="histogram bins on [0,1] (default 20)")
    p.add_argument("--hist-out", metavar="FILE", help="write the histogram CSV here")
    p.add_argument("--chain-length", type=int, default=1000,
                   help="chain length for --test bcmc (default 1000)")
    _add_common(p)
    p.set_defaults(func=_cmd_subsample)

    p = subs.add_parser("bcmc", help="serial Monte Carlo association test on a 0/1 matrix")
    p.add_argument("file", help="CSV of 0/1 values, optional header and label column")
    p.add_argument("--chain-length", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--trace-out", metavar="FILE", help="write the statistic trace CSV here")
    _add_common(p)
    p.set_defaults(func=_cmd_bcmc)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # numeric failure somewhere below
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_NUMERIC


def entrypoint():
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
