"""Command-line front end: CSV in, plain-text/CSV reports out.

Each command only computes: it returns its exit code, the report to print
and the report for its output file, if one was asked for.  `main` alone
probes the output path, resolves the seed, runs the command, writes the
file and prints, each through `_write_report`: '# key = value' metadata
lines, 'key = value' result lines at --precision significant digits, then
an optional CSV table with floats written %.10g.  A command that fails
leaves stdout empty and creates no output file.

Exit codes: 0 success, 1 a requested check did not come out as expected,
2 usage or data error, 3 internal numeric failure.  Every stochastic
command echoes its seed; re-running with the same seed reproduces the
output byte for byte.
"""

import argparse
import csv
import io
import os
import sys

import numpy as np

from .bcmc import ChainConfig, serial_pvalue
from .binom import _check_n
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

# Most histogram bins `subsample` accepts: np.histogram then peaks at about
# 32 MB, for bins + 1 float64 edges and bins int64 counts with their copies.
MAX_BINS = 2**20


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


def _read_rows(path):
    """Non-blank rows of a CSV file as (file line where the row starts, stripped fields).

    Blank lines and line breaks inside quoted fields count; a byte-order mark is dropped.
    """
    rows = []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        start = 1
        try:
            for row in reader:
                fields = [f.strip() for f in row]
                if any(fields):
                    rows.append((start, fields))
                start = reader.line_num + 1
        except csv.Error as exc:  # a field beyond the csv module's size limit
            raise ValueError(f"{path}: line {start}: {exc}") from None
        except UnicodeDecodeError as exc:  # the decoder knows no line
            raise ValueError(f"{path}: not UTF-8 text ({exc.reason})") from None
    if not rows:
        raise ValueError(f"{path}: empty file")
    return rows


def _is_number(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


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


def _score(path, lineno, fields):
    """A rank-sum observation: the row's one data field as a finite number."""
    if len(fields) != 1:
        raise ValueError(
            f"{path}: line {lineno}: the ranksum test needs exactly one "
            f"data column, got {len(fields)}"
        )
    return _to_float(path, lineno, fields[0])


def _bits(path, lineno, fields):
    """A bcmc observation: the row's data fields as a 0/1 int8 vector."""
    return np.asarray([_to_bit(path, lineno, f) for f in fields], dtype=np.int8)


def read_pvalues(path):
    """One p-value per row (a single CSV column); a non-numeric first row is a header."""
    rows = _read_rows(path)
    if not _is_number(rows[0][1][0]):
        del rows[0]
    values = []
    for lineno, (text, *rest) in rows:
        if any(rest):
            raise ValueError(f"{path}: line {lineno}: expected one p-value, got {1 + len(rest)} fields")
        value = _to_float(path, lineno, text)
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{path}: line {lineno}: value {text} outside [0, 1]")
        values.append(value)
    if not values:
        raise ValueError(f"{path}: no p-values found")
    return np.asarray(values)


def read_grouped_csv(path, group_col, convert):
    """Rows of a headered CSV, grouped by the named column (first-appearance order).

    Returns one list per group of ``convert(path, line, fields)``, `fields` without the group.
    """
    (header_line, header), *rows = _read_rows(path)
    if group_col not in header:
        raise ValueError(f"{path}: line {header_line}: no column named {group_col!r} in header {header}")
    if len(header) == 1:
        raise ValueError(f"{path}: line {header_line}: no data columns found beside {group_col!r}")
    gidx = header.index(group_col)
    groups = {}
    for lineno, fields in rows:
        if len(fields) != len(header):
            raise ValueError(f"{path}: line {lineno}: expected {len(header)} fields, got {len(fields)}")
        key = fields.pop(gidx)
        groups.setdefault(key, []).append(convert(path, lineno, fields))
    return list(groups.values())


def read_binary_matrix(path):
    """0/1 CSV matrix as int8, with optional header row and optional leading label column.

    The first row is a header when a field after its first is not a number
    (or its one field is not): a first field alone may be a row label.
    """
    rows = _read_rows(path)
    first = rows[0][1]
    if not all(map(_is_number, first[1:] or first)):
        del rows[0]
    if not rows:
        raise ValueError(f"{path}: no data rows")
    first_line, first = rows[0]
    skip = 0 if _is_number(first[0]) else 1  # the label column
    if len(first) == skip:
        raise ValueError(f"{path}: line {first_line}: no data columns found beside the label")
    data = []
    for lineno, fields in rows:
        data.append(_bits(path, lineno, fields[skip:]))
        if len(fields) != len(first):
            raise ValueError(f"{path}: line {lineno}: expected {len(first)} fields, got {len(fields)}")
    return np.asarray(data)


def _show(value, precision):
    """A result value as reported: floats at `precision`, tuples space-joined, the rest `str`."""
    if isinstance(value, tuple):
        return " ".join(_show(v, precision) for v in value)
    return format(value, f".{precision}g") if isinstance(value, float) else str(value)


def _write_report(fh, precision=None, metadata=(), results=(), table=None):
    """Write one report to `fh`: the only writer of report lines and tables.

    `metadata` pairs become '# key = value' lines, values as `str`; `results`
    pairs become 'key = value' lines through `_show`; `table` is an optional
    (header, rows) CSV block whose floats are written %.10g.
    """
    for key, value in metadata:
        fh.write(f"# {key} = {value}\n")
    for key, value in results:
        fh.write(f"{key} = {_show(value, precision)}\n")
    if table:
        header, rows = table
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(f"{v:.10g}" if isinstance(v, float) else str(v) for v in row) + "\n")


def _check_out(path):
    """Raise now the `OSError` that `main` would meet writing `path` after the run.

    The probe opens `path` for appending, which leaves an existing file as it
    is, and removes a file it created, so a failed run leaves no file behind.
    """
    if path:
        created = not os.path.lexists(path)
        with open(path, "a"):
            pass
        if created:
            os.remove(path)


# ---------------------------------------------------------------- commands
#
# Each returns (exit code, stdout report, file report or None), reports as
# `_write_report` keyword arguments; `main` has resolved `args.seed`.


def _cmd_fnk(args):
    spec = CombinerSpec.solve(args.n, args.k)
    # The envelope is linear in u below k/n, so its slopes are the bounds on
    # the correction; a power of two below 1/n keeps the division exact.
    probe = 2.0 ** -spec.n.bit_length()
    lower, upper = envelope(spec.n, spec.k, probe)
    results = [("n", spec.n), ("k", spec.k), ("knee", spec.knee), ("correction", spec.slope),
               ("correction_lower_bound", lower / probe), ("correction_upper_bound", upper / probe)]
    results += [(f"f({_show(u, args.precision)})", spec.apply(u)) for u in args.u or []]
    return EXIT_OK, dict(results=results), None


def _cmd_combine(args):
    res = combine_pvalues(read_pvalues(args.file), args.k)  # --median leaves k None
    return EXIT_OK, dict(results=[("n", res.n), ("k", res.k), ("order_stat", res.order_stat),
                                  ("summary", res.summary), ("bound", res.bound)]), None


def _cmd_validate(args):
    scan = tightness_scan(args.n, args.k, args.shrink, args.reps, args.seed)
    code = EXIT_OK if scan.any_violation == (args.shrink < 1.0) else EXIT_CHECK_FAILED
    report = dict(
        metadata=[("command", "validate"), ("n", args.n), ("k", args.k), ("reps", args.reps),
                  ("seed", args.seed), ("shrink", args.shrink)],
        table=("alpha,empirical_cdf,std_err,verdict", scan.rows()),
    )
    if not args.out:
        return code, report, None
    return code, dict(results=[("seed", args.seed), ("report", args.out),
                               ("violations", len(scan.violations))]), report


def _cmd_subsample(args):
    ranksum = args.test == "ranksum"
    data = GroupedDataset(read_grouped_csv(args.file, args.group_col, _score if ranksum else _bits))
    test = rank_sum_test if ranksum else make_bcmc_test(chain_length=args.chain_length)
    bins = _check_n(args.bins, "bins")
    if bins > MAX_BINS:
        raise ValueError(f"at most MAX_BINS = {MAX_BINS} histogram bins are supported, got {bins}")
    result = run_pipeline(data, test, args.n, k=args.k, seed=args.seed)
    sample = result.sample
    counts, edges = np.histogram(sample, bins, range=(0.0, 1.0))
    histogram = ("bin_left,bin_right,count", zip(edges[:-1], edges[1:], map(int, counts)))
    report = dict(
        metadata=[("command", "subsample"), ("seed", args.seed), ("test", args.test)],
        results=[("n", args.n), ("k", result.combined.k), ("m_groups", data.m),
                 ("quartiles", tuple(np.quantile(sample, [0.25, 0.5, 0.75]).tolist())),
                 ("maximum", float(sample.max())),
                 ("order_stat", result.combined.order_stat), ("summary", result.summary),
                 ("bound", result.combined.bound)],
    )
    if not args.out:
        return EXIT_OK, dict(report, table=histogram), None
    report["results"].append(("histogram", args.out))
    return EXIT_OK, report, dict(table=histogram)


def _cmd_bcmc(args):
    mat = read_binary_matrix(args.file)
    cfg = ChainConfig(length=args.chain_length, seed=args.seed)
    results = [("rows", mat.shape[0]), ("cols", mat.shape[1]),
               ("chain_length", args.chain_length), ("statistic", cfg.statistic.__name__)]
    saved = None
    if args.out:
        pvalue, trace = serial_pvalue(mat, cfg, return_trace=True)
        saved = dict(table=("t,statistic", enumerate(trace, start=1)))
        results.append(("trace", args.out))
    else:
        pvalue = serial_pvalue(mat, cfg)
    results.append(("pvalue", pvalue))
    return EXIT_OK, dict(metadata=[("command", "bcmc"), ("seed", args.seed)], results=results), saved


# ---------------------------------------------------------------- wiring


def _precision(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"precision must be an integer, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError("precision must be >= 0")
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="orderpv",
        description="Combine conditionally i.i.d. p-values through one order statistic.",
    )
    parser.set_defaults(out=None)
    subs = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--precision", type=_precision, default=6, metavar="DIGITS",
                        help="significant digits in numeric output (default 6)")
    seeded = argparse.ArgumentParser(add_help=False, parents=[common])
    seeded.add_argument("--seed", type=int, default=None,
                        help=f"master seed (default: ${SEED_ENV_VAR} or 0); echoed in output")

    p = subs.add_parser("fnk", parents=[common], help="solve the correction and evaluate it")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--u", type=float, nargs="*", metavar="U",
                   help="evaluate the corrected value at these order statistics")
    p.set_defaults(func=_cmd_fnk)

    p = subs.add_parser("combine", parents=[common], help="combine a file of p-values")
    p.add_argument("file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--k", type=int)
    group.add_argument("--median", action="store_true",
                       help="use the left sample median index floor((n+1)/2)")
    p.set_defaults(func=_cmd_combine)

    p = subs.add_parser("validate", parents=[seeded], help="Monte Carlo validity / tightness check")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--reps", type=int, required=True)
    p.add_argument("--shrink", type=float, default=1.0,
                   help="scale the correction by this factor; < 1 expects violations")
    p.add_argument("--out", metavar="FILE", help="write the report CSV here instead of stdout")
    p.set_defaults(func=_cmd_validate)

    p = subs.add_parser("subsample", parents=[seeded], help="one-per-group subsampling pipeline")
    p.add_argument("file", help="CSV with a group column and data columns")
    p.add_argument("--group-col", required=True, metavar="NAME")
    p.add_argument("--test", choices=["ranksum", "bcmc"], default="ranksum")
    p.add_argument("--n", type=int, required=True, help="number of subsample repetitions")
    p.add_argument("--k", type=int, default=None,
                   help="order statistic index (default: the left median of --n)")
    p.add_argument("--bins", type=int, default=20, help="histogram bins on [0,1] (default 20)")
    p.add_argument("--hist-out", dest="out", metavar="FILE", help="write the histogram CSV here")
    p.add_argument("--chain-length", type=int, default=1000,
                   help="chain length for --test bcmc (default 1000)")
    p.set_defaults(func=_cmd_subsample)

    p = subs.add_parser("bcmc", parents=[seeded],
                        help="serial Monte Carlo association test on a 0/1 matrix")
    p.add_argument("file", help="CSV of 0/1 values, optional header and label column")
    p.add_argument("--chain-length", type=int, default=10_000)
    p.add_argument("--trace-out", dest="out", metavar="FILE",
                   help="write the statistic trace CSV here")
    p.set_defaults(func=_cmd_bcmc)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        _check_out(args.out)
        if "seed" in args:
            args.seed = _resolve_seed(args.seed)
        code, report, saved = args.func(args)
        if saved is not None:
            with open(args.out, "w") as fh:
                _write_report(fh, **saved)
        text = io.StringIO()  # a report that fails to format prints nothing
        _write_report(text, args.precision, **report)
        sys.stdout.write(text.getvalue())
        return code
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
