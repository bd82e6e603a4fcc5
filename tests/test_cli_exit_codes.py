"""Exit codes of the CLI on generated, often malformed, input.

Every run must end in exit 0 or exit 2 (usage or data error) with an
``error:`` line on stderr and nothing on stdout; `validate` may also exit 1 (its check did not come
out as expected).  Exit 3 (internal numeric failure) means some bad input
slipped past the checks.  About half of the inputs are well formed, so the
success path runs too.  A last property writes one table in many CSV
layouts and requires the same output from each, and an error that names the
file line of a planted bad cell.  Sizes stay small (--n, --bins and
--chain-length at most 50, --reps at most 2000) so that no example is slow.
One test runs `python -m orderpv.cli` in a subprocess and checks that exits
0, 1 and 2 reach the shell through `entrypoint` with the output of `main`.
"""

import contextlib
import csv
import io
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orderpv import cli

EXIT_SETTINGS = settings(max_examples=120, deadline=None)

BOM = "\ufeff"
# Cells of malformed input: out-of-range and non-binary numbers, non-finite
# values, words and empty fields, beside valid ones.
BAD_CELLS = ["0", "1", "0.25", "2", "-1", "1.5", "nan", "inf", "-inf", "abc", "", " 1 "]
sizes = st.integers(min_value=-1, max_value=50)
chain_lengths = st.integers(min_value=0, max_value=50)


def call(argv):
    """Run the CLI on `argv`; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse refused the arguments
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def run(argv, text, bom):
    """Run the CLI on `text` written to a file; returns (exit code, stdout, stderr)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(BOM + text if bom else text)
        code, out, err = call([argv[0], path, *argv[1:]])
    return code, out, err.replace(path, "INPUT")


def check_exit(code, out, err, ok=(0,)):
    assert code in (*ok, 2), (code, err)
    if code == 2:
        assert "error:" in err, err
        assert out == "", out


@pytest.mark.parametrize("argv,expected", [
    (["fnk", "--n", "1000", "--k", "500"], 0),
    (["validate", "--n", "10", "--k", "5", "--reps", "2000", "--seed", "3", "--shrink", "0.999"], 1),
    (["fnk", "--n", "3", "--k", "9"], 2),
], ids=["exit-0", "exit-1", "exit-2"])
def test_module_run_exits_with_the_code_of_main(argv, expected):
    # `python -m orderpv.cli` goes through `entrypoint`, as the console script does
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-m", "orderpv.cli", *argv], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path), timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == call(argv)
    assert done.returncode == expected


@st.composite
def table(draw, good_cells, width, max_rows=8, label=None):
    """CSV rows: well formed (`good_cells`, `width` wide) or malformed (ragged, bad cells)."""
    good = draw(st.booleans())
    alphabet = st.sampled_from(good_cells if good else BAD_CELLS)
    lines = []
    for i in range(draw(st.integers(0, max_rows))):
        w = width if good else draw(st.integers(0, width + 2))
        fields = draw(st.lists(alphabet, min_size=w, max_size=w))
        lines.append(",".join(([label(i)] if label else []) + fields) + "\n")
    return "".join(lines)


@EXIT_SETTINGS
@given(
    n=sizes,
    k=sizes,
    us=st.lists(st.sampled_from(["nan", "inf", "-1", "-0.0", "0", "0.5", "1", "1.4"]),
                max_size=4),
    # large precisions that format are slow and big; 10**10 fails to format
    precision=st.sampled_from([-1, 0, 1, 6, 17, 10**10]),
)
def test_fnk(n, k, us, precision):
    check_exit(*call(["fnk", "--n", str(n), "--k", str(k), "--u", *us,
                      "--precision", str(precision)]))


@EXIT_SETTINGS
@given(
    header=st.sampled_from(["", "pvalue\n"]),
    body=table(["0", "0.25", "0.5", "1"], width=1),
    k=st.one_of(st.none(), sizes),
    bom=st.booleans(),
)
def test_combine(header, body, k, bom):
    argv = ["combine", "--median"] if k is None else ["combine", "--k", str(k)]
    check_exit(*run(argv, header + body, bom))


@st.composite
def grouped_csv(draw, test):
    """A header with group column `g`; rows keyed by one, three or four groups."""
    width = 1 if test == "ranksum" else draw(st.integers(1, 4))
    cells = ["0.1", "0.7", "3"] if test == "ranksum" else ["0", "1"]
    keys = draw(st.sampled_from(["a", "abc", "abcd"]))
    body = draw(table(cells, width, max_rows=12,
                      label=lambda i: keys[draw(st.integers(0, len(keys) - 1))]))
    return "g," + ",".join(f"x{j}" for j in range(width)) + "\n" + body


@EXIT_SETTINGS
@given(
    data=st.data(),
    test=st.sampled_from(["ranksum", "bcmc"]),
    n=sizes,
    k=st.one_of(st.none(), sizes),
    chain_length=chain_lengths,
    bins=sizes,
    bom=st.booleans(),
)
def test_subsample(data, test, n, k, chain_length, bins, bom):
    argv = ["subsample", "--group-col", "g", "--test", test, "--n", str(n),
            "--chain-length", str(chain_length), "--bins", str(bins), "--seed", "1"]
    if k is not None:
        argv += ["--k", str(k)]
    check_exit(*run(argv, data.draw(grouped_csv(test)), bom))


@EXIT_SETTINGS
@given(
    header=st.sampled_from(["", "a,b,c\n"]),
    labels=st.booleans(),
    width=st.integers(1, 4),
    data=st.data(),
    chain_length=chain_lengths,
    bom=st.booleans(),
)
def test_bcmc(header, labels, width, data, chain_length, bom):
    body = data.draw(table(["0", "1"], width, label=(lambda i: f"r{i}") if labels else None))
    check_exit(*run(["bcmc", "--chain-length", str(chain_length), "--seed", "2"],
                    header + body, bom))


@EXIT_SETTINGS
@given(
    data=st.data(),
    n=sizes,
    reps=st.integers(-1, 2000),
    shrink=st.sampled_from(["nan", "inf", "-1", "0", "0.5", "1", "1.5"]),
)
def test_validate(data, n, reps, shrink):
    k = data.draw(st.one_of(sizes, st.integers(1, max(n, 1))))  # often in 1..n
    argv = ["validate", "--n", str(n), "--k", str(k), "--reps", str(reps),
            "--shrink", shrink, "--seed", "4"]
    check_exit(*call(argv), ok=(0, 1))


# Per command: its arguments, a header, a row maker (index, draw) -> fields,
# the columns a bad cell may go in, and the bad cells.
LAYOUT_COMMANDS = {
    "combine": (["combine", "--median"], ["pvalue"],
                lambda i, draw: [draw(st.sampled_from(["0.1", "0.25", "0.5", "1"]))],
                [0], ["1.5", "-0.1", "nan", "abc"]),
    "subsample": (["subsample", "--group-col", "g", "--n", "20", "--seed", "1"], ["g", "score"],
                  lambda i, draw: [draw(st.sampled_from(["a", "b", "c\nd"])) if i > 1 else "ab"[i],
                                   draw(st.sampled_from(["0.1", "0.7", "3"]))],
                  [1], ["nan", "inf", "abc", ""]),
    "bcmc": (["bcmc", "--chain-length", "20", "--seed", "2"], ["id", "a", "b", "c"],
             lambda i, draw: [f"r{i}\nx" if draw(st.booleans()) else f"r{i}",
                              *draw(st.lists(st.sampled_from("01"), min_size=3, max_size=3))],
             [1, 2, 3], ["2", "0.5", "nan", "abc"]),
}


def write_layout(rows, quoting, lineterminator, blanks):
    """`rows` in one CSV layout; returns the text and the file line each row starts on."""
    buf = io.StringIO()
    writer = csv.writer(buf, quoting=quoting, lineterminator=lineterminator)
    starts = []
    for row, gap in zip(rows, blanks):
        buf.write(lineterminator * gap)
        starts.append(buf.getvalue().count("\n") + 1)
        writer.writerow(row)
    return buf.getvalue(), starts


@settings(max_examples=60, deadline=None)
@given(
    command=st.sampled_from(sorted(LAYOUT_COMMANDS)),
    data=st.data(),
    quoting=st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL]),
    lineterminator=st.sampled_from(["\n", "\r\n"]),
    bom=st.booleans(),
)
def test_layouts_read_alike_and_errors_name_the_file_line(command, data, quoting, lineterminator,
                                                           bom):
    argv, header, make_row, bad_columns, bad_cells = LAYOUT_COMMANDS[command]
    rows = [header] + [make_row(i, data.draw) for i in range(data.draw(st.integers(2, 6)))]
    blanks = data.draw(st.lists(st.integers(0, 2), min_size=len(rows), max_size=len(rows)))
    plain, _ = write_layout(rows, csv.QUOTE_MINIMAL, "\n", [0] * len(rows))
    text, _ = write_layout(rows, quoting, lineterminator, blanks)
    expected = run(argv, plain, bom=False)
    assert expected[0] == 0, expected
    assert run(argv, text, bom) == expected

    i = data.draw(st.integers(1, len(rows) - 1))
    rows[i][data.draw(st.sampled_from(bad_columns))] = data.draw(st.sampled_from(bad_cells))
    text, starts = write_layout(rows, quoting, lineterminator, blanks)
    code, out, err = run(argv, text, bom)
    assert code == 2 and out == ""
    assert err.startswith(f"error: INPUT: line {starts[i]}: "), (err, text)
