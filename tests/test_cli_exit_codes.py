"""Exit codes of the CLI on generated, often malformed, CSV input.

Every run must end in exit 0 or exit 2 (usage or data error) with an
``error:`` line on stderr; exit 3 (internal numeric failure) means some bad
input slipped past the checks.  About half of the inputs are well formed, so
the success path runs too.  Sizes stay small (--n and --chain-length at most
50) so that no example is slow.
"""

import contextlib
import io
import os
import tempfile

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


def run(argv, text, bom):
    """Run the CLI on `text` written to a file; returns (exit code, stderr)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(BOM + text if bom else text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main([argv[0], path, *argv[1:]])
            except SystemExit as exc:  # argparse refused the arguments
                code = exc.code
    return code, err.getvalue()


def check_exit(code, err):
    assert code in (0, 2), (code, err)
    if code == 2:
        assert "error:" in err, err


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
    bom=st.booleans(),
)
def test_subsample(data, test, n, k, chain_length, bom):
    argv = ["subsample", "--group-col", "g", "--test", test, "--n", str(n),
            "--chain-length", str(chain_length), "--seed", "1"]
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

