from pathlib import Path

import numpy as np
import pytest

from orderpv import bcmc, cli, generate_null_matrix, subsample
from orderpv.subsample import RANK_SUM_MAX_GROUPS
from orderpv.validity import DEFAULT_ALPHA_GRID


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_cli_usage_error(capsys, *argv):
    """argparse rejects the arguments: exit 2 before anything is printed."""
    with pytest.raises(SystemExit) as info:
        cli.main(list(argv))
    captured = capsys.readouterr()
    return info.value.code, captured.out, captured.err


def write_pvalues(path, values, header=None):
    lines = ([header] if header else []) + [f"{v}" for v in values]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def write_grouped(path, rows, header="day,score"):
    path.write_text(header + "\n" + "\n".join(",".join(map(str, r)) for r in rows) + "\n")
    return str(path)


class TestFnk:
    def test_reference_constant(self, capsys):
        code, out, _ = run_cli(capsys, "fnk", "--n", "1000", "--k", "500")
        assert code == 0
        assert "correction = 1.84632" in out
        assert "correction_upper_bound = 2" in out

    def test_identity_constant(self, capsys):
        code, out, _ = run_cli(capsys, "fnk", "--n", "10", "--k", "10")
        assert code == 0
        assert "correction = 1\n" in out

    def test_evaluations(self, capsys):
        code, out, _ = run_cli(capsys, "fnk", "--n", "3", "--k", "1", "--u", "0.2")
        assert code == 0
        assert "f(0.2) = 0.488" in out

    def test_precision_flag(self, capsys):
        code, out, _ = run_cli(capsys, "fnk", "--n", "1000", "--k", "500", "--precision", "10")
        assert code == 0
        assert "correction = 1.846322926" in out

    def test_bad_parameters_exit_two(self, capsys):
        code, _, err = run_cli(capsys, "fnk", "--n", "3", "--k", "9")
        assert code == 2 and "error" in err
        code, _, err = run_cli(capsys, "fnk", "--n", "3", "--k", "1", "--u", "1.4")
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["fnk", "--n", "100000000000000000", "--k", "50000000000000000"],
        ["fnk", "--n", "10000000000000", "--k", "3"],
        ["fnk", "--n", str(2**1100), "--k", "2"],
        ["validate", "--n", "10000000000000", "--k", "3", "--reps", "10", "--seed", "1"],
        ["validate", "--n", str(2**70), "--k", "3", "--reps", "10", "--seed", "1"],
    ], ids=["knee-at-bracket-end", "slope-low", "huge-n", "validate-slope-low", "validate-n-2^70"])
    def test_n_beyond_the_float_tail_exits_two(self, capsys, argv):
        # these printed a correction below its lower bound, or exited 3
        # with OverflowError
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ")

    def test_bad_evaluation_leaves_stdout_empty(self, capsys):
        # the report is printed only once every value is computed
        code, out, err = run_cli(capsys, "fnk", "--n", "3", "--k", "1", "--u", "0.2", "1.4")
        assert code == 2 and out == ""
        assert "error: u must lie in [0, 1]" in err

    def test_negative_precision_exit_two_before_output(self, capsys):
        code, out, err = run_cli_usage_error(capsys, "fnk", "--n", "10", "--k", "5",
                                             "--precision", "-3")
        assert code == 2 and out == ""
        assert "precision must be >= 0" in err

    def test_non_integral_precision_exit_two_before_output(self, capsys):
        code, out, err = run_cli_usage_error(capsys, "fnk", "--n", "10", "--k", "5",
                                             "--precision", "abc")
        assert code == 2 and out == ""
        assert "precision must be an integer, got 'abc'" in err

    def test_report_that_fails_to_format_leaves_stdout_empty(self, capsys):
        # n and k format at any precision; the floats after them do not
        code, out, err = run_cli(capsys, "fnk", "--n", "10", "--k", "5",
                                 "--precision", "10000000000")
        assert code == 2 and out == ""
        assert "error: precision too big" in err


class TestCombine:
    def test_reference_file(self, tmp_path, capsys):
        values = [0.01] * 499 + [0.03] + [0.5] * 500
        path = write_pvalues(tmp_path / "p.csv", values, header="pvalue")
        code, out, _ = run_cli(capsys, "combine", path, "--k", "500")
        assert code == 0
        assert "summary = 0.0553897" in out
        assert "bound = 0.06" in out

    def test_single_value_identity(self, tmp_path, capsys):
        path = write_pvalues(tmp_path / "p.csv", [0.42])
        code, out, _ = run_cli(capsys, "combine", path, "--k", "1")
        assert code == 0
        assert "summary = 0.42" in out

    def test_median_flag(self, tmp_path, capsys):
        path = write_pvalues(tmp_path / "p.csv", [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7])
        code, out, _ = run_cli(capsys, "combine", path, "--median")
        assert code == 0
        assert "k = 4" in out

    def test_parse_error_names_line(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("0.5\nnot-a-number\n0.2\n")
        code, _, err = run_cli(capsys, "combine", str(path), "--k", "1")
        assert code == 2
        assert "line 2" in err

    def test_non_finite_value_names_line(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("0.5\nnan\n0.2\n")
        code, out, err = run_cli(capsys, "combine", str(path), "--k", "1")
        assert code == 2 and out == ""
        assert f"error: {path}: line 2: non-finite value 'nan'" in err

    def test_out_of_range_names_line(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("0.5\n1.5\n")
        code, _, err = run_cli(capsys, "combine", str(path), "--k", "1")
        assert code == 2
        assert "line 2" in err

    def test_missing_file_exit_two(self, capsys):
        code, _, err = run_cli(capsys, "combine", "/nonexistent.csv", "--k", "1")
        assert code == 2

    def test_byte_order_mark_is_not_a_header(self, tmp_path, capsys):
        path = tmp_path / "p.csv"
        path.write_bytes(b"\xef\xbb\xbf0.3\n0.5\n")
        code, out, _ = run_cli(capsys, "combine", str(path), "--k", "1")
        assert code == 0
        assert "n = 2\n" in out and "order_stat = 0.3\n" in out

    def test_quoted_first_value_is_not_a_header(self, tmp_path, capsys):
        path = tmp_path / "p.csv"
        path.write_text('"0.3"\n0.5\n')
        code, out, err = run_cli(capsys, "combine", str(path), "--k", "1")
        assert code == 0, err
        assert "n = 2\n" in out and "order_stat = 0.3\n" in out
        path.write_text('0.3\n"0.5"\n')
        _, out_later, _ = run_cli(capsys, "combine", str(path), "--k", "1")
        assert out_later == out

    def test_header_after_blank_lines(self, tmp_path, capsys):
        path = tmp_path / "p.csv"
        path.write_text("\n\npvalue\n0.3\n\n0.5\nbad\n")
        code, _, err = run_cli(capsys, "combine", str(path), "--k", "1")
        assert code == 2 and f"{path}: line 7: cannot parse 'bad'" in err
        path.write_text("\n\npvalue\n0.3\n\n0.5\n")
        code, out, _ = run_cli(capsys, "combine", str(path), "--k", "1")
        assert code == 0 and "n = 2\n" in out

    def test_two_values_on_one_row_exit_two(self, tmp_path, capsys):
        path = tmp_path / "p.csv"
        path.write_text("0.3\n0.5,0.2\n0.4,\n")
        code, _, err = run_cli(capsys, "combine", str(path), "--k", "1")
        assert code == 2 and f"{path}: line 2: expected one p-value, got 2 fields" in err

    def test_non_utf8_file_names_the_file(self, tmp_path, capsys):
        path = tmp_path / "p.csv"
        path.write_bytes(b"0.3\n0.5\n\xff\n")
        code, out, err = run_cli(capsys, "combine", str(path), "--median")
        assert code == 2 and out == ""
        assert err == f"error: {path}: not UTF-8 text (invalid start byte)\n"

    def test_k_and_median_together_exit_two(self, tmp_path, capsys):
        path = write_pvalues(tmp_path / "p.csv", [0.1, 0.2])
        code, out, err = run_cli_usage_error(capsys, "combine", path, "--k", "1", "--median")
        assert code == 2 and out == "" and "not allowed with" in err


class TestValidate:
    @pytest.mark.parametrize("n,k,reps,seed", [
        ("10", "5", "20000", "42"),
        # through the strided CDF table of the worst-case kernel
        ("10000000000", "5000000000", "20000", "1"),
    ], ids=["n-10", "n-10^10"])
    def test_consistent_run_exits_zero(self, capsys, n, k, reps, seed):
        code, out, _ = run_cli(
            capsys, "validate", "--n", n, "--k", k, "--reps", reps, "--seed", seed
        )
        assert code == 0
        assert f"# seed = {seed}" in out
        assert "alpha,empirical_cdf,std_err,verdict" in out
        assert "violation" not in out.replace("violations", "")

    @pytest.mark.parametrize("n,k,reps,seed,shrink", [
        ("10", "5", "50000", "7", "0.8"),
        ("1000", "500", "1000000", "1", "0.9"),
    ], ids=["n-10", "n-1000"])
    def test_shrink_finds_violations_and_exits_zero(self, capsys, n, k, reps, seed, shrink):
        code, out, _ = run_cli(
            capsys, "validate", "--n", n, "--k", k, "--reps", reps,
            "--seed", seed, "--shrink", shrink,
        )
        assert code == 0
        assert "violation" in out

    def test_undetectable_shrink_exits_one(self, capsys):
        # shrink barely below 1 cannot be detected at tiny reps: check fails
        code, _, _ = run_cli(
            capsys, "validate", "--n", "10", "--k", "5", "--reps", "2000",
            "--seed", "3", "--shrink", "0.999",
        )
        assert code == 1

    def test_out_file_byte_identical_across_runs(self, tmp_path, capsys):
        out_path = tmp_path / "report.csv"
        args = [
            "validate", "--n", "5", "--k", "2", "--reps", "10000",
            "--seed", "9", "--out", str(out_path),
        ]
        code, out, _ = run_cli(capsys, *args)
        assert code == 0 and "seed = 9" in out
        first = out_path.read_bytes()
        run_cli(capsys, *args)
        assert out_path.read_bytes() == first

    def test_env_seed_is_used_and_echoed(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.SEED_ENV_VAR, "314")
        code, out, _ = run_cli(capsys, "validate", "--n", "4", "--k", "2", "--reps", "5000")
        assert code == 0
        assert "# seed = 314" in out

    def test_thread_count_below_one_exit_two(self, capsys):
        # --threads is gone, so argparse refuses any count
        for threads in ("0", "-2"):
            code, out, err = run_cli_usage_error(
                capsys, "validate", "--n", "4", "--k", "2", "--reps", "100",
                "--threads", threads,
            )
            assert code == 2 and out == ""
            assert f"unrecognized arguments: --threads {threads}" in err

    def test_threads_option_is_gone(self, capsys):
        code, out, err = run_cli_usage_error(
            capsys, "validate", "--n", "4", "--k", "2", "--reps", "100", "--threads", "2",
        )
        assert code == 2 and out == ""
        assert "unrecognized arguments: --threads 2" in err

    def test_report_csv_layout(self, capsys):
        code, out, _ = run_cli(capsys, "validate", "--n", "2", "--k", "1", "--reps", "1000",
                               "--seed", "5")
        assert code == 0
        lines = out.strip().splitlines()
        metadata = ["# command = validate", "# n = 2", "# k = 1", "# reps = 1000",
                    "# seed = 5", "# shrink = 1.0"]
        assert lines[:6] == metadata
        assert lines[6] == "alpha,empirical_cdf,std_err,verdict"
        assert len(lines) == 7 + DEFAULT_ALPHA_GRID.size

    def test_plan_of_large_n_runs(self, capsys):
        # the worst-case kernel holds O(1) a replication whatever n, so no
        # (CHUNK, n) block of draws is ever made
        code, out, err = run_cli(capsys, "validate", "--n", "100000", "--k", "50000",
                                 "--reps", "100000")
        assert code == 0 and err == ""
        assert "# n = 100000" in out

    def test_bad_shrink_exit_two(self, capsys):
        code, _, _ = run_cli(
            capsys, "validate", "--n", "4", "--k", "2", "--reps", "100", "--shrink", "1.5"
        )
        assert code == 2


class TestSubsample:
    @staticmethod
    def grouped_rows(rng, days=8, per_day=3):
        rows = []
        for d in range(days):
            shift = rng.random()
            for _ in range(per_day):
                rows.append((f"2024-01-{d+1:02d}", round((shift + 0.05 * rng.random()) % 1.0, 6)))
        return rows

    def test_ranksum_pipeline(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        path = write_grouped(tmp_path / "g.csv", self.grouped_rows(rng))
        code, out, _ = run_cli(
            capsys, "subsample", path, "--group-col", "day", "--n", "40",
            "--k", "20", "--seed", "5",
        )
        assert code == 0
        for token in ("# seed = 5", "quartiles =", "maximum =", "summary =", "bin_left,bin_right,count"):
            assert token in out

    def test_median_default_and_hist_file(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        path = write_grouped(tmp_path / "g.csv", self.grouped_rows(rng))
        hist = tmp_path / "hist.csv"
        args = [
            "subsample", path, "--group-col", "day", "--n", "21",
            "--seed", "8", "--hist-out", str(hist), "--bins", "10",
        ]
        code, out, _ = run_cli(capsys, *args)
        assert code == 0
        assert "k = 11" in out
        first = hist.read_bytes()
        assert first.startswith(b"bin_left,bin_right,count\n")
        assert len(first.splitlines()) == 11
        _, out2, _ = run_cli(capsys, *args)
        assert out2 == out and hist.read_bytes() == first

    def test_bcmc_base_test(self, tmp_path, capsys):
        rng = np.random.default_rng(2)
        rows = []
        for d in range(6):
            for _ in range(2):
                bits = (rng.random(4) < 0.5).astype(int)
                rows.append((f"d{d}", *bits))
        path = write_grouped(tmp_path / "m.csv", rows, header="day,s1,s2,s3,s4")
        code, out, _ = run_cli(
            capsys, "subsample", path, "--group-col", "day", "--test", "bcmc",
            "--n", "9", "--k", "5", "--seed", "3", "--chain-length", "30",
        )
        assert code == 0
        assert "summary =" in out

    def test_paper_application_on_six_days(self, tmp_path, capsys):
        rows = [("d1", 1, 0, 1, 0), ("d1", 0, 1, 1, 0), ("d2", 1, 1, 0, 0), ("d3", 0, 0, 1, 1),
                ("d3", 1, 0, 0, 1), ("d4", 0, 1, 1, 1), ("d5", 1, 0, 1, 0), ("d5", 1, 1, 0, 1),
                ("d6", 0, 1, 0, 0)]
        path = write_grouped(tmp_path / "b.csv", rows, header="day,s1,s2,s3,s4")
        code, out, _ = run_cli(capsys, "subsample", path, "--group-col", "day", "--test", "bcmc",
                               "--n", "20", "--chain-length", "200", "--seed", "1")
        assert code == 0
        assert any(line.startswith("summary = ") for line in out.splitlines())

    def test_hist_out_is_named_and_written(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        write_grouped(tmp_path / "g.csv", [("d1", 0.1), ("d1", 0.7), ("d2", 0.4), ("d3", 0.9),
                                           ("d3", 0.2), ("d4", 0.5)])
        code, out, _ = run_cli(capsys, "subsample", "g.csv", "--group-col", "day", "--n", "9",
                               "--seed", "1", "--hist-out", "h.csv")
        assert code == 0
        assert "histogram = h.csv" in out.splitlines()
        lines = (tmp_path / "h.csv").read_text().splitlines()
        assert lines[0] == "bin_left,bin_right,count" and len(lines) == 21

    def test_twelve_groups_repeat_byte_for_byte_and_one_bin_holds_every_value(self, tmp_path,
                                                                              capsys):
        # the group sizes of the benchmark's subsample-ranksum workload
        sizes = (2, 3, 1, 4, 2, 3, 2, 2, 3, 1, 2, 3)
        rows = [(f"d{j}", f"0.{j}{i}") for j, size in enumerate(sizes, 1) for i in range(1, size + 1)]
        assert len(rows) == 28
        argv = ["subsample", write_grouped(tmp_path / "g.csv", rows), "--group-col", "day",
                "--n", "200", "--seed", "7"]
        code, first, _ = run_cli(capsys, *argv)
        assert code == 0 and "m_groups = 12" in first.splitlines()
        assert run_cli(capsys, *argv) == (0, first, "")
        code, out, _ = run_cli(capsys, *argv, "--bins", "1")
        assert code == 0
        assert out.endswith("\nbin_left,bin_right,count\n0,1,200\n")

    def test_unwritable_hist_file_leaves_stdout_empty(self, tmp_path, capsys):
        # the histogram file is written before the report is printed
        rng = np.random.default_rng(1)
        path = write_grouped(tmp_path / "g.csv", self.grouped_rows(rng))
        code, out, err = run_cli(capsys, "subsample", path, "--group-col", "day", "--n", "30",
                                 "--hist-out", str(tmp_path / "missing" / "h.csv"))
        assert code == 2 and out == ""
        assert "error: [Errno 2] No such file or directory" in err

    def test_missing_group_column_exit_two(self, tmp_path, capsys):
        path = write_grouped(tmp_path / "g.csv", [("a", 0.5)])
        code, _, err = run_cli(
            capsys, "subsample", path, "--group-col", "nope", "--n", "5", "--k", "2"
        )
        assert code == 2 and "nope" in err

    def test_too_many_ranksum_groups_exit_two(self, tmp_path, capsys):
        m = RANK_SUM_MAX_GROUPS + 1
        path = write_grouped(tmp_path / "g.csv", [(f"g{j}", j / m) for j in range(m)])
        code, _, err = run_cli(
            capsys, "subsample", path, "--group-col", "day", "--n", "3", "--k", "2"
        )
        assert code == 2 and str(RANK_SUM_MAX_GROUPS) in err

    def test_too_many_repetitions_exit_two(self, tmp_path, capsys, monkeypatch):
        # the limit is lowered so that no large sample is ever allocated,
        # and no repetition runs
        def never_called(picks, rng):
            raise AssertionError("the base test ran")

        monkeypatch.setattr(subsample, "MAX_REPETITIONS", 10)
        monkeypatch.setattr(cli, "rank_sum_test", never_called)
        path = write_grouped(tmp_path / "g.csv", [("a", 0.1), ("b", 0.5), ("c", 0.7)])
        code, out, err = run_cli(capsys, "subsample", path, "--group-col", "day", "--n", "11")
        assert code == 2 and "MAX_REPETITIONS = 10" in err
        assert "summary" not in out

    def test_block_above_memory_bound_exit_two(self, tmp_path, capsys, monkeypatch):
        # three groups of one float64 score: 3 x (8 + 8) bytes a repetition
        def never_called(picks, rng):
            raise AssertionError("the base test ran")

        monkeypatch.setattr(subsample, "MAX_BLOCK_BYTES", 48 * 10)
        monkeypatch.setattr(cli, "rank_sum_test", never_called)
        path = write_grouped(tmp_path / "g.csv", [("a", 0.1), ("b", 0.5), ("c", 0.7)])
        code, out, err = run_cli(capsys, "subsample", path, "--group-col", "day", "--n", "11")
        assert code == 2 and out == ""
        assert "MAX_BLOCK_BYTES = 480" in err

    def test_too_many_bins_exit_two(self, tmp_path, capsys, monkeypatch):
        def never_called(picks, rng):
            raise AssertionError("the base test ran")

        monkeypatch.setattr(cli, "rank_sum_test", never_called)
        path = write_grouped(tmp_path / "g.csv", [("a", 0.1), ("b", 0.5), ("c", 0.7)])
        for bins in (str(subsample.MAX_BINS + 1), "0", "-1"):
            code, out, err = run_cli(capsys, "subsample", path, "--group-col", "day", "--n", "5",
                                     "--bins", bins)
            assert code == 2 and out == "" and "bins" in err

    def test_non_finite_score_names_line(self, tmp_path, capsys):
        for bad in ("nan", "inf", "-inf"):
            rows = [("a", 0.1), ("a", 0.2), ("b", bad), ("c", 0.5), ("d", 0.7)]
            path = write_grouped(tmp_path / "g.csv", rows, header="g,score")
            code, out, err = run_cli(capsys, "subsample", path, "--group-col", "g", "--n", "20")
            assert code == 2 and "line 4" in err and bad in err
            assert "summary" not in out

    def test_negative_precision_exit_two_before_output(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        path = write_grouped(tmp_path / "g.csv", self.grouped_rows(rng))
        code, out, err = run_cli_usage_error(
            capsys, "subsample", path, "--group-col", "day", "--n", "40", "--precision", "-1"
        )
        assert code == 2 and out == ""
        assert "precision must be >= 0" in err

    def test_k_and_median_together_exit_two(self, tmp_path, capsys):
        rng = np.random.default_rng(4)
        path = write_grouped(tmp_path / "g.csv", self.grouped_rows(rng))
        code, out, err = run_cli_usage_error(
            capsys, "subsample", path, "--group-col", "day", "--n", "5", "--k", "2", "--median"
        )
        assert code == 2 and out == ""
        assert "unrecognized arguments: --median" in err

    def test_default_k_is_left_median_of_n(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        path = write_grouped(tmp_path / "g.csv", self.grouped_rows(rng))
        args = ["subsample", path, "--group-col", "day", "--n", "20", "--seed", "1"]
        _, out, _ = run_cli(capsys, *args)
        _, out_k, _ = run_cli(capsys, *args, "--k", "10")
        assert "k = 10\n" in out and out == out_k

    def test_byte_order_mark_before_header(self, tmp_path, capsys):
        rng = np.random.default_rng(6)
        path = tmp_path / "g.csv"
        write_grouped(path, self.grouped_rows(rng))
        plain = path.read_bytes()
        args = ["subsample", str(path), "--group-col", "day", "--n", "9", "--seed", "2"]
        code, expected, _ = run_cli(capsys, *args)
        assert code == 0
        path.write_bytes(b"\xef\xbb\xbf" + plain)
        code, out, err = run_cli(capsys, *args)
        assert code == 0, err
        assert out == expected

    @pytest.mark.parametrize("chain_length", ["1", "100"])
    def test_bcmc_one_group_exit_two(self, tmp_path, capsys, chain_length):
        path = write_grouped(tmp_path / "m.csv", [("a", 1, 0, 1), ("a", 0, 1, 1)],
                             header="day,s1,s2,s3")
        code, out, err = run_cli(
            capsys, "subsample", path, "--group-col", "day", "--test", "bcmc",
            "--n", "5", "--chain-length", chain_length,
        )
        assert code == 2 and "summary" not in out
        assert "error: checkerboard swaps need at least 2 rows and 2 columns, got 1x3" in err

    @pytest.mark.parametrize("test", ["ranksum", "bcmc"])
    def test_group_column_only_exit_two(self, tmp_path, capsys, test):
        path = tmp_path / "g.csv"
        path.write_text("\nday\na\nb\n")
        code, out, err = run_cli(capsys, "subsample", str(path), "--group-col", "day",
                                 "--test", test, "--n", "5")
        assert code == 2 and out == ""
        assert f"error: {path}: line 2: no data columns found beside 'day'" in err

    def test_error_names_file_line_past_blank_and_multiline_rows(self, tmp_path, capsys):
        path = tmp_path / "g.csv"
        path.write_text('\nday,score\n"a\nb",0.1\n\nc,0.2\nc,nan\n')
        code, _, err = run_cli(capsys, "subsample", str(path), "--group-col", "day", "--n", "5")
        assert code == 2 and f"{path}: line 7: non-finite value 'nan'" in err

    def test_quoted_fields_and_leading_blank_lines(self, tmp_path, capsys):
        rng = np.random.default_rng(7)
        rows = self.grouped_rows(rng)
        path = tmp_path / "g.csv"
        write_grouped(path, rows)
        args = ["subsample", str(path), "--group-col", "day", "--n", "9", "--seed", "2"]
        code, expected, _ = run_cli(capsys, *args)
        assert code == 0
        path.write_text('\n\n"day","score"\n' + "".join(f'"{d}","{x}"\n' for d, x in rows))
        code, out, err = run_cli(capsys, *args)
        assert code == 0, err
        assert out == expected

    def test_ranksum_needs_single_column(self, tmp_path, capsys):
        path = write_grouped(
            tmp_path / "g.csv", [("a", 0.5, 0.2), ("b", 0.1, 0.9)], header="day,x,y"
        )
        code, _, err = run_cli(
            capsys, "subsample", path, "--group-col", "day", "--n", "5", "--k", "2"
        )
        assert code == 2 and "one" in err


class TestBcmc:
    def test_all_ones_gives_one(self, tmp_path, capsys):
        path = tmp_path / "m.csv"
        path.write_text("1,1,1\n1,1,1\n")
        code, out, _ = run_cli(capsys, "bcmc", str(path), "--chain-length", "200", "--seed", "1")
        assert code == 0
        assert "pvalue = 1" in out

    def test_two_by_two_identity_length_one(self, tmp_path, capsys):
        path = tmp_path / "m.csv"
        path.write_text("1,0\n0,1\n")
        code, out, _ = run_cli(capsys, "bcmc", str(path), "--chain-length", "1", "--seed", "2")
        assert code == 0
        assert "pvalue = 1" in out

    def test_labelled_matrix_with_header(self, tmp_path, capsys):
        path = tmp_path / "m.csv"
        path.write_text(
            "date,a,b,c\n"
            "2006-02-03,1,0,1\n"
            "2006-02-03,0,1,0\n"
            "2006-02-04,1,1,0\n"
            "2006-02-04,0,0,1\n"
        )
        code, out, _ = run_cli(
            capsys, "bcmc", str(path), "--chain-length", "500", "--seed", "4"
        )
        assert code == 0
        assert "rows = 4" in out and "cols = 3" in out

    def test_labelled_matrix_without_header_keeps_first_row(self, tmp_path, capsys):
        path = tmp_path / "m.csv"
        path.write_text("r0,1,0\nr1,0,1\nr2,1,1\n")
        args = ["bcmc", str(path), "--chain-length", "100", "--seed", "3"]
        code, out, _ = run_cli(capsys, *args)
        assert code == 0 and "rows = 3\n" in out and "cols = 2\n" in out
        # the same rows behind a header give the same output
        path.write_text("id,a,b\nr0,1,0\nr1,0,1\nr2,1,1\n")
        assert run_cli(capsys, *args)[1] == out
        path.write_text("1,0\n0,1\n1,1\n")
        assert run_cli(capsys, *args)[1] == out

    def test_reproducible_multiple_of_inverse_length(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        mat = (rng.random((20, 5)) < 0.4).astype(int)
        path = tmp_path / "m.csv"
        path.write_text("\n".join(",".join(map(str, row)) for row in mat) + "\n")
        args = ["bcmc", str(path), "--chain-length", "1000", "--seed", "12"]
        code, out1, _ = run_cli(capsys, *args)
        assert code == 0
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2
        value = float(out1.split("pvalue = ")[1].strip())
        assert 0 < value <= 1 and abs(value * 1000 - round(value * 1000)) < 1e-9

    def test_default_statistic_has_power(self, tmp_path, capsys):
        mat = generate_null_matrix([6] * 40, [12] * 20, seed=3)
        path = tmp_path / "m.csv"
        path.write_text("\n".join(",".join(map(str, row)) for row in mat.entries) + "\n")
        code, out, _ = run_cli(capsys, "bcmc", str(path), "--chain-length", "2000", "--seed", "0")
        assert code == 0
        assert float(out.split("pvalue = ")[1].strip()) < 1.0

    # every state of each margin class has the same score; the last one has
    # no checkerboard, so its chain never moves
    @pytest.mark.parametrize("text,chain_length,seed", [
        ("1,0\n0,1\n", "50", "6"),
        ("1,0,1\n0,1,1\n1,1,0\n", "50", "1"),
        ("1,1\n0,0\n", "20000", "1"),
    ], ids=["2x2-identity", "3x3", "swap-free-2x2"])
    def test_trace_file(self, tmp_path, capsys, monkeypatch, text, chain_length, seed):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "m.csv").write_text(text)
        code, out, _ = run_cli(
            capsys, "bcmc", "m.csv", "--chain-length", chain_length, "--seed", seed,
            "--trace-out", "t.csv",
        )
        assert code == 0
        assert {"trace = t.csv", "pvalue = 1"} <= set(out.splitlines())
        lines = (tmp_path / "t.csv").read_text().strip().splitlines()
        assert lines[0] == "t,statistic"
        assert len(lines) == int(chain_length) + 1

    def test_trace_above_bound_exit_two(self, tmp_path, capsys, monkeypatch):
        def no_steps(*args):
            raise AssertionError("a chain step ran")

        monkeypatch.setattr(bcmc, "MAX_TRACE_LENGTH", 10)
        monkeypatch.setattr(bcmc, "_advance", no_steps)
        path = tmp_path / "m.csv"
        path.write_text("1,0\n0,1\n")
        trace = tmp_path / "trace.csv"
        code, out, err = run_cli(capsys, "bcmc", str(path), "--chain-length", "11",
                                 "--trace-out", str(trace))
        assert code == 2 and out == "" and "MAX_TRACE_LENGTH = 10" in err
        assert not trace.exists()

    def test_non_binary_entry_exit_two(self, tmp_path, capsys):
        path = tmp_path / "m.csv"
        path.write_text("1,0\n0,2\n")
        code, _, err = run_cli(capsys, "bcmc", str(path))
        assert code == 2 and "line 2" in err

    def test_error_names_file_line_past_blank_lines(self, tmp_path, capsys):
        path = tmp_path / "m.csv"
        path.write_text("a,b,c\n\n1,0,1\n\n0,1,2\n")
        code, _, err = run_cli(capsys, "bcmc", str(path))
        assert code == 2
        assert f"error: {path}: line 5: non-binary entry '2'" in err

    def test_ragged_row_names_line(self, tmp_path, capsys):
        path = tmp_path / "m.csv"
        path.write_text("1,0,1\n\n0,1,0\n1,1\n")
        code, _, err = run_cli(capsys, "bcmc", str(path))
        assert code == 2 and f"error: {path}: line 4: expected 3 fields, got 2" in err

    def test_oversized_field_exit_two(self, tmp_path, capsys):
        path = tmp_path / "m.csv"
        path.write_text("1,0\n\n0," + "1" * 200_000 + "\n")
        code, _, err = run_cli(capsys, "bcmc", str(path))
        assert code == 2 and f"error: {path}: line 3: field larger than field limit" in err

    def test_label_only_row_exit_two(self, tmp_path, capsys):
        path = tmp_path / "m.csv"
        path.write_text("date,a,b\n\n2006-02-03\n")
        code, out, err = run_cli(capsys, "bcmc", str(path))
        assert code == 2 and out == ""
        assert f"error: {path}: line 3: no data columns found beside the label" in err

    def test_degenerate_shape_exit_two(self, tmp_path, capsys):
        path = tmp_path / "m.csv"
        path.write_text("1,0,1\n")
        code, _, err = run_cli(capsys, "bcmc", str(path))
        assert code == 2
        # the same rule and message at every chain length
        for text, shape in (("1,0,1\n", "1x3"), ("1\n0\n1\n", "3x1")):
            path.write_text(text)
            for chain_length in ("1", "2", "100"):
                code, out, err = run_cli(capsys, "bcmc", str(path), "--chain-length", chain_length)
                assert code == 2 and out == ""
                assert f"error: checkerboard swaps need at least 2 rows and 2 columns, got {shape}" in err

    def test_byte_order_mark_keeps_first_row(self, tmp_path, capsys):
        path = tmp_path / "m.csv"
        text = "1,0,1\n0,1,0\n1,1,0\n"
        path.write_text(text)
        args = ["bcmc", str(path), "--chain-length", "100", "--seed", "3"]
        code, expected, _ = run_cli(capsys, *args)
        assert code == 0 and "rows = 3\n" in expected
        path.write_bytes(b"\xef\xbb\xbf" + text.encode())
        code, out, err = run_cli(capsys, *args)
        assert code == 0, err
        assert out == expected


# ---------------------------------------------------------------- golden output
#
# Whole reports pinned byte for byte: stdout, stderr (when not empty) and every
# output file of each case, stored under tests/golden/ as <case>.stdout,
# <case>.stderr and <case>.<file>.  A case without a recorded stdout records
# itself and fails; so after a declared output change, delete the case's files,
# run the test twice and review the diff.

GOLDEN = Path(__file__).with_name("golden")
GOLDEN_INPUTS = {
    "p.csv": "pvalue\n0.04\n0.3\n0.011\n0.5\n0.02\n0.9\n0.07\n",
    "g.csv": "day,score\n" + "".join(f"d{i % 6},{i * 37 % 101 / 101:.6f}\n" for i in range(18)),
    "b.csv": "day,s1,s2,s3,s4\n" + "".join(
        f"d{i % 6}," + ",".join(str(int((i * i + 3 * j + i * j) % 7 < 3)) for j in range(4)) + "\n"
        for i in range(12)),
    "m.csv": "id,a,b,c,d\n" + "".join(
        f"r{i}," + ",".join(str(int((i * 3 + j * 5) % 7 < 3)) for j in range(4)) + "\n"
        for i in range(8)),
}
# case: (argv, exit code, output files)
GOLDEN_CASES = {
    "fnk_u": (["fnk", "--n", "3", "--k", "1", "--u", "0.2", "0", "0.5", "1"], 0, []),
    "fnk_precision": (["fnk", "--n", "1000", "--k", "500", "--precision", "12"], 0, []),
    "combine_median": (["combine", "p.csv", "--median"], 0, []),
    "combine_k": (["combine", "p.csv", "--k", "2", "--precision", "4"], 0, []),
    "validate": (["validate", "--n", "10", "--k", "5", "--reps", "3000", "--seed", "9"], 0, []),
    "validate_out": (["validate", "--n", "10", "--k", "5", "--reps", "3000", "--seed", "9",
                      "--out", "report.csv"], 0, ["report.csv"]),
    "validate_shrink_out": (["validate", "--n", "6", "--k", "2", "--reps", "3000", "--seed", "2",
                             "--shrink", "0.5", "--out", "report.csv"], 0, ["report.csv"]),
    "subsample": (["subsample", "g.csv", "--group-col", "day", "--n", "30", "--seed", "5"], 0, []),
    "subsample_hist": (["subsample", "g.csv", "--group-col", "day", "--n", "30", "--seed", "5",
                        "--bins", "8", "--hist-out", "h.csv"], 0, ["h.csv"]),
    "subsample_bcmc": (["subsample", "b.csv", "--group-col", "day", "--test", "bcmc", "--n", "9",
                        "--k", "5", "--seed", "3", "--chain-length", "30"], 0, []),
    "bcmc_trace": (["bcmc", "m.csv", "--chain-length", "40", "--seed", str(2**64 - 1),
                    "--trace-out", "t.csv"], 0, ["t.csv"]),
    "bcmc_precision": (["bcmc", "m.csv", "--chain-length", "200", "--seed", "4",
                        "--precision", "3"], 0, []),
    "missing_file": (["combine", "missing.csv", "--k", "1"], 2, []),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
def test_golden_output(case, tmp_path, capsys, monkeypatch):
    argv, expected_code, files = GOLDEN_CASES[case]
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)
    for name, text in GOLDEN_INPUTS.items():
        (tmp_path / name).write_text(text)
    code, out, err = run_cli(capsys, *argv)
    assert code == expected_code, err
    produced = {f"{case}.stdout": out.encode(), **({f"{case}.stderr": err.encode()} if err else {})}
    produced.update({f"{case}.{name}": (tmp_path / name).read_bytes() for name in files})
    if not (GOLDEN / f"{case}.stdout").exists():
        GOLDEN.mkdir(exist_ok=True)
        for name, data in produced.items():
            (GOLDEN / name).write_bytes(data)
        pytest.fail(f"recorded {case}; review tests/golden/{case}.* and run again")
    assert produced == {p.name: p.read_bytes() for p in GOLDEN.glob(f"{case}.*")}


# ---------------------------------------------------------------- output paths
#
# Each output path is checked before the run: a bad one fails at once, with
# the message that opening it would give, and no run leaves a file behind.

OUTPUT_CASES = {  # command: (argv up to the output path, the computation it must not reach)
    "validate": (["validate", "--n", "10", "--k", "5", "--reps", "1000000", "--out"],
                 "tightness_scan"),
    "subsample": (["subsample", "g.csv", "--group-col", "day", "--n", "30", "--hist-out"],
                  "run_pipeline"),
    "bcmc": (["bcmc", "m.csv", "--chain-length", "40", "--trace-out"], "serial_pvalue"),
}


def _in_golden_dir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, text in GOLDEN_INPUTS.items():
        (tmp_path / name).write_text(text)
    return sorted(tmp_path.iterdir())


@pytest.mark.parametrize("target", ["missing_dir", "directory", "file_as_dir"])
@pytest.mark.parametrize("command", sorted(OUTPUT_CASES))
def test_bad_output_path_fails_before_the_run(command, target, tmp_path, capsys, monkeypatch):
    argv, computation = OUTPUT_CASES[command]
    before = _in_golden_dir(tmp_path, monkeypatch)

    def not_reached(*args, **kwargs):
        raise AssertionError(f"{computation} ran before the output path was checked")

    monkeypatch.setattr(cli, computation, not_reached)
    path = {"missing_dir": "missing/out.csv", "directory": ".", "file_as_dir": "p.csv/out.csv"}[target]
    with pytest.raises(OSError) as opened:
        open(path, "w")
    code, out, err = run_cli(capsys, *argv, path)
    assert (code, out, err) == (2, "", f"error: {opened.value}\n")
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("existing", [False, True])
@pytest.mark.parametrize("command", sorted(OUTPUT_CASES))
def test_failed_run_leaves_output_path_as_it_was(command, existing, tmp_path, capsys,
                                                 monkeypatch):
    argv, computation = OUTPUT_CASES[command]
    _in_golden_dir(tmp_path, monkeypatch)
    if existing:
        (tmp_path / "out.csv").write_bytes(b"kept\n")

    def fails(*args, **kwargs):
        raise ValueError("the run failed")

    monkeypatch.setattr(cli, computation, fails)
    code, out, err = run_cli(capsys, *argv, "out.csv")
    assert (code, out, err) == (2, "", "error: the run failed\n")
    if existing:
        assert (tmp_path / "out.csv").read_bytes() == b"kept\n"
    else:
        assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("command", ["fnk", *sorted(OUTPUT_CASES)])
def test_internal_error_exits_three_without_output(command, tmp_path, capsys, monkeypatch):
    before = _in_golden_dir(tmp_path, monkeypatch)

    def fails(*args, **kwargs):
        raise ZeroDivisionError("division by zero")

    if command == "fnk":
        argv = ["fnk", "--n", "10", "--k", "5"]
        monkeypatch.setattr(cli, "_cmd_fnk", fails)
    else:
        argv, computation = OUTPUT_CASES[command]
        argv = [*argv, "out.csv"]
        monkeypatch.setattr(cli, computation, fails)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (3, "")
    assert err == "internal error: ZeroDivisionError('division by zero')\n"
    assert sorted(tmp_path.iterdir()) == before


# ---------------------------------------------------------------- seeds
#
# `main` resolves the seed of every seeded command the same way: --seed,
# else $ORDERPV_SEED, else 0; the seed used is echoed.

SEEDED_ARGV = {
    "validate": ["validate", "--n", "4", "--k", "2", "--reps", "5000"],
    "subsample": ["subsample", "g.csv", "--group-col", "day", "--n", "30"],
    "bcmc": ["bcmc", "m.csv", "--chain-length", "40"],
}


@pytest.mark.parametrize("command", ["bcmc", "subsample"])  # validate: TestValidate
def test_env_seed_is_used_and_echoed(command, tmp_path, capsys, monkeypatch):
    _in_golden_dir(tmp_path, monkeypatch)
    monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)
    _, given, _ = run_cli(capsys, *SEEDED_ARGV[command], "--seed", "314")
    monkeypatch.setenv(cli.SEED_ENV_VAR, "314")
    code, out, err = run_cli(capsys, *SEEDED_ARGV[command])
    assert (code, err) == (0, "")
    assert "# seed = 314\n" in out and out == given


@pytest.mark.parametrize("command", sorted(SEEDED_ARGV))
def test_seed_option_wins_over_env(command, tmp_path, capsys, monkeypatch):
    _in_golden_dir(tmp_path, monkeypatch)
    monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)
    _, given, _ = run_cli(capsys, *SEEDED_ARGV[command], "--seed", "5")
    monkeypatch.setenv(cli.SEED_ENV_VAR, "314")
    code, out, err = run_cli(capsys, *SEEDED_ARGV[command], "--seed", "5")
    assert (code, err) == (0, "")
    assert "# seed = 5\n" in out and out == given


@pytest.mark.parametrize("command", sorted(OUTPUT_CASES))
def test_non_integral_env_seed_exit_two_without_output(command, tmp_path, capsys, monkeypatch):
    argv, computation = OUTPUT_CASES[command]
    before = _in_golden_dir(tmp_path, monkeypatch)

    def not_reached(*args, **kwargs):
        raise AssertionError(f"{computation} ran with a refused seed")

    monkeypatch.setattr(cli, computation, not_reached)
    monkeypatch.setenv(cli.SEED_ENV_VAR, "1.5")
    code, out, err = run_cli(capsys, *argv, "out.csv")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {cli.SEED_ENV_VAR}='1.5': ")
    assert sorted(tmp_path.iterdir()) == before
