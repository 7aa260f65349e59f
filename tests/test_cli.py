import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from tailest import cli, experiments
from tailest.sampler import DENSITIES, DistributionSpec, SampleRequest, draw, tabulate

E = math.e


def _run(argv):
    return cli.main(argv)


def _value(output: str, key: str) -> float:
    match = re.search(r"%s=([-\d.e+]+)" % re.escape(key), output)
    assert match, "no %r in output:\n%s" % (key, output)
    return float(match.group(1))


class TestEstimate:
    def test_two_point_file(self, tmp_path, capsys):
        path = tmp_path / "two.txt"
        path.write_text("# demo sample\n%r\n%r\n" % (E, 1.0))
        assert _run(["estimate", str(path)]) == 0
        out = capsys.readouterr().out
        assert _value(out, "hill mu") == pytest.approx(3.0, abs=1e-3)
        assert _value(out, "improved mu") == pytest.approx(1.0, abs=1e-3)

    def test_truncated_power_law_file(self, tmp_path, capsys):
        sample_path = tmp_path / "sample.txt"
        assert _run(["simulate", "--dist", "power", "--mu", "5", "--dlow", "3",
                     "--dhigh", "4", "--n", "1000", "--seed", "7",
                     "--out", str(sample_path)]) == 0
        capsys.readouterr()
        assert _run(["estimate", str(sample_path)]) == 0
        out = capsys.readouterr().out
        assert 7.0 < _value(out, "hill mu") < 13.0
        assert abs(_value(out, "improved mu") - 5.0) < 1.5

    def test_zero_value_exits_3(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("1.5\n0.0\n2.5\n")
        assert _run(["estimate", str(path)]) == 3
        err = capsys.readouterr().err
        assert ":2:" in err  # offending line number reported

    def test_missing_file_exits_2(self, tmp_path):
        assert _run(["estimate", str(tmp_path / "nope.txt")]) == 2

    def test_garbage_line_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("1.5\nbanana\n")
        assert _run(["estimate", str(path)]) == 2
        # non-finite values pass float() but are rejected with their line,
        # in plain and in CSV column input
        csv_path = tmp_path / "bad.csv"
        for text in ("nan", "inf", "1e400"):
            path.write_text("1.5\n%s\n2.5\n" % text)
            assert _run(["estimate", str(path)]) == 2
            assert "%s:2: not a finite number" % path in capsys.readouterr().err
            csv_path.write_text("name,value\na,1.5\nb,%s\nc,2.5\n" % text)
            assert _run(["estimate", str(csv_path), "--column", "value"]) == 2
            assert "%s:3: not a finite number" % csv_path in capsys.readouterr().err

    def test_oversized_csv_cell_exits_2(self, tmp_path, capsys):
        path = tmp_path / "wide.csv"
        path.write_text("name,value\na,1.5\nb,2.5\nc,%s\n" % ("7" * 200_000))
        assert _run(["estimate", str(path), "--column", "value"]) == 2
        assert capsys.readouterr().err == (
            "error: %s:4: field larger than field limit (131072)\n" % path)

    def test_csv_column(self, tmp_path, capsys):
        path = tmp_path / "data.csv"
        path.write_text("name,value\na,%r\nb,%r\nc,2.0\n" % (E, 1.0))
        assert _run(["estimate", str(path), "--column", "value"]) == 0
        out = capsys.readouterr().out
        assert "n 3" in out
        assert _run(["estimate", str(path), "--column", "missing"]) == 2

    def test_domain_cuts(self, tmp_path, capsys):
        path = tmp_path / "data.txt"
        path.write_text("".join("%r\n" % v for v in (0.5, 1.0, 2.0, 4.0, 8.0, 100.0)))
        assert _run(["estimate", str(path), "--xmin", "1", "--xmax", "10"]) == 0
        out = capsys.readouterr().out
        assert "n 4" in out
        assert _value(out, "bounds L") == pytest.approx(1.0)
        assert _value(out, "R") == pytest.approx(8.0)

    def test_cuts_leaving_too_few_exit_4(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("1.0\n2.0\n3.0\n")
        assert _run(["estimate", str(path), "--xmin", "2.5"]) == 4

    def test_degenerate_sample_exits_4(self, tmp_path):
        path = tmp_path / "flat.txt"
        path.write_text("5.0\n5.0\n5.0\n")
        assert _run(["estimate", str(path)]) == 4
        # distinct values whose logs tie pass the Hill check but not the solvers
        path.write_text("%r\n" % math.nextafter(3.0, 4.0) + "3.0\n" * 10)
        assert _run(["estimate", str(path)]) == 4

    def test_window_override(self, tmp_path, capsys):
        path = tmp_path / "data.txt"
        path.write_text("".join("%r\n" % float(v) for v in range(1, 21)))
        assert _run(["estimate", str(path), "--l", "10", "--r", "2"]) == 0
        out = capsys.readouterr().out
        assert "window l=10 r=2 (k=9)" in out
        assert _run(["estimate", str(path), "--l", "50"]) == 4

    def test_plot_output(self, tmp_path, capsys):
        path = tmp_path / "data.txt"
        path.write_text("".join("%r\n" % (1.0 + 0.37 * v) for v in range(30)))
        plot = tmp_path / "series.csv"
        assert _run(["estimate", str(path), "--plot", str(plot)]) == 0
        lines = plot.read_text().strip().split("\n")
        assert lines[0] == "l,mu_hill,mu_improved"
        assert len(lines) == 30  # header + (n - r) entries


def _values_past_first_block(n: int) -> str:
    """n lines of 17-digit values, several times the reader's block size."""
    return "".join("%.17g\n" % (1.0 + i * 1e-3) for i in range(n))


# What estimate printed on 1.5, 2.5, 3.5 before the block reader.
OUT_3 = ("n 3  window l=3 r=1 (k=3)\nbounds L=1.5 R=3.5\nmean_log 0.8582\n"
         "hill mu=3.209 alpha=2.209\nimproved mu=0.5129 alpha=-0.4871\n"
         "improved-iterative mu=0.5129 alpha=-0.4871 iterations=5 converged=yes\n")

# (input text, --column or None, exit code, stdout, stderr with {path}),
# pinned from the line-by-line reader that the block reader replaced.
PARITY = {
    "header_and_inner_blank": ("# observations\n1.5\n\n2.5\n  \n3.5\n", None, 0, OUT_3, ""),
    "trailing_blank_lines": ("1.5\n2.5\n3.5\n\n\n", None, 0, OUT_3, ""),
    "crlf": ("1.5\r\n2.5\r\n3.5\r\n", None, 0, OUT_3, ""),
    "lone_cr": ("1.5\r2.5\r3.5\r", None, 0, OUT_3, ""),
    "underscore_and_separator": (
        " 1_000 \n\x1c3\n2.5\n", None, 0,
        "n 3  window l=3 r=1 (k=3)\nbounds L=2.5 R=1000\nmean_log 2.974\n"
        "hill mu=1.486 alpha=0.4859\nimproved mu=1.334 alpha=0.3338\n"
        "improved-iterative mu=1.334 alpha=0.3338 iterations=5 converged=yes\n", ""),
    "arabic_indic_digits": (
        "\u0661\u0662\n\u0663\n\u0662.\u0665\n", None, 0,
        "n 3  window l=3 r=1 (k=3)\nbounds L=2.5 R=12\nmean_log 1.5\n"
        "hill mu=2.713 alpha=1.713\nimproved mu=2.02 alpha=1.02\n"
        "improved-iterative mu=2.02 alpha=1.02 iterations=5 converged=yes\n", ""),
    "nan": ("1.5\nnan\n2.5\n", None, 2, "", "error: {path}:2: not a finite number: 'nan'\n"),
    "inf": ("1.5\ninf\n2.5\n", None, 2, "", "error: {path}:2: not a finite number: 'inf'\n"),
    "overflow": ("1.5\n1e400\n2.5\n", None, 2, "",
                 "error: {path}:2: not a finite number: '1e400'\n"),
    "minus_inf": ("1.5\n-inf\n2.5\n", None, 3, "", "error: {path}:2: non-positive value '-inf'\n"),
    "zero": ("1.5\n0\n2.5\n", None, 3, "", "error: {path}:2: non-positive value '0'\n"),
    "underflow": ("1.5\n1e-400\n2.5\n", None, 3, "",
                  "error: {path}:2: non-positive value '1e-400'\n"),
    "one_line": ("1.5\n", None, 4, "", "error: {path}: need at least 2 observations, got 1\n"),
    "empty": ("", None, 4, "", "error: {path}: need at least 2 observations, got 0\n"),
    "bad_line_past_first_block": (
        _values_past_first_block(300_000) + "banana\n2.5\n", None, 2, "",
        "error: {path}:300001: not a number: 'banana'\n"),
    "zero_past_first_block": (
        _values_past_first_block(300_000) + "0\n2.5\n", None, 3, "",
        "error: {path}:300001: non-positive value '0'\n"),
    "column": ("name,value\na,1.5\nb,\nc,2.5\nd,3.5\n", "value", 0, OUT_3, ""),
    "column_quoted_crlf": ('name,value\r\n"a, x","1.5"\r\n"b\nc",2.5\r\nd,3.5\r\n',
                           "value", 0, OUT_3, ""),
    "column_bad_cell": ("name,value\na,1.5\nb,banana\nc,2.5\n", "value", 2, "",
                        "error: {path}:3: not a number: 'banana'\n"),
    "column_zero_cell": ("name,value\na,1.5\nb, 0 \nc,2.5\n", "value", 3, "",
                         "error: {path}:3: non-positive value '0'\n"),
}


def _estimate(path, capsys, *flags):
    code = _run(["estimate", str(path), *flags])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestReader:
    @pytest.mark.parametrize("case", list(PARITY))
    def test_parity_corpus(self, case, tmp_path, capsys):
        text, column, code, out, err = PARITY[case]
        path = tmp_path / "input.txt"
        path.write_bytes(text.encode("utf-8"))
        flags = ["--column", column] if column else []
        assert _estimate(path, capsys, *flags) == (code, out, err.format(path=path))

    def test_array_bit_equal_to_float_per_line(self, tmp_path):
        rng = np.random.default_rng(5)
        lines = ["%.17g" % v for v in rng.pareto(1.5, 200_000) + 1.0]
        lines += [repr(v) for v in rng.uniform(1e-300, 1e-290, 1000).tolist()]
        lines += [" 7 ", "1_000.5", "\u0664\u0662", "1E3", "+2.5"]
        lines += ["%.6e" % v for v in rng.lognormal(0.0, 50.0, 100_000)]
        # blank lines late in the file send one block through the line loop
        text = "\n".join(lines[:250_000]) + "\n\n\n" + "\n".join(lines[250_000:]) + "\n"
        path = tmp_path / "values.txt"
        path.write_text(text, encoding="utf-8")
        values = cli._read_values(str(path), None)
        expected = np.array([float(s) for s in lines])
        assert isinstance(values, np.ndarray) and values.dtype == np.float64
        assert values.tobytes() == expected.tobytes()
        csv_path = tmp_path / "values.csv"
        csv_path.write_text("value\n" + "\n".join(lines[:1000]) + "\n", encoding="utf-8")
        column = cli._read_values(str(csv_path), "value")
        assert column.tobytes() == expected[:1000].tobytes()

    def test_pipe_matches_file(self, tmp_path, capsys):
        simulate = ["simulate", "--dist", "power", "--mu", "5", "--dlow", "3",
                    "--dhigh", "4", "--n", "1000", "--seed", "7"]
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
        command = [sys.executable, "-m", "tailest.cli"]
        producer = subprocess.Popen(command + simulate, stdout=subprocess.PIPE,
                                    stderr=subprocess.DEVNULL, env=env)
        consumer = subprocess.run(command + ["estimate", "/dev/stdin"], stdin=producer.stdout,
                                  capture_output=True, text=True, env=env, timeout=60)
        producer.stdout.close()
        assert producer.wait(timeout=60) == 0
        path = tmp_path / "sample.txt"
        assert _run(simulate + ["--out", str(path)]) == 0
        capsys.readouterr()
        assert (consumer.returncode, consumer.stdout, consumer.stderr) == (
            _estimate(path, capsys))

    def test_not_utf8_exits_2(self, tmp_path, capsys):
        path = tmp_path / "latin1.txt"
        for data, flags in ((b"1.5\n2.5\n\xe93.5\n", []),
                            (_values_past_first_block(100_000).encode() + b"\xff\n", []),
                            (b"name,value\na,1.5\nb,2.5\xb5\n", ["--column", "value"]),
                            (b"n\xe9,value\na,1.5\n", ["--column", "value"])):
            path.write_bytes(data)
            assert _estimate(path, capsys, *flags) == (
                2, "", "error: %s: not UTF-8 text\n" % path)

    def test_byte_order_mark_skipped(self, tmp_path, capsys):
        bom = b"\xef\xbb\xbf"
        path = tmp_path / "bom.txt"
        path.write_bytes(bom + b"1.5\n2.5\n3.5\n")
        assert _estimate(path, capsys) == (0, OUT_3, "")
        path.write_bytes(bom + b"name,value\na,1.5\nb,2.5\nc,3.5\n")
        assert _estimate(path, capsys, "--column", "value") == (0, OUT_3, "")

    def test_bad_cut_flags_exit_2(self, tmp_path, capsys):
        path = tmp_path / "data.txt"
        path.write_text("1.0\n2.0\n3.0\n")
        for flags, flag in ((["--xmin", "nan"], "--xmin"), (["--xmax", "nan"], "--xmax"),
                            (["--xmin", "1", "--xmax", "nan"], "--xmax"),
                            (["--xmin", "2.5", "--xmax", "1.5"], "--xmin")):
            code, out, err = _estimate(path, capsys, *flags)
            assert (code, out) == (2, "")
            assert err.startswith("error: %s " % flag) and err.count("\n") == 1
        # cuts are inclusive at both ends
        code, out, err = _estimate(path, capsys, "--xmin", "1", "--xmax", "3")
        assert code == 0 and out.startswith("n 3 ")


class TestSimulate:
    def test_range_and_count(self, tmp_path):
        out = tmp_path / "s.txt"
        assert _run(["simulate", "--dist", "power", "--mu", "5", "--dlow", "3",
                     "--dhigh", "150", "--n", "1000", "--seed", "7",
                     "--out", str(out)]) == 0
        values = [float(line) for line in out.read_text().strip().split("\n")]
        assert len(values) == 1000
        assert all(3.0 <= v <= 150.0 for v in values)

    def test_deterministic_files(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        argv = ["simulate", "--dist", "sqrtinv", "--dlow", "3", "--dhigh", "1500",
                "--n", "200", "--seed", "9"]
        assert _run(argv + ["--out", str(a)]) == 0
        assert _run(argv + ["--out", str(b)]) == 0
        assert a.read_text() == b.read_text()

    def test_summary_line(self, tmp_path, capsys):
        out = tmp_path / "s.txt"
        assert _run(["simulate", "--dist", "power", "--mu", "5", "--dlow", "3",
                     "--dhigh", "150", "--n", "500", "--seed", "1",
                     "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "sigma" in stdout and "L " in stdout and "R " in stdout

    def test_missing_parameter_exits_2(self, tmp_path, capsys):
        assert _run(["simulate", "--dist", "pade", "--dlow", "1", "--dhigh", "5",
                     "--n", "100", "--seed", "1"]) == 2
        assert "--p2" in capsys.readouterr().err

    def test_invalid_domain_exits_2(self, capsys):
        assert _run(["simulate", "--dist", "power", "--mu", "5", "--dlow", "5",
                     "--dhigh", "3", "--n", "100", "--seed", "1"]) == 2
        for flag, value in (("--seed", "-1"), ("--n", "1")):
            argv = ["simulate", "--dist", "power", "--mu", "5", "--dlow", "3",
                    "--dhigh", "4", "--n", "100", "--seed", "1"]
            argv[argv.index(flag) + 1] = value
            assert _run(argv) == 2
            assert "error: %s must be >=" % flag in capsys.readouterr().err

    @pytest.mark.parametrize("kind", list(DENSITIES))
    def test_every_density_matches_library_draws(self, kind, tmp_path):
        density = DENSITIES[kind]
        values = {"mu": 5.0, "p2": 494.7, "p4": 4886.0, "exponent": 3.5,
                  "a1": 3.0, "mu1": 4.0, "a2": 1.0, "mu2": 2.5}
        flags = [arg for name in density.params for arg in ("--" + name, str(values[name]))]
        out = tmp_path / "s.txt"
        assert _run(["simulate", "--dist", density.cli_name, *flags, "--dlow", "3",
                     "--dhigh", "30", "--n", "300", "--seed", "11",
                     "--out", str(out)]) == 0
        # the factory classmethods are named after the kinds
        spec = getattr(DistributionSpec, kind)(
            *(values[name] for name in density.params), 3.0, 30.0)
        sample = draw(tabulate(spec), SampleRequest(n=300, seed=11))
        written = [float(line) for line in out.read_text().split()]
        assert written == sample.values.tolist()

    def test_twopower_flags(self, tmp_path):
        out = tmp_path / "tp.txt"
        assert _run(["simulate", "--dist", "twopower", "--a1", "3", "--mu1", "4",
                     "--a2", "1", "--mu2", "2.5", "--dlow", "10", "--dhigh", "30",
                     "--n", "100", "--seed", "2", "--out", str(out)]) == 0
        values = [float(line) for line in out.read_text().strip().split("\n")]
        assert all(10.0 <= v <= 30.0 for v in values)


class TestTable:
    def test_default_emits_13_rows(self, tmp_path):
        assert _run(["table", "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "table.csv").read_text().strip().split("\n")
        assert len(lines) == 14
        assert not (tmp_path / "table_summary.csv").exists()

    def test_filtered_rows_and_seeds(self, tmp_path):
        assert _run(["table", "--rows", "1,4", "--seeds", "1-3",
                     "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "table.csv").read_text().strip().split("\n")
        assert len(lines) == 1 + 2 * 3
        summary = (tmp_path / "table_summary.csv").read_text().strip().split("\n")
        assert len(summary) == 1 + 2

    def test_bad_row_filter_exits_2(self, tmp_path, capsys):
        assert _run(["table", "--rows", "99", "--out", str(tmp_path)]) == 2
        assert _run(["table", "--rows", "x", "--out", str(tmp_path)]) == 2
        capsys.readouterr()
        assert _run(["table", "--rows", "14-16", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "error: unknown table rows [14, 15, 16] (valid: 1..13)\n"
        # a huge range is checked from its ends, never expanded
        start = time.perf_counter()
        assert _run(["table", "--rows", "1-100000000", "--out", str(tmp_path)]) == 2
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err == "error: unknown table rows [14..100000000] (valid: 1..13)\n"
        assert _run(["table", "--seeds", "-3", "--out", str(tmp_path)]) == 2
        assert "error: --seeds must be >= 0" in capsys.readouterr().err

    def test_seed_count_checked_from_range_ends(self, tmp_path, capsys):
        start = time.perf_counter()
        assert _run(["table", "--seeds", "0-100000000", "--out", str(tmp_path)]) == 2
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err == (
            "error: --seeds selects 100000001 seeds (at most 100000)\n")
        # overlapping ranges count each seed once: 100,001 distinct seeds
        assert _run(["table", "--rows", "99", "--seeds", "1-60000,50000-100001",
                     "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            "error: --seeds selects 100001 seeds (at most 100000)\n")
        # exactly the cap, with repeats, passes on to the row check
        assert _run(["table", "--rows", "99", "--seeds", "1-100000,7,99999-100000",
                     "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "error: unknown table rows [99] (valid: 1..13)\n"
        assert cli._ids([range(5, 8), range(1, 7), range(3, 4), range(9, 10)]) == [
            1, 2, 3, 4, 5, 6, 7, 9]

    def test_matches_golden_table(self, tmp_path):
        # tests/data/table_seeds_1-5.csv was written by the per-seed runner this
        # block runner replaced: every column but the two solved ones is
        # byte-identical, and those agree to 1e-12 relative
        assert _run(["table", "--seeds", "1-5", "--out", str(tmp_path)]) == 0
        got = (tmp_path / "table.csv").read_text().splitlines()
        want = (Path(__file__).parent / "data" / "table_seeds_1-5.csv").read_text().splitlines()
        assert got[0] == want[0] == experiments.TABLE_CSV_HEADER
        assert len(got) == len(want) == 1 + 13 * 5
        for got_line, want_line in zip(got[1:], want[1:]):
            got_cells, want_cells = got_line.split(","), want_line.split(",")
            assert got_cells[:7] == want_cells[:7]
            for g, w in zip(got_cells[7:], want_cells[7:]):
                assert abs(float(g) - float(w)) <= 1e-12 * abs(float(w))

    def test_tabulates_each_row_once(self, tmp_path, monkeypatch):
        specs = []

        def counting_tabulate(spec):
            specs.append(spec)
            return tabulate(spec)

        monkeypatch.setattr(experiments, "tabulate", counting_tabulate)
        assert _run(["table", "--rows", "1-13", "--seeds", "1-3",
                     "--out", str(tmp_path)]) == 0
        assert len(specs) == 13


class TestFigure:
    def test_single_example_artifacts(self, tmp_path):
        assert _run(["figure", "--examples", "14", "--out", str(tmp_path)]) == 0
        csv_path = tmp_path / "figure1.csv"
        svg_path = tmp_path / "figure1.svg"
        assert csv_path.exists() and svg_path.exists()
        lines = csv_path.read_text().strip().split("\n")
        assert lines[0] == "l,mu_hill,mu_improved"
        assert len(lines) == 2000  # header + 1999 entries
        for line in lines[1:]:
            for field in line.split(",")[1:]:
                if field:
                    assert math.isfinite(float(field))
        assert svg_path.read_text().startswith("<svg")

    def test_bad_example_exits_2(self, tmp_path, capsys):
        assert _run(["figure", "--examples", "3", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "error: unknown figure examples [3] (valid: 14..17)\n"
        start = time.perf_counter()
        assert _run(["figure", "--examples", "1-100000000", "--out", str(tmp_path)]) == 2
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err == (
            "error: unknown figure examples [1..13, 18..100000000] (valid: 14..17)\n")
        assert _run(["figure", "--seed", "-2", "--out", str(tmp_path)]) == 2
        assert "error: --seed must be >= 0" in capsys.readouterr().err


class TestParsing:
    def test_no_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            _run([])
        assert exc.value.code == 2

    def test_unknown_dist_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            _run(["simulate", "--dist", "gauss", "--dlow", "1", "--dhigh", "2",
                  "--n", "10", "--seed", "1"])
        assert exc.value.code == 2
