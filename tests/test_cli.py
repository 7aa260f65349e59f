import math
import re

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
        assert _run(["table", "--seeds", "-3", "--out", str(tmp_path)]) == 2
        assert "error: --seeds must be >= 0" in capsys.readouterr().err

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
        capsys.readouterr()
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
