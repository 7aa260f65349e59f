import hashlib
import itertools
import math
import os
import re
import subprocess
import sys
import threading
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tailest import _decimals, cli, experiments
from tailest.estimator import OrderedSample, hill_plot_series
from tailest.experiments import figure_csv, run_full_table, summarize_table, table_csv
from tailest.sampler import DENSITIES, DistributionSpec, draw, tabulate

E = math.e

# numpy picks its float64 loops by CPU, and on x86-64 some of the AVX-512
# ones (log1p and power among them) differ in the last bit from those a CPU
# without AVX-512 gets, which NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL
# AVX512_SPR" selects on a CPU with AVX-512.  That moves the draws of some
# densities and the values derived from logs, so a byte pin records one
# value per path, each from the same commit.  The sha256 of these ufuncs'
# bits at fixed inputs names the path in use; on any other path the pinned
# tests fail.
SIMD_PATHS = {
    "75fca184207ba02568db9aa20352e3255cf113e0935d5a065ca59e7f127a15b3": "avx512",
    "6e55c9022aad8064979ef3568456c25a68cc4f41ee656a2aac0de40c64e8b76f": "avx2",
}


def _simd_path() -> str:
    x = np.linspace(0.5, 1e4, 4096)
    probe = hashlib.sha256(np.log(x).tobytes() + np.log1p(x).tobytes()
                           + np.power(x, 3.5).tobytes()).hexdigest()
    assert probe in SIMD_PATHS, "no values recorded for numpy's loops here (probe %s)" % probe
    return SIMD_PATHS[probe]


def _pinned(recorded):
    """A value recorded on every path, or the entry of a dict of them by
    path for the path in use."""
    return recorded[_simd_path()] if isinstance(recorded, dict) else recorded


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
        path.write_text("name,%s\na,1.5\nb,2.5\n" % ("v" * 200_000))  # in the header
        assert _run(["estimate", str(path), "--column", "value"]) == 2
        assert capsys.readouterr().err == (
            "error: %s:1: field larger than field limit (131072)\n" % path)

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

    def test_near_tied_values_exit_0(self, tmp_path, capsys):
        # the plain mean of these 13 logs rounds below ln X_13; their shifted
        # logs give the oracle's Hill mu 1 + 13 / ln(1 + 2^-50/3) = 4.3910e16
        # and bounded-domain mu 4.3909e16
        path = tmp_path / "near_ties.txt"
        path.write_text("3.000000000000001\n" + "3.0\n" * 12)
        assert _run(["estimate", str(path)]) == 0
        captured = capsys.readouterr()
        assert "\nhill mu=4.391e+16 alpha=4.391e+16\n" in captured.out
        assert "\nimproved mu=4.391e+16 alpha=4.391e+16\n" in captured.out
        assert captured.err == ""

    def test_degenerate_sample_exits_4(self, tmp_path, capsys):
        path = tmp_path / "flat.txt"
        path.write_text("5.0\n5.0\n5.0\n")
        assert _run(["estimate", str(path)]) == 4
        # distinct values whose logs tie are not degenerate: the oracle's Hill
        # mu is 1 + 11 / ln(1 + 2^-51/3) = 7.4309e16
        path.write_text("%r\n" % math.nextafter(3.0, 4.0) + "3.0\n" * 10)
        capsys.readouterr()
        assert _run(["estimate", str(path)]) == 0
        assert "\nhill mu=7.431e+16 alpha=7.431e+16\n" in capsys.readouterr().out

    def test_window_override(self, tmp_path, capsys):
        path = tmp_path / "data.txt"
        path.write_text("".join("%r\n" % float(v) for v in range(1, 21)))
        assert _run(["estimate", str(path), "--l", "10", "--r", "2"]) == 0
        out = capsys.readouterr().out
        assert "window l=10 r=2 (k=9)" in out
        assert _run(["estimate", str(path), "--l", "50"]) == 4

    def test_window_flags_selecting_no_window_exit_2(self, tmp_path, capsys):
        # checked before the file is read: a missing file is not reported
        path = tmp_path / "missing.txt"
        for flags, flag in ((["--l", "0"], "--l"), (["--l", "1"], "--l"),
                            (["--r", "0"], "--r"), (["--l", "5", "--r", "5"], "--r"),
                            (["--l", "5", "--r", "7"], "--r")):
            code, out, err = _estimate(path, capsys, *flags)
            assert (code, out) == (2, "")
            assert err.startswith("error: %s " % flag) and err.count("\n") == 1

    def test_r_at_or_beyond_the_sample_without_l_exits_4(self, tmp_path, capsys):
        # the default l is the sample size, so the message names that, not l
        path = tmp_path / "data.txt"
        path.write_text("".join("%r\n" % (1.0 + 0.01 * v) for v in range(1000)))
        for r in ("1000", "5000"):
            assert _estimate(path, capsys, "--r", r) == (
                4, "", "error: --r %s must be below the sample size 1000\n" % r)

    def test_root_past_the_bracket_exits_4(self, tmp_path, capsys):
        # one 10 above 20,000 ones: the window (l, 1) has y = 1/l, whose root
        # lies beyond |alpha * ln(R/L)| = 1e4 from l = 10,000 on
        path = tmp_path / "data.txt"
        path.write_text("10.0\n" + "1.0\n" * 20_000)
        error = "error: no root within |alpha * ln(R/L)| <= 10000\n"
        assert _estimate(path, capsys) == (4, "", error)
        assert _estimate(path, capsys, "--l", "10000") == (4, "", error)
        code, out, err = _estimate(path, capsys, "--l", "9999")
        assert (code, err) == (0, "")
        assert out.endswith(" iterations=1 converged=yes\n")

    def test_plot_output(self, tmp_path, capsys):
        path = tmp_path / "data.txt"
        path.write_text("".join("%r\n" % (1.0 + 0.37 * v) for v in range(30)))
        plot = tmp_path / "series.csv"
        assert _run(["estimate", str(path), "--plot", str(plot)]) == 0
        lines = plot.read_text().strip().split("\n")
        assert lines[0] == "l,mu_hill,mu_improved"
        assert len(lines) == 30  # header + (n - r) entries

    @pytest.mark.parametrize("values, flags, digest", [
        # blanks in both columns: l = 2, 3 ("2,,")
        ("4\n4\n4\n2\n1\n", [], {
            "avx512": "3afc3c3ddb889e161c2766510698475dde3be2ae5ce8075b7ac52c4786e6f20e",
            "avx2": "efe4dd697e55620f05754599fc2ec460ac95bf83e71bb9541d3b01c425c56859"}),
        # blanks in mu_improved only: X_l == X_r at l = 3, 4 ("3,14.44...,")
        ("5\n4\n4\n4\n2\n1\n", ["--r", "2"], {
            "avx512": "13001e6ee611f535c71d5aba93211015af07d8d9850c7046ea813b969ed1da89",
            "avx2": "18959bf45509164d2802d0d431ad8505bef91b8bf9a8740aaf9bd6b9bb6bf67c"}),
    ], ids=["blank_in_both_columns", "blank_in_mu_improved"])
    def test_plot_of_tied_sample_matches_golden_digest(self, values, flags, digest, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text(values)
        plot = tmp_path / "series.csv"
        assert _run(["estimate", str(path), *flags, "--plot", str(plot)]) == 0
        assert hashlib.sha256(plot.read_bytes()).hexdigest() == _pinned(digest)


def _values_past_first_block(n: int) -> str:
    """n lines of 17-digit values, several times the reader's block size."""
    return "".join("%.17g\n" % (1.0 + i * 1e-3) for i in range(n))


def _column_past_first_piece() -> str:
    """A CSV of 70,009 records, more than one piece of experiments._PIECE:
    an empty cell on line 1,000, in the first piece, and 'banana' on line
    70,002, in the second."""
    lines = ["id,value"] + ["%d,%.17g" % (i, 1.0 + i * 1e-3) for i in range(1, 70_010)]
    lines[999] = "999,"
    lines[70_001] = "70001,banana"
    return "\n".join(lines) + "\n"


# Right-aligned lines, none of which the decimal kernel proves, so past the
# first blocks the reader skips it for 15 of every 16 blocks: 34 blocks of
# _PADDED_BLOCK_BYTES, and line 250,001 is in block 28.
_PADDED = ["%14.6f" % (1.0 + i * 1e-3) for i in range(300_000)]
_PADDED_BLOCK_BYTES = 1 << 17

# What estimate printed on 1.5, 2.5, 3.5 before the block reader.
OUT_3 = ("n 3  window l=3 r=1 (k=3)\nbounds L=1.5 R=3.5\nmean_log 0.8582\n"
         "hill mu=3.209 alpha=2.209\nimproved mu=0.5129 alpha=-0.4871\n"
         "improved-iterative mu=0.5129 alpha=-0.4871 iterations=5 converged=yes\n")

# (input text, --column or None, exit code, stdout, stderr with {path}),
# pinned from the line-by-line reader that the block reader replaced; the
# CRLF, lone-CR and line-separator cases from the block reader before the
# decimal kernel.  The padded cases are pinned from the reader before the
# unproven lines of a block went to float() in one call, and the column
# cases from "column_named_twice" on from the csv.DictReader column reader,
# before column cells went to _checked in pieces.
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
    "bad_line_past_first_block_crlf": (
        _values_past_first_block(300_000).replace("\n", "\r\n") + "banana\r\n2.5\r\n", None, 2,
        "", "error: {path}:300001: not a number: 'banana'\n"),
    "bad_line_past_first_block_lone_cr": (
        _values_past_first_block(300_000).replace("\n", "\r") + "banana\r2.5\r", None, 2, "",
        "error: {path}:300001: not a number: 'banana'\n"),
    "line_separator": ("1.5\u20282.5\n3.5\n", None, 2, "",
                       "error: {path}:1: not a number: '1.5\\u20282.5'\n"),
    "zero_past_first_block": (
        _values_past_first_block(300_000) + "0\n2.5\n", None, 3, "",
        "error: {path}:300001: non-positive value '0'\n"),
    "padded_past_16_blocks": (
        "\n".join(_PADDED) + "\n", None, 0,
        "n 300000  window l=300000 r=1 (k=300000)\nbounds L=1 R=301\nmean_log 4.726\n"
        "hill mu=1.212 alpha=0.2116\nimproved mu=7.005e-06 alpha=-1\n"
        "improved-iterative mu=7.005e-06 alpha=-1 iterations=6 converged=yes\n", ""),
    "padded_comment_blank_bad_line_past_16_blocks": (
        "\n".join(_PADDED[:250_000] + ["# note", "", "banana"] + _PADDED[250_000:]) + "\n",
        None, 2, "", "error: {path}:250003: not a number: 'banana'\n"),
    "padded_zero_past_16_blocks": (
        "\n".join(_PADDED[:250_000] + ["0"] + _PADDED[250_000:]) + "\n", None, 3, "",
        "error: {path}:250001: non-positive value '0'\n"),
    "column": ("name,value\na,1.5\nb,\nc,2.5\nd,3.5\n", "value", 0, OUT_3, ""),
    "column_quoted_crlf": ('name,value\r\n"a, x","1.5"\r\n"b\nc",2.5\r\nd,3.5\r\n',
                           "value", 0, OUT_3, ""),
    "column_bad_cell": ("name,value\na,1.5\nb,banana\nc,2.5\n", "value", 2, "",
                        "error: {path}:3: not a number: 'banana'\n"),
    "column_zero_cell": ("name,value\na,1.5\nb, 0 \nc,2.5\n", "value", 3, "",
                         "error: {path}:3: non-positive value '0'\n"),
    "column_named_twice": ("value,name,value\n9,a,1.5\n9,b,2.5\n9,c,3.5\n", "value", 0,
                           OUT_3, ""),
    "column_bad_cell_in_record_over_lines": (
        'name,value\n"a\nb",1.5\n"c\nd",banana\ne,2.5\n', "value", 2, "",
        "error: {path}:5: not a number: 'banana'\n"),
    "column_blank_records_before_bad_cell": ("name,value\na,1.5\n\n\nb,banana\n", "value", 2,
                                             "", "error: {path}:5: not a number: 'banana'\n"),
    "column_header_only": ("name,value\n", "value", 4, "",
                           "error: {path}: need at least 2 observations, got 0\n"),
    "column_blank_first_line": ("\nname,value\na,1.5\nb,2.5\n", "value", 2, "",
                                "error: {path}: no column named 'value'\n"),
    "column_empty_file": ("", "value", 2, "", "error: {path}: no column named 'value'\n"),
    "column_unterminated_quote": ('name,value\na,1.5\nb,2.5\nc,"3.5\n', "value", 0, OUT_3, ""),
    # the csv module reads a NUL byte as a character since Python 3.11
    "column_nul": ("name,value\na,1.5\nb,2\x005\nc,3.5\n", "value", 2, "",
                   "error: {path}:3: not a number: '2\\x005'\n" if sys.version_info >= (3, 11)
                   else "error: {path}:3: line contains NUL\n"),
    "column_lone_cr_quoted_cr": ('name,value\ra,1.5\r"b\rc",2.5\rd,3.5\r', "value", 0,
                                 OUT_3, ""),
    "column_quoted_padding": ('name,value\na," 1.5 "\nb,"\t2.5"\nc, "3.5"\n', "value", 2, "",
                              "error: {path}:4: not a number: '\"3.5\"'\n"),
    "column_short_and_long_records": ("name,value\na\nb,1.5\nc,2.5,x,y\nd,3.5\n", "value", 0,
                                      OUT_3, ""),
    "column_bad_cell_past_first_piece": (_column_past_first_piece(), "value", 2, "",
                                         "error: {path}:70002: not a number: 'banana'\n"),
}


# Lines for the reader's bit-for-bit property: every shape of decimal the
# fast path takes or hands back, the integers and binary midpoints where its
# 2**63 guard and rounding proof decide, and lines it leaves to float().
_DIGITS = st.text("0123456789", min_size=1, max_size=25)


@st.composite
def _decimal_lines(draw):
    digits = draw(st.text("0", max_size=3)) + draw(_DIGITS)  # with leading zeros
    dot = draw(st.none() | st.integers(0, len(digits)))  # '1.' and '.5' included
    text = digits if dot is None else digits[:dot] + "." + digits[dot:]
    if draw(st.booleans()):
        text += (draw(st.sampled_from("eE")) + draw(st.sampled_from(["", "+", "-"]))
                 + draw(st.text("0123456789", min_size=1, max_size=3)))
    return text


@st.composite
def _binary_midpoints(draw):
    """A number halfway between two neighbouring doubles, in at most 19 digits,
    scaled by a power of ten that the exponent undoes."""
    x = draw(st.integers(2 ** 53, 2 ** 57) | st.integers(2 ** 53, 2 ** 63 - 1))  # 16-19 digits
    step = 1 << (x.bit_length() - 53)  # the spacing of doubles at x
    digits = str(x - x % step + step // 2)
    pad = draw(st.integers(0, 19 - len(digits)))
    return digits + "0" * pad + "e-%d" % pad


_LINES = st.one_of(
    _decimal_lines(),
    st.builds(lambda k, d: str(2 ** k + d), st.sampled_from([53, 63]), st.integers(-2048, 2048)),
    _binary_midpoints(),
    st.builds(lambda fmt, v: fmt % v, st.sampled_from(["%.17g", "%r", "%.6e"]),
              st.floats(1e-291, 1e-289) | st.floats(1e289, 1e291)),
    st.sampled_from([" 7 ", "+2.5", "1_000.5", "9_9e-1_0", "# note", "", "\t3e2",
                     "\u0661\u0662"]),
)


def _readable(text: str) -> bool:
    """Whether the reader accepts the line: a positive finite number, a blank
    or a comment."""
    try:
        return 0.0 < float(text) < math.inf
    except ValueError:
        return not text.strip() or text.strip().startswith("#")


def _checked_per_text(path, lines, texts, comments):
    """cli._checked's result, one text at a time: the float array, or the
    exit code and message of the first bad text."""
    values = []
    for lineno, text in zip(lines, texts):
        text = text.strip()
        if not text or (comments and text.startswith("#")):
            values.append(math.nan)
            continue
        try:
            value = float(text)
        except ValueError:
            return 2, "%s:%d: not a number: %r" % (path, lineno, text)
        if value <= 0.0:
            return 3, "%s:%d: non-positive value %r" % (path, lineno, text)
        if not value < math.inf:
            return 2, "%s:%d: not a finite number: %r" % (path, lineno, text)
        values.append(value)
    return np.array(values, dtype=float)


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
        # the padded cases reach the kernel retry of block 16 and 32 only in
        # blocks of the size they were written for
        block = _PADDED_BLOCK_BYTES if case.startswith("padded") else cli._BLOCK_BYTES
        with mock.patch.object(cli, "_BLOCK_BYTES", block):
            assert _estimate(path, capsys, *flags) == (code, out, err.format(path=path))

    @pytest.mark.parametrize("case", [case for case in PARITY if case.startswith("padded")])
    def test_padded_corpus_with_retries_on_a_worker(self, case, tmp_path, capsys):
        # in batches of two blocks the retried blocks 16 and 32 come first and
        # are converted in the reading thread; in batches of three a worker
        # thread converts them
        text, column, code, out, err = PARITY[case]
        path = tmp_path / "input.txt"
        path.write_bytes(text.encode("utf-8"))
        parse_lines = _decimals.parse_lines
        on_worker = []

        def spy(block):
            on_worker.append(threading.current_thread() is not threading.main_thread())
            return parse_lines(block)

        with mock.patch.object(cli, "_BLOCK_BYTES", _PADDED_BLOCK_BYTES), \
                mock.patch.object(cli, "_THREADS", 3), \
                mock.patch.object(_decimals, "parse_lines", spy):
            assert _estimate(path, capsys) == (code, out, err.format(path=path))
        # the kernel ran on the first batch, blocks 0-2, then only on block 16
        # and, where no error in block 28 ends the read, block 32
        retries = 2 if case == "padded_past_16_blocks" else 1
        assert sorted(on_worker) == [False] + [True] * (2 + retries)

    @pytest.mark.parametrize("bad, index, text", [
        (130, 140, b"\xff2.5"), (150, 165, b"\xff2.5"), (130, 170, b"0"), (150, 185, b"0")],
        ids=["not_utf8_in_next_block", "not_utf8_in_next_block_odd",
             "zero_two_blocks_later", "zero_two_blocks_later_odd"])
    def test_first_error_in_input_order(self, bad, index, text, tmp_path, capsys):
        # 16 blocks of 256 bytes, each converted on a worker thread or this
        # one: 'banana' is in block 6 (line 131) or 7 (line 151), the later
        # line one or two blocks after it; pinned from the reader before
        # blocks went to threads
        lines = [b"%.17g" % (1.0 + i * 1e-3) for i in range(300)]
        lines[bad] = b"banana"
        lines[index] = text
        path = tmp_path / "input.txt"
        path.write_bytes(b"\n".join(lines) + b"\n")
        with mock.patch.object(cli, "_BLOCK_BYTES", 256):
            assert _estimate(path, capsys) == (
                2, "", "error: %s:%d: not a number: 'banana'\n" % (path, bad + 1))

    def test_more_workers_than_cores_give_the_values_of_one_thread(self, tmp_path):
        lines = ["%.17g" % (1.0 + i * 1e-3) for i in range(1200)]
        lines[100:1200:50] = ["+2.5"] * 22  # lines the kernel leaves to float()
        path = tmp_path / "values.txt"
        path.write_text("\n".join(lines) + "\n")
        expected = np.array([float(t) for t in lines])
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with mock.patch.object(cli, "_BLOCK_BYTES", 128), \
                    mock.patch.object(cli, "_THREADS", 4):
                values = cli._read_values(str(path), None)
        finally:
            sys.setswitchinterval(interval)
        assert values.tobytes() == expected.tobytes()

    def test_kernel_error_raised_with_no_thread_left(self, tmp_path):
        path = tmp_path / "values.txt"
        path.write_text(_values_past_first_block(300))  # 22 blocks of 256 bytes
        parse_lines = _decimals.parse_lines
        numbers = itertools.count(1)
        threads = set()

        def fail_third(block):  # and keep the blocks after it busy
            threads.add(threading.current_thread())
            number = next(numbers)
            if number == 3:
                raise MemoryError
            if number > 3:
                time.sleep(0.05)
            return parse_lines(block)

        running = threading.active_count()
        with mock.patch.object(cli, "_BLOCK_BYTES", 256), \
                mock.patch.object(_decimals, "parse_lines", fail_third):
            with pytest.raises(MemoryError):
                cli._read_values(str(path), None)
        assert threads - {threading.main_thread()} and next(numbers) - 1 < 22
        assert threading.active_count() == running

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

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(lines=st.lists(_LINES.filter(_readable), max_size=40),
           end=st.sampled_from(["\n", "\r\n", "\r"]), last_end=st.booleans(),
           block=st.integers(1, 64))
    def test_values_bit_equal_to_float_per_line(self, tmp_path_factory, lines, end,
                                                last_end, block):
        # small blocks put block cuts inside and between the lines
        lines = lines + ["1.5", "2.5"]
        path = tmp_path_factory.getbasetemp() / "property.txt"
        path.write_bytes((end.join(lines) + (end if last_end else "")).encode("utf-8"))
        # in one thread: a hand-over to a worker costs more than a block of
        # a few bytes; the tests above cut lines between threads
        with mock.patch.object(cli, "_BLOCK_BYTES", block), mock.patch.object(cli, "_THREADS", 1):
            values = cli._read_values(str(path), None)
        expected = [float(t) for t in lines if t.strip() and not t.strip().startswith("#")]
        assert values.tobytes() == np.array(expected).tobytes()

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(texts=st.lists(_LINES | st.sampled_from(["nan", "-inf", "-2.5", "0", "banana"]),
                          max_size=40))
    def test_checked_matches_per_text_reference(self, texts):
        # line numbers as the plain reader passes them (an array) and as the
        # column reader does (a tuple)
        for comments, lines in ((True, 7 + 3 * np.arange(len(texts))),
                                (False, tuple(range(2, 2 + len(texts))))):
            expected = _checked_per_text("f", lines, texts, comments)
            try:
                got = cli._checked("f", lines, texts, comments)
            except cli._CliError as exc:
                got = exc.code, exc.message
            if isinstance(expected, tuple):
                assert got == expected
            else:
                assert isinstance(got, np.ndarray) and got.dtype == np.float64
                assert np.array_equal(np.isnan(got), np.isnan(expected))
                assert got[~np.isnan(got)].tobytes() == expected[~np.isnan(expected)].tobytes()

    def test_rounding_proof_rejects_midpoints_and_powers_of_two(self):
        # s + t stands for w * 10**q up to 2**-100 * s; below a power of two
        # the spacing halves, so even -0.3 spacings may round down
        s = np.array([1.5, 1.5, 1.5, 3.0, 2.0, 2.0, 2.0])
        t = np.array([0.49, 0.5, -0.5, -0.49, 0.0, -0.3, 0.3]) * np.spacing(s)
        assert _decimals._rounding_proven(s, t).tolist() == [
            True, False, False, True, False, False, False]

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


# sha256 of simulate's stdout, 1000 draws with seed 7, for each density's
# flags, pinned from the writer that joined str() of each value; growth's
# draws differ by SIMD path.
SIMULATE_DIGESTS = {
    "power": ("--dist power --mu 5 --dlow 3 --dhigh 4",
              "1301ee2fc97320221b230959d2ee8077ef990a112be07ca116038a3f49c0ff4b"),
    "pade": ("--dist pade --p2 494.7 --p4 4886 --dlow 1 --dhigh 5",
             "6e6d3c5c1d1c72e79acad7d4298bd845369ce598d857e6c2aabbd0a0cbd35f80"),
    "logx": ("--dist logx --dlow 100 --dhigh 400",
             "8c7d468886bf3946332e4a22255af32383aa483c97a52893da559fd1a510d750"),
    "invlogx": ("--dist invlogx --dlow 3000 --dhigh 6000",
                "17cac595bede58489b2bad0a758870b551589292e5d274fe67d209b0837cf489"),
    "sqrtinv": ("--dist sqrtinv --dlow 3 --dhigh 15000",
                "ea6f97017876efaa37f6ed479720743a8ede489764316efede6800353fd38868"),
    "growth": ("--dist growth --exponent 3.5 --dlow 3 --dhigh 10000", {
        "avx512": "1f1e46674314b3d0e1e7bbdccf0259a9a2931a39e33ef3b586bf06213edda54a",
        "avx2": "7da053e2b348a0df5617216f037cfb2dc424dba2c813058383fb16c380f85456"}),
    "twopower": ("--dist twopower --a1 3 --mu1 4 --a2 1 --mu2 2.5 --dlow 10 --dhigh 30",
                 "a3fc2f24f09c1e8ac8371350a517ee4564f8b5ebf9205e1b224bb3fbdfcb6326"),
}


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
        assert capsys.readouterr().err == "error: pade14 takes parameters ('p2', 'p4'), got ()\n"
        assert _run(["simulate", "--dist", "power", "--dlow", "3", "--dhigh", "4",
                     "--n", "100", "--seed", "1"]) == 2
        assert capsys.readouterr().err == "error: power takes parameters ('mu',), got ()\n"

    def test_parameter_the_density_does_not_take_exits_2(self, tmp_path, capsys):
        # the flag would be ignored: log_over_x has no parameter
        out = tmp_path / "s.txt"
        argv = ["simulate", "--dist", "logx", "--mu", "5", "--dlow", "100", "--dhigh", "400",
                "--n", "100", "--seed", "7"]
        for extra in ([], ["--out", str(out)]):
            assert _run(argv + extra) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and not out.exists()
            assert captured.err == "error: log_over_x takes parameters (), got ('mu',)\n"

    def test_invalid_domain_exits_2(self, capsys):
        assert _run(["simulate", "--dist", "power", "--mu", "5", "--dlow", "5",
                     "--dhigh", "3", "--n", "100", "--seed", "1"]) == 2
        for flag, value in (("--seed", "-1"), ("--n", "1")):
            argv = ["simulate", "--dist", "power", "--mu", "5", "--dlow", "3",
                    "--dhigh", "4", "--n", "100", "--seed", "1"]
            argv[argv.index(flag) + 1] = value
            assert _run(argv) == 2
            assert "error: %s must be >=" % flag in capsys.readouterr().err

    @pytest.mark.parametrize("bound, value", [("--dhigh", "inf"), ("--dlow", "inf"),
                                              ("--dlow", "nan")])
    def test_non_finite_domain_exits_2(self, bound, value, capsys):
        # refused before the grid is built, so numpy warns of nothing
        argv = ["simulate", "--dist", "power", "--mu", "5", "--dlow", "3",
                "--dhigh", "4", "--n", "100", "--seed", "1"]
        argv[argv.index(bound) + 1] = value
        assert _run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: d_%s must be finite, got %s\n" % (bound[3:], value)

    def test_draw_count_capped(self, tmp_path, capsys):
        # checked before any array is built: 10^13 draws would need ~1 PB
        out = tmp_path / "s.txt"
        for n in (cli._MAX_DRAWS + 1, 10**13):
            assert _run(["simulate", "--dist", "power", "--mu", "5", "--dlow", "3",
                         "--dhigh", "4", "--n", str(n), "--seed", "1",
                         "--out", str(out)]) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and not out.exists()
            assert captured.err == "error: --n asks for %d draws (at most 10000000)\n" % n

    def test_integral_outside_float_range_exits_2(self, capsys):
        # x^100 is finite up to 1200, but its integral overflows
        assert _run(["simulate", "--dist", "growth", "--exponent", "100", "--dlow", "1",
                     "--dhigh", "1200", "--n", "100", "--seed", "1"]) == 2
        assert capsys.readouterr().err == (
            "error: density power_growth(exponent=100) on [1, 1200] integrates to inf "
            "on the grid, outside the range of floats\n")

    def test_unresolved_grid_exits_2(self, tmp_path, capsys):
        # power(5) on [3, 1e6]: the grid's first cell, [3, 103], holds all the mass
        out = tmp_path / "s.txt"
        assert _run(["simulate", "--dist", "power", "--mu", "5", "--dlow", "3",
                     "--dhigh", "1e6", "--n", "100", "--seed", "1",
                     "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err == (
            "error: one cell of the 10000-point grid on [3, 1e+06] holds 100.0% of the "
            "probability (at most 5%); raise --grid-points or narrow --dlow/--dhigh\n")

    def test_every_builtin_scenario_resolves(self, tmp_path):
        # the largest one-cell mass over every table row and figure is 0.0194 (row 1)
        scenarios = [*experiments.TABLE_ROWS.values(), *experiments.FIGURE_EXAMPLES.values()]
        for spec in (scenario.spec for scenario in scenarios):
            flags = [arg for name, value in spec.params for arg in ("--" + name, repr(value))]
            assert _run(["simulate", "--dist", DENSITIES[spec.kind].cli_name, *flags,
                         "--dlow", repr(spec.d_low), "--dhigh", repr(spec.d_high),
                         "--grid-points", str(spec.grid_points), "--n", "2", "--seed", "1",
                         "--out", str(tmp_path / "s.txt")]) == 0, spec.describe()

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
        spec = DistributionSpec.of(kind, 3.0, 30.0, **{name: values[name] for name in density.params})
        sample = draw(tabulate(spec), 300, 11)
        written = [float(line) for line in out.read_text().split()]
        assert written == sample.values.tolist()

    @pytest.mark.parametrize("flags, digest", SIMULATE_DIGESTS.values(), ids=list(SIMULATE_DIGESTS))
    def test_stdout_matches_golden_digest(self, flags, digest, capsys):
        assert _run(["simulate", *flags.split(), "--n", "1000", "--seed", "7"]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == _pinned(digest)

    def test_out_file_equals_stdout_across_pieces(self, tmp_path, capsys):
        # 150,000 lines: two piece boundaries and a short last piece
        argv = ["simulate", "--dist", "power", "--mu", "5", "--dlow", "3", "--dhigh", "4",
                "--n", "150000", "--seed", "7"]
        assert _run(argv) == 0
        stdout = capsys.readouterr().out.encode()
        out = tmp_path / "s.txt"
        assert _run(argv + ["--out", str(out)]) == 0
        assert out.read_bytes() == stdout
        assert hashlib.sha256(stdout).hexdigest() == (
            "1631a6ca4095bcf550625066db1ee1067c34f213cb34c72e25b04e4f03bad685")

    def test_twopower_flags(self, tmp_path):
        out = tmp_path / "tp.txt"
        assert _run(["simulate", "--dist", "twopower", "--a1", "3", "--mu1", "4",
                     "--a2", "1", "--mu2", "2.5", "--dlow", "10", "--dhigh", "30",
                     "--n", "100", "--seed", "2", "--out", str(out)]) == 0
        values = [float(line) for line in out.read_text().strip().split("\n")]
        assert all(10.0 <= v <= 30.0 for v in values)


class TestTable:
    def test_degenerate_cell_names_row_and_seed_exit_4(self, tmp_path, capsys, monkeypatch):
        # two draws on a domain one float wide tie or round onto a bound
        spec = DistributionSpec.of("power", 3.0, math.nextafter(3.0, 4.0), mu=5.0)
        monkeypatch.setitem(experiments.TABLE_ROWS, 14,
                            experiments.TableRowSpec(14, spec, 2, 5.0))
        assert _run(["table", "--rows", "2,14", "--seeds", "3-4", "--out", str(tmp_path)]) == 4
        assert capsys.readouterr().err.startswith("error: table row 14, seed 3: ")

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
        # block runner replaced, with sigma and mu_hill re-recorded when every
        # estimate moved to shifted logs: every column but the two solved ones
        # is byte-identical, and those agree to 1e-12 relative.  Its avx2
        # twin was written by this runner at the commit before the draws came
        # out descending; there mu_hill differs in rows 2, 3 and 11.
        assert _run(["table", "--seeds", "1-5", "--out", str(tmp_path)]) == 0
        got = (tmp_path / "table.csv").read_text().splitlines()
        name = _pinned({"avx512": "table_seeds_1-5.csv", "avx2": "table_seeds_1-5_avx2.csv"})
        want = (Path(__file__).parent / "data" / name).read_text().splitlines()
        assert got[0] == want[0] == "row,seed,mu_input,sigma,L,R,mu_hill,mu_iter5,mu_direct"
        assert len(got) == len(want) == 1 + 13 * 5
        for got_line, want_line in zip(got[1:], want[1:]):
            got_cells, want_cells = got_line.split(","), want_line.split(",")
            assert got_cells[:7] == want_cells[:7]
            for g, w in zip(got_cells[7:], want_cells[7:]):
                assert abs(float(g) - float(w)) <= 1e-12 * abs(float(w))

    def test_table_bytes_match_golden_digest(self, tmp_path):
        # sha256 of the table.csv `table --seeds 1-20` writes, recorded with
        # numpy 2.4 on x86-64 before rows that draw the same number of values
        # came to share their uniforms (avx2: at the commit before the draws
        # came out descending); table_summary.csv is left out, since
        # statistics.stdev rounds differently on Python 3.10 and 3.11
        assert _run(["table", "--seeds", "1-20", "--out", str(tmp_path)]) == 0
        assert hashlib.sha256((tmp_path / "table.csv").read_bytes()).hexdigest() == _pinned({
            "avx512": "c5372df45a2cab71ad70a3ac032f427550d2411be864b02bc96fc4e41bdbe901",
            "avx2": "e00431ec38f601e17d2fd06d1b88fce8f3a8dd7a262e70bdddc62f54993c9b53"})

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

    # sha256 of each file `figure --examples 14-17 --seed 1` writes, recorded
    # with numpy 2.4 on x86-64: the plot CSV and SVG writers keep every byte
    # (the SVGs are the same on both SIMD paths)
    GOLDEN = {
        "figure1.csv": {"avx512": "46579298ce5342b8335c8887fc56b8de6bad1821a0e8abb57d93f7c19b36e03c",
                        "avx2": "c70e31d03e7e0f2462105910ae249ec74af48a58e3d4c3a130547f2681a6d731"},
        "figure1.svg": "35c311b9018e8c0508847f1463fd64d4c7c354b5feecc21afbca345ebf76ef3d",
        "figure2.csv": {"avx512": "1d15920366e229a6ba52737c27c5ebd9ffdb797d3dd0563fbcf10dd18828bd08",
                        "avx2": "86afa9885b9e0dfb6f3f2906e1fe0a76382abf0fa21af72697e0af3a33fb92b0"},
        "figure2.svg": "24669a931859e4ead93933bc27cb1630ba769cd2d2c52d444fbc40cdeb912958",
        "figure3.csv": {"avx512": "883df0acae29468e64408a9a632ba899fa60450f7572fedee0a9da2bde652939",
                        "avx2": "4f2755535029b4ff24fd1c4d0dbd3fa7d9a843463112dbc9376c0bc7e0c93b05"},
        "figure3.svg": "1722059354e67b121f49dee9c21f483e2894ecc04e964bcca56ad9fbc9298715",
        "figure4.csv": {"avx512": "c6ae16185ab3fc1901ae97973a55b8d12498c0cef1343d7d13fa50e6a26cfea6",
                        "avx2": "dc44b601a1e3021582477a6a210949b0836104c6ff9b3d0db527df2cd8102021"},
        "figure4.svg": "47c91b43a92afab150dc348cdce257e5424945f498dbeb4d95771146dbfd3743",
    }

    def test_matches_golden_digests(self, tmp_path):
        assert _run(["figure", "--examples", "14-17", "--seed", "1", "--out", str(tmp_path)]) == 0
        assert {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                for path in tmp_path.iterdir()} == {
                    name: _pinned(digest) for name, digest in self.GOLDEN.items()}

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


class TestWritePieces:
    """Every file the CLI writes has the same bytes whatever the piece size
    of experiments._csv_pieces, and is the text the library returns."""

    # blanks in both columns at l = 2, 3, 4 (r = 1), and in mu_improved at
    # l = 3, 4, 5 (r = 2): at 2 rows a piece both straddle the first boundary
    PLOTS = {"plot1.csv": ([4, 4, 4, 4, 2, 1], 1), "plot2.csv": ([5, 4, 4, 4, 4, 2, 1], 2)}
    SIMULATE = SIMULATE_DIGESTS["power"][0].split() + ["--n", "1000", "--seed", "7"]

    def _write_all(self, out, capsys):
        """The bytes of every file written under out, and simulate's stdout."""
        out.mkdir()
        assert _run(["table", "--rows", "1-13", "--seeds", "1-3", "--out", str(out)]) == 0
        table = run_full_table([1, 2, 3])
        assert (out / "table.csv").read_text() == table_csv(table)
        assert (out / "table_summary.csv").read_text() == table_csv(summarize_table(table))
        for name, (values, r) in self.PLOTS.items():
            data = out.parent / (name + ".txt")
            data.write_text("".join("%d\n" % v for v in values))
            assert _run(["estimate", str(data), "--r", str(r), "--plot", str(out / name)]) == 0
            series = hill_plot_series(OrderedSample(np.array(values, dtype=float)), r)
            assert (out / name).read_text() == figure_csv(series)
        assert _run(["simulate", *self.SIMULATE, "--out", str(out / "simulate.txt")]) == 0
        capsys.readouterr()
        assert _run(["simulate", *self.SIMULATE]) == 0
        stdout = capsys.readouterr().out.encode()
        assert (out / "simulate.txt").read_bytes() == stdout
        return {path.name: path.read_bytes() for path in out.iterdir()}, stdout

    def test_files_identical_across_piece_boundaries(self, tmp_path, capsys, monkeypatch):
        whole, stdout = self._write_all(tmp_path / "whole", capsys)
        assert hashlib.sha256(stdout).hexdigest() == SIMULATE_DIGESTS["power"][1]
        assert (whole["plot1.csv"].splitlines()[1:5]
                == [b"2,,", b"3,,", b"4,,", b"5,2.8033688011112043,-5.926389783255148"])
        # 6 values a piece: 1 table row, 2 plot rows, 6 simulate lines
        monkeypatch.setattr(experiments, "_PIECE", 6)
        assert self._write_all(tmp_path / "pieces", capsys) == (whole, stdout)


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
