"""Exact conversion of lines of decimal text to float64, a block at a time.

:func:`parse_lines` converts every line of the form
``[digits][.digits][(e|E)[+-]digits]`` with 1 to 19 mantissa digits in a
few numpy passes over the whole block, and reports each line whose value it
cannot prove equal to ``float(line)``; the caller converts those lines
itself.  The method is Clinger's (1990, "How to read floating point
numbers accurately") with the digit handling of Lemire's fast_float (2021,
"Number parsing at a gigabyte per second"):

* The mantissa digits form an integer ``w < 2**63`` and the line stands for
  ``w * 10**q``.  Eight ASCII digits at a time are checked and turned into
  an integer with fast_float's SWAR ``parse_eight_digits`` on unaligned
  little-endian 64-bit loads.
* ``w * 10**q`` is formed as a double-double ``s + t``: ``w`` is the double
  nearest it plus its exact integer remainder, ``10**q`` a (hi, lo) pair
  whose hi is split for Dekker's exact product ahead of time.  For
  ``1 <= w < 2**63`` and ``10**-289 <= 10**q <= 10**289`` no step
  overflows or loses bits to underflow, and ``|s + t - w * 10**q|`` stays
  below ``2**-100 * s``.
* ``s`` is the correctly rounded value if ``|t|`` is below half the spacing
  of the doubles around ``s`` by more than that error bound.  Where ``s``
  is a power of two the spacing below it is half the one above, so those
  lines, and every line near a rounding midpoint, are left unproven.
"""

from __future__ import annotations

import functools

import numpy as np

_U64 = np.uint64
_ASCII_ZEROS = _U64(0x3030303030303030)
_HIGH_BITS = _U64(0x8080808080808080)
_BELOW_TEN = _U64(0x7676767676767676)  # a byte value x <= 0x7f is a digit iff x + 0x76 < 0x80
# _KEEP[j][n] keeps the bytes of a run of n digits in the little-endian word
# that ends 8 * j bytes before the run's end
_KEEP = np.array([[((1 << 64) - 1) << (8 * (8 - min(max(n - 8 * j, 0), 8))) & ((1 << 64) - 1)
                   for n in range(25)] for j in range(3)], _U64)
_POW10 = np.array([10 ** k for k in range(20)], _U64)
_PAD = 24  # bytes before the block, so that a run's three words can start before it
_W_LIMIT = _U64(2 ** 63 - 2 ** 10)  # double(w) <= 2**63 - 2**10 converts back to int64
_Q_MIN, _Q_MAX = -289, 289
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitter for 53-bit doubles
_FRACTION_BITS = _U64(2 ** 52 - 1)
_EXPONENT_BITS = _U64(0x7FF << 52)


def parse_lines(block: bytes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The newline positions, values and proofs of the lines of an ASCII block.

    block ends with a newline; line i runs from the newline before ends[i]
    to ends[i].  values[i] is float(line i) wherever proven[i] is true, and
    an arbitrary number elsewhere.
    """
    buf = np.frombuffer(block, np.uint8)
    marks = buf == ord("\n")
    marks |= buf == ord(".")
    exp_marked = b"e" in block or b"E" in block
    if exp_marked:
        marks |= (buf | 0x20) == ord("e")
    at = np.flatnonzero(marks)
    kind = buf[at]
    line_mark = np.flatnonzero(kind == ord("\n"))
    ends = at[line_mark]
    # each line's last marks before its newline: [.] [e]; a mark anywhere
    # else lands in a digit run, which fails the digit test
    before = line_mark - 1  # -1 on the first line reads the block's last newline
    exp = ends
    if exp_marked:
        has_exp = (kind[before] | 0x20) == ord("e")
        exp = np.where(has_exp, at[before], ends)
        before -= has_exp
    has_dot = kind[before] == ord(".")
    int_end = np.where(has_dot, at[before], exp)
    starts = np.empty_like(ends)
    starts[:1] = 0
    starts[1:] = ends[:-1] + 1
    int_len = int_end - starts
    frac_len = exp - int_end - has_dot
    digits = int_len + frac_len
    ok = (digits >= 1) & (digits <= 19)

    padded = np.empty(buf.size + _PAD, np.uint8)
    padded[:_PAD] = ord("0")
    padded[_PAD:] = buf
    words = np.ndarray((padded.size - 7,), "<u8", padded, strides=(1,))
    non_digits = np.zeros(ends.shape, _U64)
    w = _digit_run(words, int_end, int_len, non_digits)
    w *= _POW10.take(frac_len, mode="clip")
    w += _digit_run(words, exp, frac_len, non_digits)
    q = -frac_len
    if exp_marked:
        sign = buf.take(exp + 1, mode="clip")
        signed = has_exp & ((sign == ord("+")) | (sign == ord("-")))
        exp_len = np.where(has_exp, ends - exp - 1 - signed, 0)
        ok &= ~has_exp | ((exp_len >= 1) & (exp_len <= 8))
        e = _digit_run(words, ends, exp_len, non_digits).astype(np.int64)
        q += np.where(signed & (sign == ord("-")), -e, e)
    ok &= (non_digits & _HIGH_BITS) == 0
    ok &= (w > 0) & (w < _W_LIMIT) & (q >= _Q_MIN) & (q <= _Q_MAX)

    w_int = np.minimum(w, _W_LIMIT).view(np.int64)
    a = w_int.astype(np.float64)
    a_rest = (w_int - a.astype(np.int64)).astype(np.float64)  # exact: |rest| <= 2**9
    row = q - _Q_MIN
    hi1, hi2, lo = (part.take(row, mode="clip") for part in _powers_of_ten())
    hi = hi1 + hi2
    c = a * _SPLIT
    a1 = c - (c - a)
    a2 = a - a1
    p = a * hi
    p_err = a2 * hi2 - (((p - a1 * hi1) - a2 * hi1) - a1 * hi2)  # a * hi == p + p_err
    tail = p_err + (a * lo + a_rest * hi)
    s = p + tail
    t = tail - (s - p)
    ok &= _rounding_proven(s, t)
    return ends, s, ok


def _rounding_proven(s: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Whether s is the double nearest to every number within 2**-100 * s of
    s + t, for normal positive s and |t| at most half a spacing of s."""
    bits = s.view(_U64)
    power = (bits & _EXPONENT_BITS).view(np.float64)  # s rounded down to a power of two
    below_half = np.abs(t) < power * (2.0 ** -53 - 2.0 ** -92)  # (1/2 - 2**-40) spacings
    return below_half & ((bits & _FRACTION_BITS) != 0)


def _digit_run(words: np.ndarray, end: np.ndarray, length: np.ndarray,
               non_digits: np.ndarray) -> np.ndarray:
    """The integer the ASCII digits in [end - length, end) spell, per line,
    for runs of up to 24 bytes; sets the high bit of a byte of non_digits
    where a byte there is not a digit.

    The run's words are loaded to end 0, 8 and 16 bytes before its end, and
    the bytes before the run are set to digit 0.
    """
    value = None
    for j in range(min(-(-int(length.max(initial=0)) // 8), 3)):
        x = words[end + (_PAD - 8 * (j + 1))]
        x ^= _ASCII_ZEROS
        x &= _KEEP[j].take(length, mode="clip")
        non_digits |= x + _BELOW_TEN
        non_digits |= x
        x = _eight_digits(x)
        if j:
            x *= _POW10[8 * j]
            value += x
        else:
            value = x
    return np.zeros(end.shape, _U64) if value is None else value


def _eight_digits(x: np.ndarray) -> np.ndarray:
    """fast_float's parse_eight_digits on digit values, the first digit in
    the lowest byte."""
    x = x * _U64(10) + (x >> _U64(8))  # byte 2k: digit pair 2k, 2k + 1
    pairs = _U64(0x000000FF000000FF)
    x = ((x & pairs) * _U64(100 + (1000000 << 32))
         + ((x >> _U64(16)) & pairs) * _U64(1 + (10000 << 32)))
    return x >> _U64(32)


@functools.cache
def _powers_of_ten() -> tuple[np.ndarray, ...]:
    """10**q for q in [_Q_MIN, _Q_MAX] as hi + lo, with hi split into hi1 + hi2.

    hi is the double nearest 10**q and lo the double nearest 10**q - hi;
    CPython divides integers with correct rounding, so no step here rounds
    twice.
    """
    rows = []
    for q in range(_Q_MIN, _Q_MAX + 1):
        num, den = (10 ** q, 1) if q >= 0 else (1, 10 ** -q)
        hi = num / den
        hi_num, hi_den = hi.as_integer_ratio()
        rows.append((hi, (num * hi_den - hi_num * den) / (den * hi_den)))
    hi, lo = np.array(rows).T
    c = hi * _SPLIT
    hi1 = c - (c - hi)
    return hi1, hi - hi1, lo
