"""The bytes of b"%.12g" % x for every value x of a float64 table, as CSV
rows, rendered with numpy by table lookup.  ``qthermo.io`` imports this
module when it writes a CSV file, so reading a state or writing JSON
compiles none of it.

A value's text follows from its decimal exponent e and its 12 significant
digits r = rint(|x| * 10**(11 - e)).  The factor 10**(11 - e) is a correctly
rounded double from a table, so the scaled value is within 2 ulps of
|x| * 10**(11 - e), which is 2.2e-4 below 10**12.  Unless it lies within
TIE_MARGIN of a half-integer it therefore rounds to the same integer as the
exact product: r is the correctly rounded significand, as in CPython's
formatter.

A cell's text is assembled in 24 bytes, three little-endian uint64 words:
the 12 digits in two words, with the decimal point (or ".000" for 1e-4 <=
|x| < 1) shifted in and the fraction's trailing zeros left as NUL; then a
word holding the "e+XX" suffix, the separator and, in its top two bytes,
the sign and leading "0" of the next cell.  One bytearray.translate drops
the NULs.  The cells the argument above does not cover are formatted by %:
values within TIE_MARGIN of a rounding tie, non-finite values, and
|x| < 1e-296 (subnormals and exponents below the table).  The benchmark's
seed-1 simulate pass has 1 720 such cells among 1 422 260.
"""

from __future__ import annotations

import numpy as np

TIE_MARGIN = 1e-3
# decimal exponents e with 10**(11 - e) a finite normal double
_E_MIN, _E_MAX = -297, 308
# the smallest |x| rendered by lookup: floor(log10 |x|) stays >= _E_MIN
# even where log10 rounds up to an integer
_TINY = 1e-296
_HUGE = np.finfo(float).max
_ZERO_ROW = _E_MAX - _E_MIN + 1  # the exponent-table row of 0 and -0
_U64 = np.uint64
_MINUS = _U64(ord("-") << 48)
_ROW_END = _U64((ord(",") ^ ord("\n")) << 40)


def _digit_tables() -> tuple[np.ndarray, np.ndarray]:
    """The 4 ASCII digits of 0..9999 as a little-endian word (first digit in
    the low byte), plainly and with trailing zeros as NUL (0 -> empty)."""
    plain = np.arange(48, 58, dtype=_U64)
    stripped = plain * (plain != 48)
    for shift in (_U64(8), _U64(16)):  # 1 -> 2 -> 4 digits: high part, then low part
        low_is_zero = np.arange(plain.size) == 0
        stripped = np.where(
            low_is_zero, stripped[:, None], plain[:, None] | stripped << shift
        ).ravel()
        plain = (plain[:, None] | plain << shift).ravel()
    return plain, stripped


def _exponent_table() -> tuple[np.ndarray, ...]:
    """Per decimal exponent X (rows _E_MIN.._E_MAX, then 0 and -0), the words
    that place the 12 digits: the mask of the digit bytes from the insertion
    point on (two words), the text inserted there with '0' under the digits
    before it (two words), the text's width in bits, the suffix word with
    its ',' separator, and the prefix (top byte, '0').  "%.12g" writes X in
    [-4, 12) in fixed notation: "0." and -X - 1 zeros before the digits when
    X < 0, else the point after X + 1 digits.  Other exponents have the
    point after 1 digit and an "e+XX" suffix."""
    x = np.arange(_E_MIN, _E_MAX + 2)
    zero = x > _E_MAX
    small = (x >= -4) & (x < 0)
    fixed = (x >= 0) & (x < 12)
    sci = ~(zero | small | fixed)
    point = np.where(fixed, x + 1, sci.astype(int))  # digits before the insertion
    width = np.where(small, -x, (~zero).astype(int))  # "." and -X - 1 zeros
    text = np.array([0, 0x2E, 0x302E, 0x30302E, 0x3030302E], dtype=_U64)[width]
    shift = (8 * point).astype(_U64)
    ones = _U64(2**64 - 1)
    high0 = ones << np.minimum(shift, 64)
    high1 = ones << np.maximum(shift, 64) - _U64(64)
    text0 = np.where(point < 8, text << np.minimum(shift, 56), 0).astype(_U64)
    text1 = np.where(point >= 8, text << np.maximum(shift, 64) - _U64(64), 0).astype(_U64)
    zeros = _U64(0x3030303030303030)  # restores the integer digits' trailing zeros
    mag = np.abs(x)
    sign = np.where(x < 0, ord("-"), ord("+")).astype(_U64)
    d = [(mag // k % 10 + 48).astype(_U64) for k in (100, 10, 1)]
    exponent = np.where(mag >= 100, d[0] | d[1] << 8 | d[2] << 16, d[1] | d[2] << 8)
    suffix = np.where(sci, _U64(ord("e")) | sign << 8 | exponent.astype(_U64) << 16, 0)
    return (
        high0,
        high1,
        text0 | zeros & ~high0,
        text1 | zeros & ~high1,
        8 * width.astype(_U64),
        suffix.astype(_U64) | _U64(ord(",")) << 40,
        np.where(small | zero, _U64(ord("0") << 56), _U64(0)),
    )


_DIGITS, _STRIPPED = _digit_tables()
_POW10 = np.array([float(f"1e{11 - e}") for e in range(_E_MIN, _E_MAX + 1)])
_HIGH0, _HIGH1, _FILLED0, _FILLED1, _WIDTH, _SUFFIX, _PREFIX = _exponent_table()


class CsvRenderer:
    """Renders float64 tables of at most ``cells`` values as CSV bytes, each
    value as b"%.12g" % value, rows ended by "\\n".  The work arrays are
    allocated once and reused for every table.  Every index the lookups
    take is in range by construction; mode="clip" lets them write into the
    work arrays without a buffer."""

    def __init__(self, cells: int):
        self._work = [np.empty(cells) for _ in range(6)]
        self._flags = [np.empty(cells, dtype=bool) for _ in range(3)]
        self._text = bytearray(24 * cells + 8)

    def render(self, table: np.ndarray) -> bytearray:
        """The CSV bytes of the C-contiguous float64 ``table``."""
        rows, cols = table.shape
        x = table.ravel()
        n = x.size
        # each step reuses the work arrays the steps before it are done
        # with, viewed as the dtype it needs
        f0, f1, f2, f3, f4, f5 = (w[:n] for w in self._work)
        special, flag, other = (w[:n] for w in self._flags)

        # decimal exponent e, as a row of the exponent table, and the digits r
        a = np.abs(x, out=f0)
        np.greater_equal(a, _TINY, out=special)
        special &= np.less_equal(a, _HUGE, out=flag)
        np.logical_not(special, out=special)
        np.copyto(a, 1.0, where=special)
        e = np.floor(np.log10(a, out=f1), out=f1)
        row = f2.view(np.intp)
        row[...] = e
        row -= _E_MIN
        s = np.take(_POW10, row, out=f1, mode="clip")
        s *= a
        r = np.rint(s, out=f3)
        s -= r
        np.greater(np.abs(s, out=s), 0.5 - TIE_MARGIN, out=flag)
        np.not_equal(x, 0.0, out=other)
        other &= special
        other |= flag
        fallback = np.flatnonzero(other)
        special |= flag
        np.copyto(row, _ZERO_ROW, where=special)
        np.copyto(r, 0.0, where=special)
        # log10 just below a power of ten may round up to it: r = 10**12 is
        # then the digit 1 at the next exponent
        top = np.flatnonzero(np.greater_equal(r, 1e12, out=flag))
        r[top] = 1e11
        row[top] += 1

        # r = first * 10**8 + middle * 10**4 + last, 4 digits each
        last = f0.view(np.int64)
        last[...] = r
        first = np.floor_divide(last, 100000000, out=f1.view(np.int64))
        last -= np.multiply(first, 100000000, out=f3.view(np.int64))
        middle = np.floor_divide(last, 10000, out=f4.view(np.int64))
        last -= np.multiply(middle, 10000, out=f3.view(np.int64))
        ends = np.flatnonzero(np.equal(last, 0, out=flag))
        first_end, middle_end = first[ends], middle[ends]
        w0 = np.take(_DIGITS, middle, out=f3.view(_U64), mode="clip")
        w0 <<= _U64(32)
        w0 |= np.take(_DIGITS, first, out=f4.view(_U64), mode="clip")
        w1 = np.take(_STRIPPED, last, out=f1.view(_U64), mode="clip")
        # last = 0: strip the trailing zeros of middle, or of first if middle = 0
        w0[ends] = np.where(
            middle_end == 0,
            _STRIPPED[first_end],
            _DIGITS[first_end] | _STRIPPED[middle_end] << _U64(32),
        )

        # shift the digits after the insertion point up by the inserted
        # text's width; with no digit after it the point is left out
        high0 = np.take(_HIGH0, row, out=f0.view(_U64), mode="clip")
        high0 &= w0
        w0 ^= high0
        high1 = np.take(_HIGH1, row, out=f4.view(_U64), mode="clip")
        high1 &= w1
        w1 ^= high1
        np.logical_or(high0, high1, out=flag)
        whole = np.flatnonzero(np.logical_not(flag, out=flag))
        width = np.take(_WIDTH, row, out=f5.view(_U64), mode="clip")
        w1 |= np.left_shift(high1, width, out=high1)
        w0 |= np.left_shift(high0, width, out=high1)
        w1 |= np.right_shift(high0, np.subtract(_U64(64), width, out=width), out=high0)
        words = np.frombuffer(self._text, "<u8", 3 * n + 1)  # text order on any host
        joints, digits0, digits1 = words[0::3], words[1::3], words[2::3]
        np.bitwise_or(w0, np.take(_FILLED0, row, out=high0, mode="clip"), out=digits0)
        np.bitwise_or(w1, np.take(_FILLED1, row, out=high0, mode="clip"), out=digits1)
        # no digit after the point: clear the point
        digits0[whole] &= ~_HIGH0[row[whole]]
        digits1[whole] &= ~_HIGH1[row[whole]]

        # each joint: a cell's suffix and separator, the next cell's sign and "0"
        prefix = np.take(_PREFIX, row, out=high0, mode="clip")
        prefix |= np.multiply(np.signbit(x, out=flag), _MINUS, out=high1)
        joints[:-1] = prefix
        joints[-1] = 0
        joints[1:] |= np.take(_SUFFIX, row, out=high1, mode="clip")
        joints[1:].reshape(rows, cols)[:, -1] ^= _ROW_END

        # the fallback text fills the cell's 23 bytes before its separator
        if fallback.size:
            texts = np.array([b"%.12g" % v for v in x[fallback].tolist()], dtype="S23")
            spans = words.view(np.uint8)[6:6 + 24 * n].reshape(n, 24)
            spans[fallback, :23] = texts.view(np.uint8).reshape(-1, 23)
        text = self._text if len(self._text) == 24 * n + 8 else self._text[:24 * n + 8]
        return text.translate(None, b"\0")
