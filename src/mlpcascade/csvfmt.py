"""Vectorized ``%.9g`` and ``%d`` CSV tokens, byte for byte Python's ``%``.

``kernel(fmt, dtype)`` names the kernel for a column format, or None when
there is none (``%.17g``, ``%d`` on floats, any other format). A kernel maps
a 2-D block of values to one token per value, separator included, and flags
the values whose bytes it cannot prove; the writer formats those with
Python's ``%``, which stays the reference for every byte. The writer takes
its kernels from ``group_kernel``: for an integer group with fewer possible
values than values, a token table of its span that ``format_d`` fills.

Tokens. Each token is built in a record of two little-endian uint64 words
(16 bytes), left-aligned and padded with NUL bytes, which the writer drops.
A value reduces to two numbers:

* ``D``, an integer in [0, 1e9) held in a float64: the value's 9
  significant digits (``%.9g``) or its digits left-aligned in 9 places
  (``%d``);
* a layout code: sign, decimal exponent, how many digits are printed,
  separator. One table row per code gives where a dot splits the digits,
  how far they shift right to make room for a sign or a ``0.000`` lead,
  which bytes are kept, and the fixed bytes (sign, lead, dot, exponent,
  separator).

Digits of ``%.9g``. For ``|v|`` in [1e-30, 1e30), ``X = floor(log10|v|)``
and ``y = |v| * 10**(8 - X)``; ``log10`` can be one off, so X moves once
when ``y`` is outside [1e8, 1e9). ``10**(8 - X)`` comes from a table of
correctly rounded powers, so ``y`` carries at most two roundings, an error
below ``2 * 2**-53 * 1e9 < 2.3e-7``. Rounding ``y`` to the nearest integer
is then exact unless its fraction lies within 1e-6 of .5; such values (ties
included: Python rounds the exact binary value half to even) go to the
fallback, with the non-finite ones, those outside [1e-30, 1e30) and the
rare ``y`` still below 1e8. A ``y`` in [1e9, 1e9 + 0.5), which a value a
hair below a power of ten can reach after the move, rounds to 1e9. Zero is
``0`` or ``-0``. A carry to ``D = 1e9`` becomes ``1e8`` with ``X + 1``.
``X`` then picks the fixed form (-4 <= X < 9) or the exponent form, and the
trailing zeros of ``D`` decide how many digits are printed.

``%d`` takes integer columns with ``|x| < 1e9``; larger ones fall back.

For Gaussian float32 features about 3 values in 100 000 fall back.
``scripts/check_g9_exhaustive.py`` compares the ``%.9g`` kernel with ``%``
on every finite float32 bit pattern.
"""

from __future__ import annotations

import numpy as np

_RECORD_BYTES = 16

# Correctly rounded powers 10**k, k = -40..40 (float() of the decimal text).
_POW10 = np.array([float(f"1e{k}") for k in range(-40, 41)])
_POW10_BIAS = 40

# Four decimal digits of 0..9999 as ASCII, first digit in the lowest byte,
# pre-shifted to where they sit in the digit record: digit 0 in byte 0,
# digits 1-4 in bytes 1-4, digits 5-8 in bytes 5-8 (the last one in the
# second word).
_GROUPS = np.arange(10000)
_ASCII4 = sum(
    (_GROUPS // 10 ** (3 - i) % 10 + 48).astype(np.uint64) << np.uint64(8 * i)
    for i in range(4)
)
_DIGITS_1_4 = _ASCII4 << np.uint64(8)
_DIGITS_5_7 = _ASCII4 << np.uint64(40)
_DIGIT_8 = _ASCII4 >> np.uint64(24)
_DIGIT_0 = np.arange(48, 58, dtype=np.uint64)
# trailing zero digits of each 4-digit group; 0000 counts 4
_TRAILING_ZEROS = np.array(
    [4] + [len(str(i)) - len(str(i).rstrip("0")) for i in range(1, 10000)]
)

_U1, _U8, _U56, _U63 = (np.uint64(k) for k in (1, 8, 56, 63))


class _Layouts:
    """The table rows of a kernel's layout codes, as read by ``_records``:
    ``split`` (bytes of the digit string before the dot), ``shift`` (bits the
    digits move right), ``keep`` (digit bytes printed) and ``fixed`` (all
    other bytes); the 128-bit rows are (2, codes) arrays of word 0 and 1.
    ``has_dot`` is False when no layout splits the digits."""

    def __init__(self, tokens):
        n = len(tokens)
        split = np.zeros((n, _RECORD_BYTES), np.uint8)
        keep = np.zeros((n, _RECORD_BYTES), np.uint8)
        fixed = np.zeros((n, _RECORD_BYTES), np.uint8)
        self.shift = np.zeros(n, np.uint64)
        self.has_dot = any(dot_after is not None for _, _, dot_after, _ in tokens)
        for code, (lead, n_digits, dot_after, tail) in enumerate(tokens):
            dot = dot_after is not None
            split[code, : dot_after if dot else 9] = 0xFF
            self.shift[code] = 8 * len(lead)
            end = len(lead) + n_digits + dot
            keep[code, len(lead) : end] = 0xFF
            fixed[code, : len(lead)] = list(lead)
            if dot:
                fixed[code, len(lead) + dot_after] = ord(".")
            fixed[code, end : end + len(tail)] = list(tail)
        self.split, self.keep, self.fixed = (
            a.view("<u8").T.copy() for a in (split, keep, fixed)
        )


def _signed_tokens(sep: bytes, body_tokens) -> list:
    """The rows of one separator: every body layout unsigned then with a
    ``-`` lead, then the empty record of a fallback value."""
    rows = []
    for sign in (b"", b"-"):
        rows += [(sign + lead, n, dot, tail + sep) for lead, n, dot, tail in body_tokens]
    return rows + [(b"", 0, None, b"")]


def _g9_bodies() -> list:
    """``%.9g`` layouts of decimal exponent X in [-30, 30] and 1..9
    significant digits, code ``(X + 30) * 9 + digits - 1``. Zero is D = 0
    printed as one digit with X = 0."""
    rows = []
    for x in range(-30, 31):
        for n in range(1, 10):
            if 0 <= x < 9:  # fixed, the integer digits always printed
                rows.append((b"", max(n, x + 1), x + 1 if n > x + 1 else None, b""))
            elif -4 <= x < 0:
                rows.append((b"0." + b"0" * (-x - 1), n, None, b""))
            else:
                exp = b"e%s%02d" % (b"-" if x < 0 else b"+", abs(x))
                rows.append((b"", n, 1 if n > 1 else None, exp))
    return rows


_G9_BODIES = _g9_bodies()
_D_BODIES = [(b"", n, None, b"") for n in range(1, 10)]  # code: digits - 1


def _tables(bodies) -> tuple[_Layouts, int]:
    """The layouts of ``bodies`` and the code offset of a newline separator;
    code ``2 * len(bodies)`` is the empty record."""
    per_sep = _signed_tokens(b",", bodies)
    return _Layouts(per_sep + _signed_tokens(b"\n", bodies)), len(per_sep)


_G9, _G9_SEP = _tables(_G9_BODIES)
_D, _D_SEP = _tables(_D_BODIES)
_G9_EMPTY = 2 * len(_G9_BODIES)
_D_EMPTY = 2 * len(_D_BODIES)


def _digit_groups(d: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Digit 0, digits 1-4 and digits 5-8 of the 9-digit integers ``d``
    (float64 values in [0, 1e9))."""
    n = d.astype(np.intp)
    hi = n // 10000
    lo = n - hi * 10000
    q = hi // 10000
    hi -= q * 10000
    return q, hi, lo


def _records(groups, code: np.ndarray, layouts: _Layouts) -> np.ndarray:
    """(n, 2) uint64 records of the tokens with the digit ``groups`` of
    ``_digit_groups`` and layout codes ``code``."""
    q, hi, lo = groups
    t = np.empty((2, q.size), np.uint64)
    np.take(_DIGITS_1_4, hi, out=t[0])
    t[0] |= _DIGITS_5_7[lo]
    t[0] |= _DIGIT_0[q]
    np.take(_DIGIT_8, lo, out=t[1])
    if layouts.has_dot:
        # open a one-byte gap for the dot: digits after the split move up a byte
        low = t & np.take(layouts.split, code, axis=1)
        t ^= low
        t[1] <<= _U8
        t[1] |= t[0] >> _U56
        t[0] <<= _U8
        t |= low
    # move the digits s bits up, later in the text, to make room for the lead
    # (0..6 bytes); (w >> 1) >> (63 - s) is w >> (64 - s) without a shift by 64
    s = np.take(layouts.shift, code)
    t[1] <<= s
    t[1] |= (t[0] >> _U1) >> (_U63 - s)
    t[0] <<= s
    t &= np.take(layouts.keep, code, axis=1)
    t |= np.take(layouts.fixed, code, axis=1)
    return t.T.copy()  # records in value order


def _decimal_exponent(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For positive ``a``: ``X`` = floor(log10 a) and ``y = a * 10**(8 - X)``,
    X moved once when ``y`` is outside [1e8, 1e9), as when log10 was one
    off; ``y`` can still be outside when ``a`` is within rounding of a power
    of ten."""
    x = np.floor(np.log10(a)).astype(np.intp)
    y = a * _POW10[_POW10_BIAS + 8 - x]
    fix = (y >= 1e9).astype(np.intp) - (y < 1e8)
    if fix.any():
        x += fix
        y = a * _POW10[_POW10_BIAS + 8 - x]
    return x, y


def format_g9(block: np.ndarray, line_end: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``'%.9g' % v`` plus separator for every value of a 2-D float block.

    ``line_end`` flags the columns whose separator is a newline. Returns the
    (rows, cols, 2) uint64 records and a (rows, cols) mask of the values
    left to the fallback, whose records are empty."""
    v = block.astype(np.float64).reshape(-1)
    a = np.abs(v)
    ok = (a >= 1e-30) & (a < 1e30)
    zero = a == 0
    np.copyto(a, 1.0, where=~ok)  # zeros too: they print as D = 0 with X = 0
    x, y = _decimal_exponent(a)
    d = np.floor(y)
    frac = y - d
    ok &= (y >= 1e8) & (y < 1e9 + 0.5) & (np.abs(frac - 0.5) >= 1e-6)
    d += frac > 0.5
    carry = d == 1e9
    if carry.any():
        d[carry] = 1e8
        x += carry
    np.copyto(d, 0.0, where=~ok)
    ok |= zero
    groups = _digit_groups(d)
    _, hi, lo = groups
    # printed digits: 9 minus the trailing zeros of d's last eight digits
    trailing = _TRAILING_ZEROS[lo]
    trailing += _TRAILING_ZEROS[hi] * (lo == 0)
    code = x * 9
    code += 30 * 9 + 8
    code -= trailing
    code += np.signbit(v) * len(_G9_BODIES)
    code += np.tile(line_end * _G9_SEP, block.shape[0])  # newline separators
    np.copyto(code, _G9_EMPTY, where=~ok)
    return _records(groups, code, _G9).reshape(*block.shape, 2), ~ok.reshape(block.shape)


def format_d(block: np.ndarray, line_end: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``'%d' % x`` plus separator for every value of a 2-D integer block;
    returns what ``format_g9`` does."""
    v = block.reshape(-1)
    a = np.abs(v.astype(np.float64))  # rounds only magnitudes far above 1e9
    ok = a < 1e9
    zero = a == 0
    np.copyto(a, 1.0, where=zero | ~ok)
    x, d = _decimal_exponent(a)  # exact: d = a * 10**(8 - x), integers < 1e9
    np.copyto(d, 0.0, where=zero)  # one digit, 0
    code = x + (v < 0) * len(_D_BODIES)
    code += np.tile(line_end * _D_SEP, block.shape[0])
    np.copyto(code, _D_EMPTY, where=~ok)
    return _records(_digit_groups(d), code, _D).reshape(*block.shape, 2), ~ok.reshape(block.shape)


def kernel(fmt: str, dtype):
    """The kernel that formats values of ``dtype`` under ``fmt``, or None."""
    dtype = np.dtype(dtype)
    if fmt == "%.9g" and dtype.kind == "f" and dtype.itemsize <= 8:
        return format_g9
    if fmt == "%d" and dtype.kind in "iu":
        return format_d
    return None


def group_kernel(fmt: str, group: np.ndarray, line_end: np.ndarray, block_rows: int):
    """The kernel for blocks of the 2-D column group ``group``, whose
    columns end in the separators ``line_end`` flags: ``kernel(fmt,
    group.dtype)``, or, for ``format_d`` on a group whose value span
    ``max - min + 1`` is smaller than its value count, a token table of the
    span. ``format_d`` formats the span once per column, with that column's
    separator, ``block_rows`` values at a time, and each block gathers its
    records from the table with one ``np.take`` per column. A span holding
    a value that ``format_d`` leaves to the fallback keeps the direct
    kernel."""
    kern = kernel(fmt, group.dtype)
    if kern is not format_d or group.size == 0:
        return kern
    lo, hi = group.min(), group.max()
    span = int(hi) - int(lo) + 1
    # format_d falls back on |x| >= 1e9, so if neither end does, no value does
    if span >= group.size or format_d(np.array([[lo], [hi]]), line_end[-1:])[1].any():
        return kern
    cols = group.shape[1]
    # a 16-byte record as one complex128, so each gather is a 1-D take
    table = np.empty((cols, span), np.complex128)
    for start in range(0, span, block_rows):
        # lo + k, k < span, wraps to its true value in the group's dtype
        values = np.arange(start, min(start + block_rows, span)).astype(group.dtype) + lo
        records, _ = format_d(np.broadcast_to(values[:, None], (values.size, cols)), line_end)
        table[:, start : start + values.size] = records.view(np.complex128)[..., 0].T
    offset = int(lo)

    def gather(block: np.ndarray, line_end: np.ndarray):
        rows = block.shape[0]
        out = np.empty((rows, cols), np.complex128)
        for j in range(cols):
            # every value lies in the span, |x| < 1e9, so any cast is exact
            at = np.subtract(block[:, j], offset, dtype=np.intp, casting="unsafe")
            out[:, j] = np.take(table[j], at)
        return out.view(np.uint64).reshape(rows, cols, 2), np.zeros(block.shape, bool)

    return gather
