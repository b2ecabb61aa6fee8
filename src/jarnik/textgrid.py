"""Decimal text of numpy columns as byte grids: one row of uint8 text per
value, padded with NUL bytes anywhere in the row, which one
`bytes.translate` deletes.  `float_grid` writes float64 values exactly as
repr does, the shortest decimal that rounds back to the value and the
closest one when several qualify, by Giulietti's Schubfach algorithm
(R. Giulietti, "The Schubfach way to render doubles", 2020) in uint64
numpy over 32-bit limbs; subnormals, inf and nan are written by repr
itself.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache
from typing import Callable, Sequence

import numpy as np

_M32, _M63 = np.uint64(2**32 - 1), np.uint64(2**63 - 1)
_SPAN = 17  # the digits of a normalised Schubfach decimal


def _digits(cols: np.ndarray, mag: np.ndarray) -> None:
    """Write the uint64 values mag, right-aligned, into the last axis of the
    grid cols by repeated division by 10; a zero value has one "0"."""
    width = cols.shape[-1]
    for j in range(width - 1, -1, -1):
        quot = mag // 10
        digit = mag.astype(np.uint8) - quot.astype(np.uint8) * 10  # mod 256
        # a leading zero, where nothing is left, stays NUL
        cols[..., j] = digit + ((mag != 0).view(np.uint8) if j < width - 1 else 1) * ord("0")
        mag = quot


def int_grid(v: np.ndarray, pad: int = 0) -> np.ndarray:
    """The text of each int64 value of v as a (*v.shape, width) grid: a sign
    byte, NUL for a nonnegative value, the digits and `pad` NUL columns."""
    return sliced_int_grid(v.shape, max(int(v.max(initial=0)), -int(v.min(initial=0))), v.__getitem__, pad)


# The sliced writers below take this many rows of values at a time.
_SLICE = 1 << 16


def sliced_int_grid(shape: tuple[int, ...], top: int, values: Callable[[slice], np.ndarray],
                    pad: int = 0) -> np.ndarray:
    """The text of int64 values as int_grid writes it, as one (*shape, width)
    grid for values of magnitude at most top: values(s) gives the rows s of
    the values, which are taken _SLICE rows at a time, so that only one
    slice of them is alive beside the grid."""
    grid = np.zeros((*shape, 1 + len(str(top)) + pad), dtype=np.uint8)
    for start in range(0, shape[0], _SLICE):
        rows = slice(start, start + _SLICE)
        v = values(rows)
        grid[rows, ..., 0] = (v < 0).view(np.uint8) * ord("-")
        _digits(grid[rows, ..., 1 : grid.shape[-1] - pad], np.abs(v).astype(np.uint64))  # -2^63 wraps to 2^63
    return grid


def fixed_grid(v: np.ndarray) -> np.ndarray:
    """The {:.6f} text of each finite float64 value of the 1-d array v as
    one grid, formatted _SLICE values at a time, so that only one slice of
    Python floats and strings is alive beside the grid."""
    top = max(-v.min(initial=0.0), v.max(initial=0.0))
    width = len(f"{top:.6f}") + bool(np.signbit(v).any())  # the largest magnitude's, and a sign
    grid = np.empty((len(v), width), dtype=np.uint8)
    for start in range(0, len(v), _SLICE):
        rows = slice(start, start + _SLICE)
        grid[rows] = str_grid(list(map("{:.6f}".format, v[rows].tolist())), width)
    return grid


def str_grid(texts: Sequence[str], width: int = 0) -> np.ndarray:
    """The ASCII texts as a grid, `width` columns wide if that is not 0."""
    return np.array(texts, dtype=f"S{width}").view(np.uint8).reshape(len(texts), -1)


def lines(parts: Sequence[np.ndarray | str]) -> str:
    """The text of the rows of `parts`, grids of one row per line and
    constant separators, laid side by side."""
    widths = [len(p) if isinstance(p, str) else p.shape[1] for p in parts]
    grid = np.empty((next(len(p) for p in parts if not isinstance(p, str)), sum(widths)), dtype=np.uint8)
    for part, at, width in zip(parts, np.cumsum([0] + widths).tolist(), widths):
        grid[:, at : at + width] = np.frombuffer(part.encode(), np.uint8) if isinstance(part, str) else part
    return grid.tobytes().translate(None, b"\0").decode("ascii")


def _g_row(key: int) -> tuple[int, int, int, int]:
    """(k, h, g1, g0) for the normal float64 values v = c 2^q with biased
    exponent key >> 1 and, for odd key, c = 2^52: k = floor(log10(2^q)), or
    floor(log10(3/4 2^q)) where c = 2^52 and the value below v is half as
    far as the one above, by Giulietti's integer forms of these logs; then
    10^-k = beta 2^r with 2^125 <= beta < 2^126, g = floor(beta) + 1 =
    g1 2^63 + g0, and h = q + r + 127, which is 2..5."""
    q = (key >> 1) - 1075
    k = (q * 661971961083 - (274743187321 if key & 1 and key > 3 else 0)) >> 41
    r = (-k * 913124641741 >> 38) - 125
    g = math.floor(Fraction(10) ** -k / Fraction(2) ** r) + 1
    return k % 2**64, q + r + 127, g >> 63, g & (2**63 - 1)


@cache
def _g_table() -> np.ndarray:  # the _g_row of each key by column, and 1 where filled in
    return np.zeros((5, 4096), dtype=np.uint64)


def _g_columns(key: np.ndarray) -> np.ndarray:
    table, key = _g_table(), key.astype(np.intp)
    for new in set(key[table[4, key] == 0].tolist()):  # not np.unique, which imports numpy.ma
        table[:, new] = (*_g_row(new), 1)
    return table[:4].take(key, axis=1)


def _wide(hi: np.ndarray, lo: np.ndarray, g: np.ndarray, s: np.ndarray, up: bool) -> tuple[np.ndarray, ...]:
    """(hi 2^64 + lo) + g 2^s, or - g 2^s, in 128 bits, for 0 < s < 64."""
    step = lo + (g << s) if up else lo - (g << s)
    return (hi + (g >> (64 - s)) + (step < lo) if up else hi - (g >> (64 - s)) - (step > lo)), step


def _shortest(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(f, k) with f 10^k, f in [10^15, 10^17), the decimal repr writes for
    each positive normal float64 of bits: the shortest that rounds back to
    it, of those the closest, of those the one with f even.  In Giulietti's
    terms v = c 2^q rounds from (c -+ 1/2) 2^q, or from (c - 1/4) 2^q below
    a c = 2^52; with cb = 4c these ends and v, over 10^k, are vbl, vbr and
    vb = rop(g (x << h) 2^-127) for x = cb - 2 (or cb - 1), cb + 2 and cb.
    g cp is taken once, and the ends move it by g 2^(h+1) (or g 2^h)."""
    t, exponent = bits & np.uint64(2**52 - 1), bits >> 52
    k, h, g1, g0 = _g_columns((exponent << 1) | (t == 0))
    c = t | np.uint64(2**52)
    out = c & 1  # an odd c rounds half away from itself: its interval is open
    cp = c << 2 << h
    cl, ch = cp & _M32, cp >> 32

    def mulhi(a):  # the high 64 bits of a cp
        al, ah = a & _M32, a >> 32
        ll, lh, hl = al * cl, al * ch, ah * cl
        return ah * ch + (lh >> 32) + (hl >> 32) + (((ll >> 32) + (lh & _M32) + (hl & _M32)) >> 32)

    def rop(x1, y1, y0):  # Giulietti's figure 8, from x1 = mulhi(g0) and y1 2^64 + y0 = g1 cp
        z = (y0 >> 1) + x1
        return (y1 + (z >> 63)) | (((z & _M63) + _M63) >> 63)

    x1, x0, y1, y0 = mulhi(g0), g0 * cp, mulhi(g1), g1 * cp
    vb = rop(x1, y1, y0)
    vbl, vbr = (rop(_wide(x1, x0, g0, s, up)[0], *_wide(y1, y0, g1, s, up))
                for s, up in ((h + 1 - ((t == 0) & (exponent > 1)), False), (h + 1, True)))
    s = vb >> 2
    # the one multiple of 10^(k+1) in the rounding interval, if there is one,
    sp10 = s // 10 * 10
    upin, wpin = vbl + out <= sp10 << 2, ((sp10 + 10) << 2) + out <= vbr
    # else s or s + 1, whichever is in it, or the closer, or the even one
    uin, win = vbl + out <= s << 2, ((s + 1) << 2) + out <= vbr
    up = (win & ~uin) | ((uin == win) & ((vb & 3) + (s & 1) > 2))
    return np.where(upin ^ wpin, sp10 + np.uint64(10) * wpin, s + up), k.view(np.int64)


def float_grid(v: np.ndarray) -> np.ndarray:
    """The text of each float64 value of v as repr writes it, as a
    (*v.shape, width) grid.  A normal value is its Schubfach decimal f 10^k,
    f normalised to 17 digits d_0..d_16 with d_0 nonzero, and p = k + 17 the
    place of the point.  In fixed notation, for 1e-4 <= |v| < 1e16, "0."
    and -p zeros lead when p <= 0, the point follows d_{p-1} when a nonzero
    digit follows it and ".0" does otherwise; in exponent notation the point
    follows d_0 when a nonzero digit follows it, and "e", the sign and at
    least two digits of p - 1 end the text.  The zeros that end the digits
    after these are dropped.  Zero is written as 1.0 with d_0 = 0."""
    flat = np.ascontiguousarray(v, dtype=np.float64).reshape(-1)
    mag = np.abs(flat)
    normal = (mag >= 2.2250738585072014e-308) & (mag < np.inf)
    expo = normal & ((mag < 1e-4) | (mag >= 1e16))
    f, k = _shortest(np.where(normal, mag, 1.0).view(np.uint64))
    short = f < 10**16
    p = k + _SPAN - short
    point = np.where(expo, 1, p).astype(np.int8)
    digits = np.zeros((_SPAN, len(flat)), dtype=np.uint8)  # row j: d_j of every value
    _digits(digits.T, np.where(short, f * 10, f))
    digits[0][mag == 0.0] = ord("0")
    last = np.full(len(flat), _SPAN, dtype=np.int8)  # 1 + the place of the last nonzero digit
    zeros = np.ones(len(flat), dtype=bool)
    for j in range(_SPAN - 1, 0, -1):
        zeros &= digits[j] == ord("0")
        if not zeros.any():
            break
        last -= zeros
        digits[j] *= ~zeros | (point > j)  # a zero before the point stays
    after = np.where((point > 0) & (point < last), point, 0)  # the point follows d_{after - 1}
    used = np.bincount(after, minlength=_SPAN + 1)
    rows = [np.signbit(flat) * np.uint8(ord("-"))]
    rows += [(-point >= i) * np.uint8(ord(c)) for i, c in zip((0, 0, 1, 2, 3), "0.000")]
    for j in range(_SPAN):
        rows += [digits[j]] + ([(after == j + 1) * np.uint8(ord("."))] if used[j + 1] else [])
    rows += [((point >= last) & ~expo) * np.uint8(ord(c)) for c in ".0"]
    if expo.any():
        e = np.abs(p - 1)
        rows += [(text * expo).astype(np.uint8) for text in (
            ord("e"), np.where(p > 0, ord("+"), ord("-")), (48 + e // 100) * (e >= 100), 48 + e // 10 % 10, 48 + e % 10)]
    grid = np.stack(rows, axis=1)  # at least 25 columns, which every repr fits
    other = ~normal & (mag != 0.0)  # subnormal, inf or nan
    if other.any():
        grid[other] = str_grid([repr(x) for x in flat[other].tolist()], len(rows))
    return grid.reshape(*v.shape, grid.shape[1])
