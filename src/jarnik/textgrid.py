"""Decimal text of numpy columns as byte grids: one row of uint8 text per
value, padded with NUL bytes anywhere in the row, which one
`bytes.translate` deletes.  `float_grid` writes float64 values exactly as
repr does, the shortest decimal that rounds back to the value and the
closest one when several qualify, by Giulietti's Schubfach algorithm
(R. Giulietti, "The Schubfach way to render doubles", 2020) in float64
numpy: for 2^-21 < |v| < 2^56, v 10^-k is exact as Dekker's product and
its error (T. J. Dekker, "A floating-point technique for extending the
available precision", 1971), and each of Schubfach's decisions is one
comparison of its fraction with a threshold, certified where the margin
exceeds 2^-44.  Every other value, near-ties such as odd m/2^17 and
subnormals, inf and nan included, is written by repr itself.
"""

from __future__ import annotations

from functools import cache
from typing import Callable, Sequence

import numpy as np

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
    byte, NUL for a nonnegative value, if some value is negative, the
    digits and `pad` NUL columns."""
    low = int(v.min(initial=0))
    return sliced_int_grid(v.shape, max(int(v.max(initial=0)), -low), v.__getitem__, pad, low < 0)


# The sliced writers below take this many rows of values at a time.
_SLICE = 1 << 16


def sliced_int_grid(shape: tuple[int, ...], top: int, values: Callable[[slice], np.ndarray],
                    pad: int = 0, sign: bool = True) -> np.ndarray:
    """The text of int64 values as int_grid writes it, as one (*shape, width)
    grid for values of magnitude at most top, with a sign column if `sign`:
    values(s) gives the rows s of the values, which are taken _SLICE rows
    at a time, so that only one slice of them is alive beside the grid."""
    grid = np.zeros((*shape, sign + len(str(top)) + pad), dtype=np.uint8)
    for start in range(0, shape[0], _SLICE):
        rows = slice(start, start + _SLICE)
        v = values(rows)
        if sign:
            grid[rows, ..., 0] = (v < 0).view(np.uint8) * ord("-")
        _digits(grid[rows, ..., sign : grid.shape[-1] - pad], np.abs(v).astype(np.uint64))  # -2^63 wraps to 2^63
    return grid


def fixed_grid(v: np.ndarray, places: int = 6) -> np.ndarray:
    """The {:.Nf} text, N = places, of each finite float64 value of the
    1-d array v as one grid, formatted _SLICE values at a time, so that
    only one slice of Python floats and strings is alive beside the grid."""
    fmt = f"{{:.{places}f}}".format
    top = max(-v.min(initial=0.0), v.max(initial=0.0))
    width = len(fmt(top)) + bool(np.signbit(v).any())  # the largest magnitude's, and a sign
    grid = np.empty((len(v), width), dtype=np.uint8)
    for start in range(0, len(v), _SLICE):
        rows = slice(start, start + _SLICE)
        grid[rows] = str_grid(list(map(fmt, v[rows].tolist())), width)
    return grid


def str_grid(texts: Sequence[str], width: int = 0) -> np.ndarray:
    """The ASCII texts as a grid, `width` columns wide if that is not 0."""
    return np.array(texts, dtype=f"S{width}").view(np.uint8).reshape(len(texts), -1)


def lines(parts: Sequence[np.ndarray | str]) -> str:
    """The text of the rows of `parts`, grids of one row per line and
    constant separators, laid side by side."""
    return joined(parts).tobytes().translate(None, b"\0").decode("ascii")


def joined(parts: Sequence[np.ndarray | str]) -> np.ndarray:
    """The grids and constant separators of `parts` laid side by side as
    one grid.  A grid of width w is copied as one V{w} element per row; a
    part of width 0 is skipped."""
    widths = [len(p) if isinstance(p, str) else p.shape[1] for p in parts]
    grid = np.empty((next(len(p) for p in parts if not isinstance(p, str)), sum(widths)), dtype=np.uint8)
    for part, at, width in zip(parts, np.cumsum([0] + widths).tolist(), widths):
        if not width:
            continue
        if isinstance(part, str):  # broadcast over the rows
            grid[:, at : at + width] = np.frombuffer(part.encode(), np.uint8)
            continue
        if part.strides[1] != 1:  # a V{w} view needs the bytes of a row adjacent
            part = np.ascontiguousarray(part)
        grid[:, at : at + width].view(f"V{width}")[:] = part.view(f"V{width}")
    return grid


# The float64 kernel takes _LOW < v < _HIGH, where 0 <= -k <= 22: there
# 10^-k is exact, and so is v 10^-k as Dekker's product and its error.
_LOW, _HIGH = 2.0**-21, 2.0**56
_SURE = 2.0**-44  # the margin past which a decision is certified


def _halves(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split of float64 x into two 26-bit halves that sum to it."""
    big = x * 134217729.0  # 2^27 + 1
    hi = big - (big - x)
    return hi, x - hi


@cache
def _table() -> np.ndarray:
    """Columns k, 10^-k, its halves, wl and 10 - wr by key (biased exponent
    << 1 | (fraction == 0)) of v = c 2^q: k = floor(log10(2^q)), or
    floor(log10(3/4 2^q)) below a c = 2^52, by Giulietti's integer forms
    of these logs, and v rounds from (c - wl) 2^q..(c + wr) 2^q over 10^k,
    wr = 2^(q-1) 10^-k and wl = wr, or wr/2 below c = 2^52."""
    key = np.r_[2004, 2006:2158]  # the keys of _LOW < v < _HIGH; 2005 is _LOW itself
    q, edge = (key >> 1) - 1075, key & 1
    k = (q * 661971961083 - edge * 274743187321) >> 41
    p = np.array([float(10**n) for n in range(23)])[-k]
    wr = np.ldexp(p, q - 1)
    table = np.zeros((6, 4096))
    table[:, key] = k, p, *_halves(p), wr / (1 + edge), 10 - wr
    return table


def _shortest(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(f, k, sure) for each float64 _LOW < v < _HIGH: where sure, f 10^k,
    f in [10^15, 10^17), is the decimal repr writes, the shortest that
    rounds back to v, of those the closest, of those the one with f even.
    By Giulietti's Schubfach, with T = v 10^-k = s + phi, s = floor(T), as
    Dekker's exact hi + lo: each decision compares phi with one threshold.
    s rounds to v if phi < wl, s + 1 if phi > 1 - wr, the multiple of ten
    s - r, r = s mod 10, if phi < wl - r, s - r + 10 if phi > 10 - wr - r,
    and s + 1 is closer if phi > 1/2.  phi and the thresholds are within
    2^-48, so a margin beyond _SURE settles each comparison exactly and
    leaves no end of the interval, open or closed, and no tie to decide."""
    bits = v.view(np.int64)
    k, p, p1, p0, wl, wr10 = _table().take((bits >> 52 << 1) | (bits << 12 == 0), axis=1)
    v1, v0 = _halves(v)
    hi = v * p
    lo = v1 * p1  # ((v1 p1 - hi) + v1 p0 + v0 p1) + v0 p0, each term into a buffer dead by then
    lo -= hi
    lo += np.multiply(v1, p0, out=v1)
    lo += np.multiply(v0, p1, out=v1)
    lo += np.multiply(v0, p0, out=v0)
    down = np.floor(lo, out=v0)
    phi = np.subtract(lo, down, out=lo)
    s = hi.astype(np.int64)
    s += down.astype(np.int64)
    tens = s // 10 * 10  # not s % 10, which numpy divides out in full
    a, b = np.subtract(wl, phi, out=wl), np.subtract(wr10, phi, out=wr10)
    r = np.subtract(s, tens, out=p1)  # s - tens in int64, then as float64
    margin, gap = np.abs(a), hi
    for x, y in ((a, r), (b, 9.0), (b, r), (phi, 0.5)):  # not np.minimum.reduce, which stacks them first
        np.abs(np.subtract(x, y, out=gap), out=gap)
        np.minimum(margin, gap, out=margin)
    uin, win, upin, wpin = a > 0, b < 9, a > r, b < r
    up = (win & ~uin) | ((uin == win) & (phi > 0.5))
    s += up
    tens += 10 * wpin
    return np.where(upin ^ wpin, tens, s), k.astype(np.int64), margin > _SURE


def _swar(x: np.ndarray) -> np.ndarray:
    """The 8 ASCII digits of each int64 0 <= x < 10^8 as a (*x.shape, 8)
    grid, first digit first: its halves in two 32-bit lanes of one word,
    then quotient and remainder in 16- and 8-bit lanes by multiply-shift."""
    top = x // 10000
    w = top | (x - top * 10000) << 32
    for base, mul, shift, mask, lane in ((100, 5243, 19, 0x7F0000007F, 16), (10, 103, 10, 0xF000F000F000F, 8)):
        q = (w * mul >> shift) & mask
        w = q | (w - q * base) << lane
    return (w | 0x3030303030303030).astype("<i8", copy=False).view(np.uint8).reshape(*x.shape, 8)


def float_grid(v: np.ndarray) -> np.ndarray:
    """The text of each float64 value of v as repr writes it, as a
    (*v.shape, width) grid.  A value the kernel certifies is its Schubfach
    decimal f 10^k, f normalised to 17 digits d_0..d_16 with d_0 nonzero,
    and p = k + 17 the place of the point.  In fixed notation, for
    1e-4 <= |v| < 1e16, "0." and -p zeros lead when p <= 0, the point
    follows d_{p-1} when a nonzero digit follows it and ".0" does
    otherwise; in exponent notation the point follows d_0 when a nonzero
    digit follows it, and "e", the sign and two digits of p - 1 end the
    text.  The zeros that end the digits after these are dropped.  Zero is
    written as 1.0 with d_0 = 0; every other value is written by repr."""
    flat = np.ascontiguousarray(v, dtype=np.float64).reshape(-1)
    mag, sign = np.abs(flat), np.signbit(flat)
    fast = (mag > _LOW) & (mag < _HIGH)
    expo = fast & ((mag < 1e-4) | (mag >= 1e16))
    f, k, sure = _shortest(np.where(fast, mag, 1.0))
    short = f < 10**16
    p = k + _SPAN - short
    point = np.where(expo, 1, p).astype(np.int8)
    f = np.where(short, f * 10, f)
    high = f // 10**8
    lead = high // 10**8
    digits = np.empty((_SPAN, len(flat)), dtype=np.uint8)  # row j: d_j of every value
    digits[0] = lead + ord("0")
    digits[1:] = _swar(np.stack((high - lead * 10**8, f - high * 10**8), axis=1)).reshape(-1, _SPAN - 1).T
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
    # only the columns some value uses: a sign, "0.000" up to the deepest point
    rows = [sign * np.uint8(ord("-"))] if sign.any() else []
    deepest = -int(point.min(initial=1))
    rows += [(-point >= i) * np.uint8(ord(c)) for i, c in zip((0, 0, 1, 2, 3), "0.000") if i <= deepest]
    for j in range(_SPAN):
        rows += [digits[j]] + ([(after == j + 1) * np.uint8(ord("."))] if used[j + 1] else [])
    suffix = (point >= last) & ~expo
    if suffix.any():
        rows += [suffix * np.uint8(ord(c)) for c in ".0"]
    if expo.any():  # |p - 1| <= 16 for the values the kernel takes
        e = np.abs(p - 1)
        rows += [(text * expo).astype(np.uint8) for text in (
            ord("e"), np.where(p > 0, ord("+"), ord("-")), 48 + e // 10, 48 + e % 10)]
    other = ~(fast & sure) & (mag != 0.0)  # beyond the kernel or uncertified, subnormal, inf or nan
    if other.any():
        rows += [np.zeros_like(digits[0])] * (25 - len(rows))  # 25 columns, which every repr fits
    grid = np.stack(rows, axis=1)
    if other.any():
        grid[other] = str_grid([repr(x) for x in flat[other].tolist()], grid.shape[1])
    return grid.reshape(*v.shape, grid.shape[1])
