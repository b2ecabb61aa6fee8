"""The limit curves of scaled primitive-vector polygons.

Four families, each given by its fundamental arc over lam in [0, 1]:

    C        (2 lam/3, lam^2/3 - 1), an arc of y = 3x^2/4 - 1
    C1       (lam(2+lam)/(1+lam)^2, -(2 lam+1)/(1+lam)^2)
    Cdelta   the octagon family, arcs of tilted parabolas
    Cp       the l^p-ball family, hypergeometric (p > 1/2) or incomplete
             beta functions (p <= 1/2) of mu = lam^p/(1 + lam^p)

The full curve is the orbit of the fundamental arc under the dihedral
group of order eight.  The algebraic forms known for some arcs (the
parabola of C, the diamond identity, the p = 1/2 quintic) are residual
checks in `tests/oracles.py`.

`LimitCurve.points` evaluates an arc at a whole array of parameters with
numpy; every other sampler reads it.  An arc is (u, w - 1), (u, w) its
region's normalised wedge moments: `polygon_wedge` at the slopes
(dn, dd) = (1, 0), (1, 1) and (d, 1) of C, C1 and Cdelta:d, and
`ball_wedge` by `scipy.special`, imported on first use: `hyp2f1` for
p > 1/2 and `betainc` for p <= 1/2, where the series loses digits.
`parse_curve` reads a family and its parameter, and `LimitCurve`
refuses a parameter that is not positive.
`curve_csv_chunks` writes the CSV 4096 rows at a time by the float digit
kernel of `textgrid`, which gives repr's text; `curve_svg_chunks`
formats each arc coordinate's magnitude once with {:.6f}, a slice at a
time into one fixed-width grid, and writes each dihedral image from
those texts and their signs, 2^16 rows at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from . import textgrid

Point = tuple[float, float]


# ---------------------------------------------------------------------------
# The normalised wedge moments
# ---------------------------------------------------------------------------


def polygon_wedge(dn: int | float, dd: int, lam: Fraction | np.ndarray) -> tuple:
    """The normalised wedge moments (u, w) of the region dn*u + dd*v <= dn at
    the slopes `lam`: exact for a `Fraction` lam, float64 for an array."""
    den = (dn + dd * lam) ** 2 * (3 * dn + dd)
    return lam * (2 * dn + dd * lam) * (dn + dd) ** 2 / den, dn * lam * lam * (dn + dd) ** 2 / den


def beta_complete(a: float, b: float) -> float:
    """Euler beta B(a, b) of positive a and b."""
    return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))


def ball_wedge(p: float, lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The l^p ball's normalised wedge moments (u, w) at the slopes `lam`;
    its arc is (u, w - 1).  With t = lam^p, mu = t/(1 + t), pref =
    (1 + t)^(-3/p) and F(c) = 2F1(3/p, 1; c; mu), they are lam pref
    F(1 + 1/p)/N and (lam^2/2) pref F(1 + 2/p)/N, N the sum of the two
    numerators at lam = 1 (mu = 1/2).  For p > 1/2 they come from scipy's
    hyp2f1; where t underflows, that is the n = 0 terms lam/N and
    lam^2/(2N).  For p <= 1/2 the series' first term ratio 3mu/(1 + p) is
    at least 1 at mu = 1/2 and hyp2f1 loses digits, so by DLMF 8.17.8
    they are I_mu(1/p, 1 + 2/p) - p lam pref/(2B) and I_mu(2/p, 1 + 1/p)
    - p lam^2 pref/B, B = B(1/p, 2/p), by betainc: t >= 2^-537 if lam > 0."""
    from scipy.special import betainc, hyp2f1  # imported here: `import jarnik` loads no scipy

    t = lam**p
    mu = t / (1.0 + t)
    pref = np.exp(-3.0 / p * np.log1p(t))  # (1 + lam^p)^(-3/p)
    if p > 0.5:
        a, c_u, c_w = 3.0 / p, 1.0 + 1.0 / p, 1.0 + 2.0 / p
        n = 2.0**-a * (hyp2f1(a, 1.0, c_u, 0.5) + 0.5 * hyp2f1(a, 1.0, c_w, 0.5))
        return lam * pref * hyp2f1(a, 1.0, c_u, mu) / n, lam * lam / 2.0 * pref * hyp2f1(a, 1.0, c_w, mu) / n
    b_pp = beta_complete(1.0 / p, 2.0 / p)
    return (betainc(1.0 / p, 1.0 + 2.0 / p, mu) - p * lam * pref / (2.0 * b_pp),
            betainc(2.0 / p, 1.0 + 1.0 / p, mu) - p * lam * lam * pref / b_pp)


# ---------------------------------------------------------------------------
# Curve objects
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LimitCurve:
    """A limit-curve family member and its parametric fundamental arc."""

    family: str  # "C" | "C1" | "Cdelta" | "Cp"
    param: Fraction | float | None = None

    def __post_init__(self) -> None:
        if self.family in ("C", "C1"):
            if self.param is not None:
                raise ValueError(f"curve {self.family} takes no parameter")
        elif self.family in ("Cdelta", "Cp"):
            if self.param is None or self.param <= 0:
                raise ValueError(f"curve {self.family} needs a positive parameter")
        else:
            raise ValueError(f"unknown curve family {self.family!r}")

    def points(self, lams: Sequence[float] | np.ndarray) -> np.ndarray:
        """The arc at every parameter of `lams`, each in [0, 1], as an (n, 2) array."""
        lam = np.asarray(lams, dtype=float)
        if lam.ndim != 1 or not ((lam >= 0.0) & (lam <= 1.0)).all():
            raise ValueError("arc parameter must lie in [0, 1]")
        if self.family == "Cp":
            u, w = ball_wedge(float(self.param), lam)
        else:
            slope = {"C": (1, 0), "C1": (1, 1)}.get(self.family) or (float(self.param), 1)
            u, w = polygon_wedge(*slope, lam)
        return np.column_stack((u, w - 1.0))

    def point(self, lam: float) -> Point:
        x, y = self.points([lam])[0].tolist()
        return (x, y)

    def __str__(self) -> str:
        if self.param is None:
            return self.family
        return f"{self.family}:{self.param}"


def parse_curve(text: str) -> LimitCurve:
    """Parse a curve name: ``C``, ``C1``, ``Cdelta:<d>`` or ``Cp:<p>``."""
    text = text.strip()
    if text in ("C", "C1"):
        return LimitCurve(text)
    name, sep, raw = text.partition(":")
    if sep and name in ("Cdelta", "Cp"):
        try:
            value = Fraction(raw)  # handles both decimals and a/b
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in curve parameter {raw!r}") from None
        return LimitCurve(name, value)
    raise ValueError(f"unsupported curve specification: {text!r}")


# ---------------------------------------------------------------------------
# Sampling and export
# ---------------------------------------------------------------------------


def _uniform_grid(samples: int) -> np.ndarray:
    """lam = i / (samples - 1) for i = 0..samples-1, both endpoints included."""
    if samples < 2:
        raise ValueError("need at least two samples")
    return np.arange(samples) / (samples - 1)


# the eight dihedral maps (x, y), (y, x), (-y, x), (-x, y), (-x, -y),
# (-y, -x), (y, -x), (x, -y): whether each swaps x and y, and its signs
_DIHEDRAL_SWAPS = (False, True, True, False, False, True, True, False)
_DIHEDRAL_SIGNS = np.array(
    [(1, 1), (1, 1), (-1, 1), (-1, 1), (-1, -1), (-1, -1), (1, -1), (1, -1)], dtype=float
)


def dihedral_images(points: np.ndarray) -> np.ndarray:
    """The eight dihedral images of an (n, 2) point array, as an (8, n, 2) array."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    stacked = np.stack([pts[:, ::-1] if swap else pts for swap in _DIHEDRAL_SWAPS])
    return stacked * _DIHEDRAL_SIGNS[:, None, :]


# CSV rows are written this many at a time, as curvature._BLOCK orders are.
_CSV_BLOCK_ROWS = 4096


def curve_csv_chunks(curve: LimitCurve, samples: int) -> Iterator[str]:
    """The arc's CSV on a uniform parameter grid with both endpoints, the
    header and then blocks of (lambda, x, y) rows: the arc is sampled as
    one array before anything is yielded, and its rows are written a block
    at a time as one byte grid (textgrid) of lambda, x and y as repr
    writes them."""
    lams = _uniform_grid(samples)
    arc = curve.points(lams)
    yield "lambda,x,y\n"
    for start in range(0, samples, _CSV_BLOCK_ROWS):
        block = slice(start, start + _CSV_BLOCK_ROWS)
        cols = textgrid.float_grid(np.column_stack((lams[block], arc[block])))
        yield textgrid.lines([cols[:, 0], ",", cols[:, 1], ",", cols[:, 2], "\n"])


def curve_svg_chunks(curve: LimitCurve, samples: int) -> Iterator[str]:
    """The curve's SVG, the fundamental arc and its eight dihedral images
    as a single path, written textgrid._SLICE rows of an image at a time,
    each one byte grid.

    Each arc coordinate's magnitude is formatted once; an image writes the
    texts of the arc's x and y columns, swapped or not, each after its sign:
    the coordinate's own sign bit, flipped where the image negates it (and
    for the y axis, which points down), so -0.0 and values that round to
    zero keep the sign {:.6f} gives them."""
    arc = curve.points(_uniform_grid(samples))
    texts = [textgrid.fixed_grid(col) for col in np.abs(arc).T]
    neg = np.signbit(arc)
    yield (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="-1.2 -1.2 2.4 2.4">\n'
        '  <path d="'
    )
    for i, (swapped, (sx, sy)) in enumerate(zip(_DIHEDRAL_SWAPS, _DIHEDRAL_SIGNS.tolist())):
        cx, cy = (1, 0) if swapped else (0, 1)
        for start in range(0, samples, textgrid._SLICE):
            block = slice(start, start + textgrid._SLICE)
            sign_x = (neg[block, cx, None] ^ (sx < 0)) * np.uint8(ord("-"))
            sign_y = (neg[block, cy, None] ^ (sy > 0)) * np.uint8(ord("-"))
            rows = textgrid.lines([" L ", sign_x, texts[cx][block], " ", sign_y, texts[cy][block]])
            yield rows if start else (" M " if i else "M ") + rows[len(" L "):]
    yield '" fill="none" stroke="black" stroke-width="0.006"/>\n</svg>\n'
