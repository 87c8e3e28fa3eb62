"""Enumerate solutions of x*y == N (mod m) and count them in rectangles.

Points live in the half-open fundamental square [0, m)^2 and are produced
in ascending x order, so output is deterministic and suitable for golden
tests.  When gcd(N, m) > 1 every operation returns a CommonFactor value
instead of a point set: for the factoring callers that gcd *is* the
answer, so it is a success path, not an error.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd
from typing import NamedTuple

import numpy as np

from . import _kernels

__all__ = [
    "HyperbolaPoint",
    "SolutionSet",
    "Rect",
    "CommonFactor",
    "solve_all",
    "solve_strip",
    "count_in_rect",
]


class HyperbolaPoint(NamedTuple):
    x: int
    y: int


@dataclass(frozen=True)
class CommonFactor:
    """gcd(N, modulus) > 1 was found; carries the factor."""

    modulus: int
    gcd: int


@dataclass(frozen=True)
class Rect:
    """Half-open rectangle [x1, x2) x [y1, y2)."""

    x1: int
    x2: int
    y1: int
    y2: int

    def __post_init__(self):
        if not (0 <= self.x1 < self.x2 and 0 <= self.y1 < self.y2):
            raise ValueError(f"degenerate rectangle {self}")

    @property
    def area(self) -> int:
        return (self.x2 - self.x1) * (self.y2 - self.y1)


@dataclass(frozen=True)
class SolutionSet:
    """All points of x*y == target (mod m) in [0, m)^2, x ascending."""

    m: int
    target: int
    xs: np.ndarray = field(repr=False)
    ys: np.ndarray = field(repr=False)

    @property
    def points(self) -> list[HyperbolaPoint]:
        return [HyperbolaPoint(int(x), int(y))
                for x, y in zip(self.xs, self.ys)]

    def __len__(self) -> int:
        return int(self.xs.size)


def solve_all(N: int, m: int) -> SolutionSet | CommonFactor:
    """Every solution (x, N*inv(x) mod m); exactly phi(m) points."""
    if m < 2:
        raise ValueError("modulus must be >= 2")
    g = gcd(N, m)
    if g > 1:
        return CommonFactor(m, g)
    xs, ys = _kernels.hyperbola_points(N % m, m)
    return SolutionSet(m, N % m, xs, ys)


def _strip_arrays(N: int, m: int, x0: int, width: int):
    """(xs, ys) of solutions with x in [x0, min(x0+width, m))."""
    return _kernels.hyperbola_points(N, m, x0, width)


def solve_strip(N: int, m: int, x0: int, width: int
                ) -> list[HyperbolaPoint] | CommonFactor:
    """Solutions restricted to one vertical strip of x values.

    Inverses are computed strip-locally: prefix products over the strip's
    units plus a single extended-gcd, so memory stays O(width).
    """
    if m < 2:
        raise ValueError("modulus must be >= 2")
    if not 0 <= x0 < m:
        raise ValueError("strip start out of range")
    if width < 1:
        raise ValueError("width must be >= 1")
    g = gcd(N, m)
    if g > 1:
        return CommonFactor(m, g)
    xs, ys = _strip_arrays(N, m, x0, width)
    return [HyperbolaPoint(int(x), int(y)) for x, y in zip(xs, ys)]


def count_in_rect(N: int, m: int, r: Rect) -> int | CommonFactor:
    """Exact c_R by enumeration over the rectangle's x range.

    This is the brute-force oracle the analysis modules are tested
    against; it never estimates.
    """
    if m < 2:
        raise ValueError("modulus must be >= 2")
    if r.x2 > m or r.y2 > m:
        raise ValueError(f"rectangle exceeds the fundamental square: {r}")
    g = gcd(N, m)
    if g > 1:
        return CommonFactor(m, g)
    xs, ys = _strip_arrays(N, m, r.x1, r.x2 - r.x1)
    return int(np.count_nonzero((ys >= r.y1) & (ys < r.y2)))
