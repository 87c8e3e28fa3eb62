"""Factor N by matching nearby points of two modular-hyperbola solution sets.

Write N = U*V with U = u1*a + u0, V = v1*a + v0.  Reducing N mod a and
mod a-1 plants the pairs (u0, v0) and (u0+u1, v0+v1) (reduced) among the
phi(a) resp. phi(a-1) hyperbola solutions.  When a is chosen so that u1
and v1 are smaller than the grid cell, the two planted points land in the
same or neighboring cells, so scanning neighbor-cell point pairs and
checking each reconstruction (u1*a + u0)*(v1*a + v0) == N recovers the
split in O(a^(1+eps)) work.

Two variants: the balanced factorer assumes U < V < 2U and uses square
cells of side ceil(sqrt(a)) with a = ceil_cbrt(2N); the general variant
uses w-by-h rectangles, doubling w until the planted pair fits.  Each is
a list of cell shapes for one loop, _hide_seek, which owns the exits, the
gcd shortcut and the counters.  Both modes scan each shape through one
driver, _kernels._scan_windows, which leaves its base points unbucketed
and buckets only the shifted ones.  Full mode runs it over one window of
the whole grid, by _kernels.hyperbola_scan, on both whole solution sets
(_kernels._point_sets); they do not depend on the cell shape, so both
variants enumerate them once per N, and the scan expands from the
smaller set.
Strip mode runs it over windows of whole grid columns, from the set mod
a, enumerating each window's points as it goes, so it holds about
_kernels._SCAN_CHUNK points of each set at once instead of all phi(a) +
phi(a-1), and returns the same answer and pair count.  Widths 2 and 4
have at most 5 = 2*2 + 1 rows, all neighbours of each other, so both
modes scan them as one row of height a (_kernels._grid).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from math import gcd, isqrt

from . import _kernels
from ._kernels import OutOfRangeError
from .arith import ceil_cbrt
# not called here: hsbench/tracing.py wraps hideseek.factor._strip_arrays
from .solutions import _strip_arrays  # noqa: F401

__all__ = [
    "Factorization",
    "Prime",
    "Unit",
    "FactorStats",
    "InvariantError",
    "OutOfRangeError",
    "N_MIN",
    "hide_seek_balanced",
    "hide_seek_general",
    "trial_division",
    "factor",
    "is_probable_prime",
]

# Below this, plain trial division is used outright; sidesteps degenerate
# small-a geometry without complicating the main path.
N_MIN = 10**6


class InvariantError(RuntimeError):
    """An internal soundness or completeness guarantee was violated."""


@dataclass(frozen=True)
class Factorization:
    """A verified nontrivial split n = u * v with 1 < u <= v < n."""

    n: int
    u: int
    v: int

    def __post_init__(self):
        if self.u * self.v != self.n or not 1 < self.u <= self.v < self.n:
            raise InvariantError(f"bad split {self.n} = {self.u} * {self.v}")


@dataclass(frozen=True)
class Prime:
    n: int


@dataclass(frozen=True)
class Unit:
    n: int = 1


@dataclass
class FactorStats:
    """Work counters the hide-seek operations add to; points and pairs sum
    over the widths tried and the solution arrays each width scans, so
    full mode counts phi(a) + phi(a-1) per width although it enumerates
    both sets once per call.  In strip mode points counts work
    done: once a width needs more than one column window, each window
    counts the bk + 4 shifted columns it enumerates, so points exceeds
    full mode's while pairs and the split stay equal."""

    method: str = ""
    a: int = 0
    w: int = 0
    h: int = 0
    points: int = 0
    pairs: int = 0


def _gcd_shortcut(N: int, a: int) -> Factorization | None:
    """Split off gcd(a, N) or gcd(a-1, N) when nontrivial."""
    cands = []
    for m in (a, a - 1):
        g = gcd(m, N)
        if 1 < g < N:
            cands.append((min(g, N // g), max(g, N // g)))
    if not cands:
        return None
    u, v = min(cands)
    return Factorization(N, u, v)


def hide_seek_balanced(N: int, strip_mode: bool = False,
                       stats: FactorStats | None = None
                       ) -> Factorization | None:
    """Factor N assuming some split U < V < 2U exists.

    Sets a = ceil_cbrt(2N) so that u1, v1 < sqrt(a), and scans one cell
    shape, squares of side ceil(sqrt(a)), at radius 1.  Returns None when
    no pair verifies, e.g. when the premise fails.
    """
    return _hide_seek(N, strip_mode, stats, "balanced", cube=2 * N, dyc=1,
                      shapes_of=lambda a: [(isqrt(a - 1) + 1,) * 2])


def hide_seek_general(N: int, strip_mode: bool = False,
                      stats: FactorStats | None = None
                      ) -> Factorization | None:
    """Factor N = U*V without the balance restriction.

    With a = ceil_cbrt(N), tries rectangle widths w = 2, 4, 8, ... <= a
    and heights h = max(1, a // w); once w exceeds u1 the planted pair is
    at most one cell apart horizontally and two vertically, hence the
    (1, 2) scan radii.  Returns None only after the final width.
    It needs a split with U > N / a**2, so that V < a**2 has two base-a
    digits; `factor` trial-divides up to ceil_cbrt(N) first, which removes
    every N without one.
    """
    return _hide_seek(N, strip_mode, stats, "general", cube=N, dyc=2,
                      shapes_of=lambda a: [
                          (1 << k, max(1, a >> k))
                          for k in range(1, a.bit_length())])


def _hide_seek(N: int, strip_mode: bool, stats: FactorStats | None,
               method: str, cube: int, dyc: int,
               shapes_of: Callable[[int], list[tuple[int, int]]]
               ) -> Factorization | None:
    """The loop of both variants, with a = ceil_cbrt(cube).  After the
    exits (N < 2, N >= 2**63, a < 3) and the gcd shortcut, it scans the
    cell shapes (w, h) of shapes_of(a) in order at radii (1, dyc) until
    one verifies; stats shows the shape scanned last.  The balanced
    variant's one shape is fixed by a, so stats shows it from before the
    shortcut on.  Full mode enumerates both solution sets once, by
    _point_sets, and scans each shape with one hyperbola_scan over them;
    strip mode enumerates per window, every shape anew (_strip_scan)."""
    if N < 2:
        return None
    if N >= 1 << 63:
        raise OutOfRangeError("hide-seek kernels require N < 2**63")
    a = ceil_cbrt(cube)
    if a < 3:
        return None
    shapes = shapes_of(a)
    if stats is not None:
        stats.method = method + "-strip" if strip_mode else method
        stats.a = a
        if method == "balanced":
            stats.w, stats.h = shapes[0]
    short = _gcd_shortcut(N, a)
    if short is not None:
        return short
    sets = None if strip_mode else _kernels._point_sets(N, a, a - 1)
    for w, h in shapes:
        if stats is not None:
            stats.w, stats.h = w, h
        if strip_mode:
            u, v, points, pairs = _strip_scan(N, a, w, h, dyc)
        else:
            u, v, points, pairs = _kernels.hyperbola_scan(
                N, a, a - 1, w, h, 1, dyc, sets=sets)
        if stats is not None:
            stats.points += points
            stats.pairs += pairs
        if u:
            return Factorization(N, u, v)
    return None


def _strip_scan(N: int, a: int, cell_w: int, cell_h: int, dyc: int
                ) -> tuple[int, int, int, int]:
    """Strip mode's pair scan: _kernels._scan_windows over windows of
    k = _SCAN_CHUNK // cell_w whole grid columns, the base set mod a in
    every window.  With at most cell_w points of a set per column, a
    window holds about _SCAN_CHUNK points of each set at once.  A window
    of the whole grid enumerates both sets together (_point_sets), but
    unlike hyperbola_scan keeps the base mod a: on the strip benchmark
    (a below 5000) expanding from the smaller set took more page faults
    than it saved.  Returns (u, v, points, pairs) as hyperbola_scan does,
    but does not call it, since the benchmark's tracer replays every
    hyperbola_scan call over the whole grid."""
    return _kernels._scan_windows(N, a, a - 1, cell_w, cell_h, 1, dyc,
                                  max(1, _kernels._SCAN_CHUNK // cell_w))


def trial_division(N: int, bound: int) -> Factorization | None:
    """Split off the smallest prime divisor <= bound, scanning 2, 3, 6k+-1."""
    if N < 2:
        raise ValueError("N must be >= 2")
    lim = min(bound, isqrt(N))
    for d in (2, 3):
        if d > lim:
            return None
        if N % d == 0:
            return Factorization(N, d, N // d)
    d = 5
    step = 2
    while d <= lim:
        if N % d == 0:
            return Factorization(N, d, N // d)
        d += step
        step = 6 - step
    return None


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin with the first twelve prime bases; deterministic for
    every n < 3.3e24, far beyond the supported input range."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factor(N: int, strip_mode: bool = False,
           stats: FactorStats | None = None
           ) -> Factorization | Prime | Unit:
    """Full driver: Unit / Prime verdict, or a verified nontrivial split.

    Composites are split by trial division up to ceil_cbrt(N) followed by
    the general hide-seek variant; below N_MIN trial division alone is
    used.  Every returned split satisfies u * v == N by construction.
    Raises OutOfRangeError for a composite N >= 2**63 that trial division
    does not split, since the hide-seek kernels work in int64.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if N == 1:
        return Unit()
    if is_probable_prime(N):
        return Prime(N)
    if stats is not None:
        stats.method = "trial"
    if N < N_MIN:
        got = trial_division(N, isqrt(N))
        if got is None:
            raise InvariantError(f"composite {N} resisted trial division")
        return got
    got = trial_division(N, ceil_cbrt(N))
    if got is not None:
        return got
    got = hide_seek_general(N, strip_mode=strip_mode, stats=stats)
    if got is None:
        raise InvariantError(
            f"completeness violated: no split found for composite {N}")
    return got
