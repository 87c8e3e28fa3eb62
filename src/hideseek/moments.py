"""Numerical checks of how hyperbola solutions distribute.

Three instruments:

* exact Kloosterman sums S(m, n, a) = sum over units x of
  e((m*x + n*xbar)/a), checked against the classical bound
  tau(a) * gcd(m, n, a)**0.5 * a**0.5;
* rectangle counts against their area-proportional expectation
  area(R)/a^2 * phi(a), scanned over random rectangles;
* second moments of per-cell counts, computed two independent ways:
  directly from the bucketed points, and spectrally as a double sum of
  |S(-m, -N k, a)|^2 against Fejer-type weights.  The two agree exactly
  (up to rounding) on the full-torus cell family, which is the strongest
  correctness check in the suite.

`kloosterman` sums one S(m, n, a) directly.  Whole rows of |S|^2 come
from one row per divisor g of a: S(g, n) over all n is one length-a FFT
of e(g*x/a) placed at y = xbar, and every other m = g*u, u a unit,
follows from S(g*u, n) = S(g, n*u) (substitute x -> x*ubar).  All of it
runs in double precision; terms have unit modulus, so the accumulated
error stays far below the 1e-6 tolerances used throughout.

The torus second moment counts every wrapped cell at once with one 2-D
prefix sum, and a deviation scan enumerates the solutions once and
counts each rectangle on the slice of its x range.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from math import fsum, gcd
from typing import NamedTuple

import numpy as np

from . import _kernels
from .arith import euler_phi
from .factor import OutOfRangeError
from .rng import SplitMix64
from .solutions import Rect
# not called here: hsbench/tracing.py wraps hideseek.moments.count_in_rect
from .solutions import count_in_rect  # noqa: F401

__all__ = [
    "KloostermanValue",
    "MomentDomain",
    "MomentReport",
    "DeviationReport",
    "kloosterman",
    "kloosterman_abs2_table",
    "expected_count",
    "coprime_adjust",
    "second_moment_direct",
    "second_moment_spectral",
    "deviation_scan",
]

# Full a x a tables, spectral sums and torus scans take O(a^2) work and
# the tables O(a^2) doubles; keep desk-scale.
_TABLE_LIMIT = 4096
# Terms |S|^2 * F_w * F_h gathered at a time by second_moment_spectral.
_SPECTRAL_BLOCK = 1 << 18


@dataclass(frozen=True)
class KloostermanValue:
    m: int
    n: int
    modulus: int
    value: float
    imag_residual: float


def kloosterman(m: int, n: int, a: int) -> KloostermanValue:
    """S(m, n, a) by direct summation over the units mod a.

    The sum is real; the imaginary part is returned as a residual so
    tests can confirm it is numerically zero.
    """
    if a < 2:
        raise ValueError("modulus must be >= 2")
    units, invs = _kernels.unit_inverse_table(a)
    ph = ((m % a) * units + (n % a) * invs) % a
    ang = (2.0 * np.pi / a) * ph
    return KloostermanValue(m, n, a, float(np.cos(ang).sum()),
                            float(np.sin(ang).sum()))


def _kloosterman_rows(a: int):
    """Yield (row, ms, us) once per divisor g of a: row[n] = |S(g, n, a)|^2
    for 0 <= n < a, ms the residues m with gcd(m, a) = g, ascending, and
    us units with m == g*u (mod a), the least such unit for each m, so
    that |S(m, n, a)|^2 = row[n*u mod a].

    S(g, n) = sum over y of v[y]*e(n*y/a), where v[y] = e(g*x/a) at
    y = xbar and 0 off the units: one inverse FFT of v.
    """
    units, invs = _kernels.unit_inverse_table(a)
    tw = np.exp((2j * np.pi / a) * np.arange(a))
    v = np.zeros(a, dtype=np.complex128)
    for g in np.flatnonzero(a % np.arange(1, a + 1) == 0) + 1:
        gx = g * units % a
        v[invs] = tw[gx]
        s = np.fft.ifft(v) * a
        ms, first = np.unique(gx, return_index=True)
        yield s.real ** 2 + s.imag ** 2, ms, units[first]


def kloosterman_abs2_table(a: int) -> np.ndarray:
    """|S(m, n, a)|^2 for all 0 <= m, n < a, gathered from the divisor
    rows of _kloosterman_rows: tau(a) FFTs of length a."""
    if a < 2:
        raise ValueError("modulus must be >= 2")
    if a > _TABLE_LIMIT:
        raise OutOfRangeError(f"table limited to a <= {_TABLE_LIMIT}")
    table = np.empty((a, a))
    n = np.arange(a, dtype=np.int64)
    for row, ms, us in _kloosterman_rows(a):
        table[ms] = row[np.outer(us, n) % a]
    return table


def expected_count(r: Rect, a: int) -> float:
    """Fair share of solutions for a rectangle: area(R) * phi(a) / a^2."""
    if r.x2 > a or r.y2 > a:
        raise ValueError(f"rectangle exceeds the fundamental square: {r}")
    return r.area * euler_phi(a) / (a * a)


def coprime_adjust(start: int, a: int) -> int:
    """Smallest b >= start with gcd(b, a) == 1.

    Any a consecutive integers contain a unit mod a, so the scan
    terminates before 2a; assert it.
    """
    if a < 2 or not 1 <= start < a:
        raise ValueError("need a >= 2 and 1 <= start < a")
    b = start
    while gcd(b, a) != 1:
        b += 1
        if b >= 2 * a:
            raise AssertionError("no coprime found below 2a")
    return b


class MomentDomain(enum.Enum):
    FUNDAMENTAL_SQUARE = "fundamental-square"
    FULL_TORUS_Q2 = "full-torus-q2"


@dataclass(frozen=True)
class MomentReport:
    N: int
    a: int
    cell_w: int
    cell_h: int
    domain: MomentDomain
    sum_counts: int
    sum_squares: int
    expected_mean_cell: float
    k0_term: float
    edge_points: int = 0
    spectral_value: float | None = None


def _require_coprime(N: int, a: int) -> None:
    if gcd(N, a) != 1:
        raise ValueError(f"gcd(N, a) = {gcd(N, a)} > 1")


def second_moment_direct(N: int, a: int, cell_w: int, cell_h: int,
                         domain: MomentDomain = MomentDomain.FUNDAMENTAL_SQUARE
                         ) -> MomentReport:
    """Sum of squared per-cell counts, straight from the bucketed points.

    FUNDAMENTAL_SQUARE tiles [0, a)^2 with cell_w x cell_h cells
    (truncated at the right/top edges); points in truncated cells are
    itemized in edge_points.  FULL_TORUS_Q2 covers the cell_w*a by
    cell_h*a rectangle with a^2 cells over the periodically extended
    solution set; because gcd(cell_w, a) = gcd(cell_h, a) = 1 the cell
    anchors sweep every residue, so the counts are the a^2 wrapped
    cell_w x cell_h windows over the fundamental solutions, read off one
    2-D prefix sum of their indicator extended by cell_w - 1 rows and
    cell_h - 1 columns of wrap; the big rectangle is never materialized.
    """
    _require_coprime(N, a)
    if not (1 <= cell_w <= a and 1 <= cell_h <= a):
        raise ValueError("cell dimensions out of range")
    phi = euler_phi(a)
    mean = phi * cell_w * cell_h / (a * a)
    k0 = (cell_w * cell_h * phi) ** 2 / (a * a)
    xs, ys = _kernels.hyperbola_points(N % a, a)

    if domain is MomentDomain.FUNDAMENTAL_SQUARE:
        cols = -(-a // cell_w)
        rows = -(-a // cell_h)
        cids = (ys // cell_h) * cols + xs // cell_w
        # a counter per cell costs O(cells), sorting the cell ids
        # O(phi(a) log phi(a)); they cross near 4 cells per point, and
        # sorting keeps memory at O(phi(a)) on grids of billions of cells
        if cols * rows <= 4 * xs.size:
            counts = np.bincount(cids, minlength=cols * rows)
        else:
            counts = np.unique(cids, return_counts=True)[1]
        edge = 0
        if cols * cell_w > a:
            edge_mask = xs >= (cols - 1) * cell_w
        else:
            edge_mask = np.zeros(xs.size, dtype=bool)
        if rows * cell_h > a:
            edge_mask = edge_mask | (ys >= (rows - 1) * cell_h)
        edge = int(np.count_nonzero(edge_mask))
        # the dot product sums the squares without a second counts array
        return MomentReport(N, a, cell_w, cell_h, domain,
                            int(counts.sum()), int(counts @ counts),
                            mean, k0, edge)

    if a > _TABLE_LIMIT:
        raise OutOfRangeError(
            f"torus scan limited to a <= {_TABLE_LIMIT}")
    if gcd(cell_w, a) != 1 or gcd(cell_h, a) != 1:
        raise ValueError("torus domain requires gcd(w, a) = gcd(h, a) = 1")
    # p[1 + i, 1 + j] = indicator at (i mod a, j mod a); row and column 0
    # stay zero, so after the prefix sums p[i, j] counts [0, i) x [0, j)
    p = np.zeros((a + cell_w, a + cell_h), dtype=np.int32)
    p[xs + 1, ys + 1] = 1
    p[a + 1:, 1:a + 1] = p[1:cell_w, 1:a + 1]
    p[:, a + 1:] = p[:, 1:cell_h]
    np.cumsum(p, axis=0, out=p)
    np.cumsum(p, axis=1, out=p)
    strips = p[cell_w:] - p[:a]
    # a window holds at most cell_w points, one per x, so its square fits int32
    win = strips[:, cell_h:] - strips[:, :a]
    return MomentReport(N, a, cell_w, cell_h, domain,
                        int(win.sum(dtype=np.int64)),
                        int((win * win).sum(dtype=np.int64)),
                        mean, k0, 0)


def _fejer_weights(span: int, a: int) -> np.ndarray:
    """|e(m*span/a) - 1|^2 / |e(m/a) - 1|^2 with the exact limit span^2
    at m == 0 (never formed by dividing near-zero quantities).

    Each factor is sin(pi*j/a)^2, which depends only on j mod a and is
    unchanged by j -> a - j, so the sines take exact integer arguments
    reduced into [0, a/2] before the one rounding of pi/a."""
    m = np.arange(1, a)
    out = np.empty(a, dtype=np.float64)
    out[0] = float(span) ** 2
    j = m * span % a
    num = np.sin((np.pi / a) * np.minimum(j, a - j))
    den = np.sin((np.pi / a) * np.minimum(m, a - m))
    out[1:] = (num / den) ** 2
    return out


def second_moment_spectral(N: int, a: int, cell_w: int, cell_h: int) -> float:
    """Second moment over the full-torus cell family, via Kloosterman sums:

        (1/a^2) * sum_{k, m} |S(-m, -N k, a)|^2 * F_w(m) * F_h(k)

    where F_span is the squared geometric-series ratio of _fejer_weights.
    Agrees with second_moment_direct on FULL_TORUS_Q2 exactly (an identity,
    not an estimate).

    |S(-m, -Nk)|^2 = |S(m, Nk)|^2 = row_g[N*u*k mod a] for m = g*u, so the
    sum runs one divisor class of m at a time over the rows of
    _kloosterman_rows, in blocks of about _SPECTRAL_BLOCK terms, and the
    a x a table is never formed.
    """
    if not (1 <= cell_w <= a and 1 <= cell_h <= a):
        raise ValueError("cell dimensions out of range")
    _require_coprime(N, a)
    if gcd(cell_w, a) != 1 or gcd(cell_h, a) != 1:
        raise ValueError("spectral form requires gcd(w, a) = gcd(h, a) = 1")
    if a < 2:
        raise ValueError("modulus must be >= 2")
    if a > _TABLE_LIMIT:
        raise OutOfRangeError(
            f"spectral sum limited to a <= {_TABLE_LIMIT}")
    fw = _fejer_weights(cell_w, a)
    fh = _fejer_weights(cell_h, a)
    k = np.arange(a, dtype=np.int64)
    step = max(1, _SPECTRAL_BLOCK // a)
    by_k = np.zeros(a)
    for row, ms, us in _kloosterman_rows(a):
        c = N % a * us % a
        for i in range(0, ms.size, step):
            by_k += fw[ms[i:i + step]] @ row[np.outer(c[i:i + step], k) % a]
    return fsum(by_k * fh) / (a * a)


class DeviationTrial(NamedTuple):
    rect: Rect
    count: int
    expected: float


@dataclass(frozen=True)
class DeviationReport:
    N: int
    a: int
    trials: int
    seed: int
    max_abs_dev: float
    mean_abs_dev: float
    records: list[DeviationTrial] | None = None


def deviation_scan(N: int, a: int, trials: int, seed: int,
                   keep_records: bool = False) -> DeviationReport:
    """Compare exact rectangle counts with expected_count over random
    rectangles; deterministic given the seed (SplitMix64 stream).

    Each rectangle is drawn as x1 = U(a), x2 = x1 + 1 + U(a - x1) and
    likewise for y, where U(n) is the generator's `below`.  The solutions
    are enumerated once, x ascending; a rectangle's count is read off the
    slice of its x range, which count_in_rect recounts by brute force.
    """
    if a < 2:
        raise ValueError("modulus must be >= 2")
    _require_coprime(N, a)
    if trials < 1:
        raise ValueError("need at least one trial")
    xs, ys = _kernels.hyperbola_points(N % a, a)
    rng = SplitMix64(seed)
    max_dev = 0.0
    total = 0.0
    records: list[DeviationTrial] | None = [] if keep_records else None
    for _ in range(trials):
        x1 = rng.below(a)
        x2 = x1 + 1 + rng.below(a - x1)
        y1 = rng.below(a)
        y2 = y1 + 1 + rng.below(a - y1)
        r = Rect(x1, x2, y1, y2)
        lo, hi = np.searchsorted(xs, (x1, x2))
        strip = ys[lo:hi]
        c = int(np.count_nonzero((strip >= y1) & (strip < y2)))
        e = expected_count(r, a)
        dev = abs(c - e)
        max_dev = max(max_dev, dev)
        total += dev
        if records is not None:
            records.append(DeviationTrial(r, c, e))
    return DeviationReport(N, a, trials, seed, max_dev, total / trials,
                           records)
