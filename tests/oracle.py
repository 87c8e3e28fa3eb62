"""References the tests hold the kernels and the analysis layer to.

Pair scan, in pure Python on plain lists of (x, y) points: neighbor_pairs
lists the point pairs the kernels' pair scan checks, under a neighbor
rule derived here from its definition; check_candidate reconstructs a
split of N from one pair.

Second moments: kloosterman_abs2_dense is the whole |S(m, n, a)|^2 table
as one dense complex matrix product over the units, spectral_dense the
Kloosterman double sum over that table, and torus_window_counts counts
every wrapped window of the full-torus cell family point by point.

Digit polynomials: poly_search_brute tries every pair of digit vectors
in [0, a)^(d+1) against an instance's sets.

Nothing here comes from hideseek._kernels, hideseek.moments or
hideseek.polysearch's search; inverses are pow(x, -1, a).
"""

from itertools import product
from math import gcd

import numpy as np

from hideseek.factor import Factorization


def axis_neighbors(ncells, cell, a, r):
    """Per cell i of one axis, the set of cells that neighbor it at
    radius r.  Cell i covers [i*cell, min((i+1)*cell, a)).  Cells at most
    r apart (wrapping mod ncells) are neighbors; cells r+1 apart are too
    when some point of one lies within r*cell - 1 of some point of the
    other on the circle of length a, which happens across the seam where
    the last cell is truncated to less than cell - 1 points."""
    def span(i):
        return i * cell, min((i + 1) * cell, a) - 1

    def gap(i, j):
        # the nearest points of two disjoint arcs are two of their ends
        return min(min(abs(x - y), a - abs(x - y))
                   for x in span(i) for y in span(j))

    out = []
    for i in range(ncells):
        near = set()
        for j in {(i + d) % ncells for d in range(-r - 1, r + 2)}:
            apart = min((i - j) % ncells, (j - i) % ncells)
            if apart <= r or apart == r + 1 and gap(i, j) <= r * cell - 1:
                near.add(j)
        out.append(near)
    return out


def neighbor_pairs(base, shifted, a, cell_w, cell_h, dxc, dyc):
    """Yield (p, q) for p in base and q in shifted when q's cell is a
    neighbor of p's at radii (dxc, dyc) under axis_neighbors, on the grid
    of cell_w x cell_h cells over [0, a)^2 (edge cells truncated).  Each
    neighbor cell is visited once per base point, so radii covering the
    whole grid yield every pair exactly once."""
    col_nbrs = axis_neighbors(-(-a // cell_w), cell_w, a, dxc)
    row_nbrs = axis_neighbors(-(-a // cell_h), cell_h, a, dyc)
    cells = {}
    for q in shifted:
        cells.setdefault((q[0] // cell_w, q[1] // cell_h), []).append(q)
    for p in base:
        for nj in row_nbrs[p[1] // cell_h]:
            for ni in col_nbrs[p[0] // cell_w]:
                yield from ((p, q) for q in cells.get((ni, nj), ()))


def check_candidate(N, a, p, q):
    """The smallest split N = (u1*a + u0)(v1*a + v0) with u, v >= 2, where
    p = (u0, v0) solves x*y == N (mod a), q is a point mod a-1, and each
    digit is q's coordinate minus p's, or that plus a-1 (undoing the
    reduction mod a-1), when it lies in [0, a); None if there is none."""
    us = [u1 * a + p[0] for u1 in (q[0] - p[0], q[0] - p[0] + a - 1)
          if 0 <= u1 < a]
    vs = [v1 * a + p[1] for v1 in (q[1] - p[1], q[1] - p[1] + a - 1)
          if 0 <= v1 < a]
    splits = [(min(u, v), max(u, v)) for u in us for v in vs
              if u >= 2 and v >= 2 and u * v == N]
    return Factorization(N, *min(splits)) if splits else None


def _units_and_inverses(a):
    units = [x for x in range(a) if gcd(x, a) == 1]
    return units, [pow(x, -1, a) for x in units]


def kloosterman_abs2_dense(a):
    """|S(m, n, a)|^2 for all 0 <= m, n < a: the a x phi(a) matrix of
    e(m*x/a) times the phi(a) x a matrix of e(xbar*n/a)."""
    units, invs = _units_and_inverses(a)
    idx = np.arange(a)
    tw = np.exp((2j * np.pi / a) * idx)
    s = tw[np.outer(idx, units) % a] @ tw[np.outer(invs, idx) % a]
    return (s * s.conj()).real


def spectral_dense(N, a, w, h):
    """(1/a^2) * sum over m, k of |S(m, N*k, a)|^2 * F_w(m) * F_h(k), with
    F_span(m) = sin(pi*m*span/a)^2 / sin(pi*m/a)^2 and F_span(0) = span^2,
    over the dense table."""
    def fejer(span):
        m = np.arange(1, a)
        return np.concatenate(([float(span) ** 2],
                               (np.sin(np.pi * m * span / a)
                                / np.sin(np.pi * m / a)) ** 2))

    table = kloosterman_abs2_dense(a)
    perm = N % a * np.arange(a) % a
    return float(fejer(w) @ table[:, perm] @ fejer(h) / (a * a))


def torus_window_counts(N, a, w, h):
    """Counts of the solutions of x*y == N (mod a) in every wrapped window
    [s, s + w) x [t, t + h) mod a, for 0 <= s, t < a, s-major."""
    ys = {x: N * xbar % a for x, xbar in zip(*_units_and_inverses(a))}
    counts = []
    for s in range(a):
        window = [ys[x % a] for x in range(s, s + w) if x % a in ys]
        counts.extend(sum(1 for y in window if (y - t) % a < h)
                      for t in range(a))
    return counts


def poly_search_brute(inst):
    """Every digit-vector pair (ucs, vcs) in [0, a)^(d+1), least
    significant digit first, whose polynomial values (u(delta), v(delta))
    lie in inst.sets[delta] for every delta = 0..d; sorted."""
    d, sets = inst.d, inst.sets
    vecs = [(cs, [sum(c * t ** i for i, c in enumerate(cs))
                  for t in range(d + 1)])
            for cs in product(range(inst.a), repeat=d + 1)]
    out = []
    for ucs, xs in vecs:
        ysets = [sets[t].get(x) for t, x in enumerate(xs)]
        if None in ysets:
            continue
        out.extend((ucs, vcs) for vcs, ys in vecs
                   if all(y in ysets[t] for t, y in enumerate(ys)))
    return sorted(out)
