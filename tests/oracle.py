"""Pure-Python reference for the pair scan, on plain lists of (x, y) points.

neighbor_pairs lists the point pairs the kernels' pair scan checks, from
the same gap-rule neighbor tables; check_candidate reconstructs a split
of N from one pair.  The tests hold the kernels to both.
"""

from hideseek._kernels import axis_neighbor_table
from hideseek.factor import Factorization


def neighbor_pairs(base, shifted, a, cell_w, cell_h, dxc, dyc):
    """Yield (p, q) for p in base and q in shifted when q's cell is a
    neighbor of p's at radii (dxc, dyc) under the wrapped-gap rule, on
    the grid of cell_w x cell_h cells over [0, a)^2 (edge cells
    truncated).  Each neighbor cell is visited once per base point, so
    radii covering the whole grid yield every pair exactly once."""
    cols, rows = -(-a // cell_w), -(-a // cell_h)
    col_nbrs = axis_neighbor_table(cols, cell_w, a, dxc)[0].tolist()
    row_nbrs = axis_neighbor_table(rows, cell_h, a, dyc)[0].tolist()
    cells = {}
    for q in shifted:
        cells.setdefault((q[0] // cell_w, q[1] // cell_h), []).append(q)
    for p in base:
        for nj in row_nbrs[p[1] // cell_h]:
            for ni in col_nbrs[p[0] // cell_w]:
                if ni >= 0 and nj >= 0:
                    for q in cells.get((ni, nj), ()):
                        yield p, q


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
