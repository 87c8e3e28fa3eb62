"""Pure-Python reference for the pair scan, on plain lists of (x, y) points.

neighbor_pairs lists the point pairs the kernels' pair scan checks, under
a neighbor rule derived here from its definition; check_candidate
reconstructs a split of N from one pair.  The tests hold the kernels to
both.  Nothing here comes from hideseek._kernels.
"""

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
