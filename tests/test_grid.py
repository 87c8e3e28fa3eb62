"""The cell grid over the a-by-a square: bucketing (_kernels.bucket_csr),
the neighbor cells and wrap flags of _kernels.axis_neighbor_table, the
column runs and row tables of _kernels._neighbor_tables on the scan
driver's windows, and the neighbor pairs of the reference in oracle.py."""

import random
import tracemalloc

import numpy as np

from hideseek._kernels import (_grid, _neighbor_tables, axis_neighbor_table,
                               bucket_csr)
from hideseek.solutions import solve_all
from oracle import axis_neighbors, neighbor_pairs
from util import driver_window, shifted_window


def cells_of(pts, a, w, h):
    """{(i, j): points} of the non-empty cells bucket_csr fills."""
    cols, rows = -(-a // w), -(-a // h)
    xs = np.array([p[0] for p in pts], dtype=np.int64)
    ys = np.array([p[1] for p in pts], dtype=np.int64)
    ox, oy, starts = bucket_csr(xs, ys, w, h, cols, rows)
    assert starts[-1] == len(pts)
    out = {}
    for cid in range(cols * rows):
        lo, hi = starts[cid], starts[cid + 1]
        if lo < hi:
            out[(cid % cols, cid // cols)] = list(
                zip(ox[lo:hi].tolist(), oy[lo:hi].tolist()))
    return out


def check_axis(ncells, cell, a, radius, cis=None):
    """axis_neighbor_table lists the oracle's neighbors of each cell in
    cis (default all), each once, and so do the whole-grid column runs
    of _neighbor_tables."""
    nbr, _ = axis_neighbor_table(ncells, cell, a, radius)
    want = axis_neighbors(ncells, cell, a, radius)
    for ci in range(ncells) if cis is None else cis:
        got = [c for c in nbr[ci].tolist() if c >= 0]
        assert len(got) == len(set(got)) and set(got) == want[ci], (
            ncells, cell, a, radius, ci)
    runs, _ = _neighbor_tables(ncells, 1, cell, a, a, radius, 1, 0, ncells)
    check_runs(runs, want, radius, 0, cis)


def check_runs(runs, col_nbrs, dxc, c0, cis=None):
    """Base column i's run and wrap part in runs, two disjoint ranges,
    list the oracle's neighbors col_nbrs of grid column c0 + i, each once,
    as columns of the driver's shifted window (util.shifted_window),
    which holds them all; for each i in cis (default all)."""
    cols, bk = len(col_nbrs), runs.shape[1] // 2
    s0, sk = shifted_window(cols, dxc, c0, bk)
    lo, end = runs.tolist()
    for i in range(bk) if cis is None else cis:
        want = sorted((c - s0) % cols for c in col_nbrs[c0 + i])
        got = sorted([*range(lo[i], end[i]), *range(lo[bk + i], end[bk + i])])
        assert want[-1] < sk and got == want, (
            cols, dxc, c0, bk, i, lo[i], end[i], lo[bk + i], end[bk + i])


def wrapped(ncells, cell, a, radius, ci, ni):
    """Whether axis_neighbor_table reaches cell ni from ci across the seam."""
    nbr, wrap = axis_neighbor_table(ncells, cell, a, radius)
    return bool(wrap[ci][nbr[ci].tolist().index(ni)])


def test_bucket_examples():
    assert cells_of([(1, 5), (5, 1)], 6, 3, 3) == {(0, 1): [(1, 5)],
                                                   (1, 0): [(5, 1)]}
    assert cells_of([], 6, 3, 3) == {}
    pts = [tuple(p) for p in solve_all(1, 5).points]
    assert cells_of(pts, 5, 3, 3) == {(0, 0): [(1, 1)], (0, 1): [(2, 3)],
                                      (1, 0): [(3, 2)], (1, 1): [(4, 4)]}


def test_make_grid_examples():
    # ceil(a / cell) columns and rows, the last ones truncated: the whole
    # square fills every cell, and no point lands outside its cell
    for a, w, h, cols, rows in ((6, 3, 3, 2, 2), (6, 4, 4, 2, 2),
                                (5, 3, 2, 2, 3)):
        cells = cells_of([(x, y) for x in range(a) for y in range(a)], a, w, h)
        assert sorted(cells) == [(i, j) for i in range(cols)
                                 for j in range(rows)]
        for (i, j), cell_pts in cells.items():
            assert len(cell_pts) == (min((i + 1) * w, a) - i * w) * (
                min((j + 1) * h, a) - j * h)


def test_bucket_tiles_exactly():
    rng = random.Random(0)
    for _ in range(30):
        a = rng.randrange(2, 400)
        w = rng.randrange(1, a + 1)
        h = rng.randrange(1, a + 1)
        pts = [(rng.randrange(a), rng.randrange(a)) for _ in range(200)]
        cells = cells_of(pts, a, w, h)
        assert sum(map(len, cells.values())) == len(pts)
        # every stored point lies inside its cell's range
        for (i, j), cell_pts in cells.items():
            for x, y in cell_pts:
                assert i * w <= x < min((i + 1) * w, a)
                assert j * h <= y < min((j + 1) * h, a)


def test_axis_neighbor_table_matches_oracle():
    """The kernels' neighbor cells are the oracle's, and form one run per
    cell, on every cell of every axis of 1..40 cells of width 1..11 with
    every truncation of the last cell (the seam cases of the gap rule,
    which the kernels test only at the ends of the axis), at radii 1..3
    and the whole axis."""
    for ncells in range(1, 41):
        for cell in range(1, 12):
            for last in range(1, cell + 1):
                for radius in (1, 2, 3, ncells):
                    check_axis(ncells, cell, (ncells - 1) * cell + last,
                               radius)


def test_axis_neighbor_table_long_axis():
    """The column axis of the general variant's first width at N ~ 1e16
    (cell 2, the last cell truncated to one point): the end cells and a
    sample of the interior match the oracle."""
    a, cell = 215443, 2
    ncells = -(-a // cell)
    rng = random.Random(9)
    check_axis(ncells, cell, a, 1, [*range(4), *range(ncells - 4, ncells),
                                    *rng.sample(range(4, ncells - 4), 500)])


def test_neighbor_tables_peak_memory():
    """The general variant's first width at N ~ 1e16: a = 215443, w = 2,
    one row after _grid, 107,722 columns.  _neighbor_tables writes the
    column runs in place, so its traced peak stays below 1.5 times its
    runs array (1.64 MiB), and the runs match the oracle at the ends."""
    a, w = 215443, 2
    cols, rows, h = _grid(a, w, a // w, 2)
    assert (cols, rows) == (107722, 1)
    tracemalloc.start()
    try:
        runs, _ = _neighbor_tables(cols, rows, w, h, a, 1, 2, 0, cols)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert runs.shape == (2, 2 * cols) and peak < 1.5 * runs.nbytes, peak
    check_runs(runs, axis_neighbors(cols, w, a, 1), 1, 0,
               [*range(4), *range(cols - 4, cols)])


def test_neighbor_tables_match_oracle():
    """The column runs and row table both pair scans read, on windows of
    the scan driver's shapes: each base column's runs hold the oracle's
    neighbors in the shifted window (check_runs), and column j of ny the
    oracle's neighbors of row j, each once, -1 elsewhere.  First every
    window (c0, bk), c0 + bk <= cols, of every axis of 1..16 columns of
    width 1..6 with every truncation of the last one, at dxc 1 and 2;
    then random square and rectangular grids with random windows, a
    third of them covering the grid from c0 > 0, so that runs wrap."""
    for cols in range(1, 17):
        for cell in range(1, 7):
            for last in range(1, cell + 1):
                a = (cols - 1) * cell + last
                for dxc in (1, 2):
                    col_nbrs = axis_neighbors(cols, cell, a, dxc)
                    for c0 in range(cols):
                        for bk in range(1, cols - c0 + 1):
                            runs, _ = _neighbor_tables(cols, 1, cell, a, a,
                                                       dxc, 1, c0, bk)
                            check_runs(runs, col_nbrs, dxc, c0)

    rng = random.Random(8)
    for trial in range(200):
        cell_w = rng.randrange(1, 12)
        cols = rng.randrange(1, 30)
        a = (cols - 1) * cell_w + rng.randrange(1, cell_w + 1)
        cell_h = cell_w if trial % 2 else rng.randrange(1, a + 1)
        rows = -(-a // cell_h)
        dxc, dyc = rng.choice(((1, 1), (1, 2)))
        c0, bk = (0, cols) if trial % 5 == 4 else driver_window(rng, cols, dxc)
        runs, ny = _neighbor_tables(cols, rows, cell_w, cell_h, a, dxc, dyc,
                                    c0, bk)
        assert runs.shape == (2, 2 * bk) and ny.shape[1] == rows
        check_runs(runs, axis_neighbors(cols, cell_w, a, dxc), dxc, c0)
        row_nbrs = axis_neighbors(rows, cell_h, a, dyc)
        for j in range(rows):
            got = [c for c in ny[:, j].tolist() if c >= 0]
            assert sorted(got) == sorted(row_nbrs[j]), (rows, cell_h, a, dyc, j)


def test_neighbor_pairs_single_cell():
    out = list(neighbor_pairs([(1, 1)], [(2, 2)], 10, 4, 4, 1, 1))
    assert out == [((1, 1), (2, 2))]
    assert not wrapped(3, 4, 10, 1, 0, 0)


def test_neighbor_pairs_wrap_flag():
    # 3x3 cells, exact tiling: (8, 4) is in cell (2, 1), (0, 4) in (0, 1)
    out = list(neighbor_pairs([(8, 4)], [(0, 4)], 9, 3, 3, 1, 1))
    assert len(out) == 1
    assert wrapped(3, 3, 9, 1, 2, 0) and not wrapped(3, 3, 9, 1, 1, 1)


def test_neighbor_pairs_full_coverage_counts():
    rng = random.Random(5)
    for _ in range(20):
        a = rng.randrange(4, 60)
        w = rng.randrange(1, a + 1)
        h = rng.randrange(1, a + 1)
        cols, rows = -(-a // w), -(-a // h)
        bpts = [(rng.randrange(a), rng.randrange(a)) for _ in range(15)]
        spts = [(rng.randrange(a), rng.randrange(a)) for _ in range(11)]
        out = list(neighbor_pairs(bpts, spts, a, w, h, cols, rows))
        assert len(out) == len(bpts) * len(spts)


def test_neighbor_pairs_matches_brute_force_window():
    # on exact tilings the radius-1 neighborhood is the classic 3x3 block
    rng = random.Random(6)
    for _ in range(20):
        cols = rng.randrange(3, 7)
        w = rng.randrange(1, 5)
        a = cols * w
        bpts = [(rng.randrange(a), rng.randrange(a)) for _ in range(25)]
        spts = [(rng.randrange(a), rng.randrange(a)) for _ in range(25)]
        got = len(list(neighbor_pairs(bpts, spts, a, w, w, 1, 1)))
        want = 0
        for bx, by in bpts:
            bi, bj = bx // w, by // w
            for sx, sy in spts:
                si, sj = sx // w, sy // w
                di = min((bi - si) % cols, (si - bi) % cols)
                dj = min((bj - sj) % cols, (sj - bj) % cols)
                if di <= 1 and dj <= 1:
                    want += 1
        assert got == want


def wrapped_dist(u, v, a):
    d = abs(u - v)
    return min(d, a - d)


def test_completeness_guarantee_radius_one():
    """Points within one cell of each other (wrapped coordinate distance)
    are always paired, including across the truncated wrap seam."""
    rng = random.Random(7)
    for _ in range(200):
        a = rng.randrange(6, 300)
        w = rng.randrange(2, a)
        h = rng.randrange(2, a)
        p = (rng.randrange(a), rng.randrange(a))
        q = ((p[0] + rng.randrange(-w + 1, w)) % a,
             (p[1] + rng.randrange(-h + 1, h)) % a)
        assert wrapped_dist(p[0], q[0], a) < w
        assert wrapped_dist(p[1], q[1], a) < h
        out = list(neighbor_pairs([p], [q], a, w, h, 1, 1))
        assert len(out) >= 1, (a, w, h, p, q)


def test_completeness_regression_truncated_seam():
    # wrapped distance 66 < 105, but the points straddle the thin
    # truncated last column; the gap rule must still pair them
    a, w = 10972, 105
    out = list(neighbor_pairs([(10919, 1155)], [(13, 1238)], a, w, w, 1, 1))
    assert len(out) == 1
    assert wrapped(-(-a // w), w, a, 1, 10919 // w, 13 // w)
