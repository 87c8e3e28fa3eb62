"""Cross-checks between the loop (numba) and numpy kernel implementations.

Both flavours of the doubled kernels are importable regardless of which
backend is active, so equivalence is tested in-process; the env-flag
selection itself is exercised end-to-end in test_cli.py.
"""

import random
from math import gcd, isqrt

import numpy as np
import pytest

from hideseek import _kernels as K


def test_backend_flag_reported():
    assert K.ACTIVE_BACKEND in ("numba", "numpy")


def test_unit_inverse_table_backends_agree():
    """The table lists the units ascending, and both inversion kernels
    give its inverses on the whole unit set."""
    rng = random.Random(41)
    for m in [2, 3, 4, 12, 97, 720] + [rng.randrange(2, 50000) for _ in range(20)]:
        units, invs = K.unit_inverse_table(m)
        assert units.tolist() == [x for x in range(m) if gcd(x, m) == 1]
        assert np.array_equal(K._inverses_for_loop(units, m), invs)
        assert np.array_equal(K._inverses_for_np(units, m), invs)
        assert (units * invs % m == 1).all()


def test_hyperbola_points_ranges_against_pow():
    """Any x range, widths past m included, against a pow(x, -1, m)
    recount, on prime, composite and power-of-two moduli."""
    rng = random.Random(49)

    def recount(n, m, lo, hi):
        return [(x, n * pow(x, -1, m) % m)
                for x in range(lo, hi) if gcd(x, m) == 1]

    moduli = [2, 3, 4, 97, 7919, 720, 30030, 1001, 64, 4096, 1 << 15]
    moduli += [rng.randrange(5, 20000) for _ in range(20)]
    for m in moduli:
        n = rng.randrange(1, 10 ** 12)
        for _ in range(4):
            x0 = rng.randrange(m)
            width = rng.randrange(1, 2 * m + 2)
            xs, ys = K.hyperbola_points(n, m, x0, width)
            assert list(zip(xs.tolist(), ys.tolist())) == recount(
                n, m, x0, min(x0 + width, m)), (m, x0, width)
        xs, ys = K.hyperbola_points(n, m)
        assert list(zip(xs.tolist(), ys.tolist())) == recount(n, m, 0, m)


def test_inverses_for_backends_agree():
    rng = random.Random(42)
    for _ in range(30):
        m = rng.randrange(2, 100000)
        xs = np.array([x for x in rng.sample(range(1, m), min(m - 1, 200))
                       if gcd(x, m) == 1], dtype=np.int64)
        if xs.size == 0:
            continue
        a = K._inverses_for_loop(xs, m)
        b = K._inverses_for_np(xs, m)
        assert np.array_equal(a, b)
        assert (xs * a % m == 1).all()


def test_bucket_csr_backends_agree():
    rng = random.Random(43)
    for _ in range(30):
        a = rng.randrange(4, 500)
        w = rng.randrange(1, a + 1)
        h = rng.randrange(1, a + 1)
        cols = -(-a // w)
        rows = -(-a // h)
        npts = rng.randrange(0, 300)
        xs = np.array([rng.randrange(a) for _ in range(npts)], dtype=np.int64)
        ys = np.array([rng.randrange(a) for _ in range(npts)], dtype=np.int64)
        r1 = K._bucket_csr_loop(xs, ys, w, h, cols, rows, 0, cols)
        r2 = K._bucket_csr_np(xs, ys, w, h, cols, rows, 0, cols)
        for x, y in zip(r1, r2):
            assert np.array_equal(x, y)


def _same_csr(xs, ys, w, h, cols, rows, c0, k):
    """The numpy bucketing equals the loop twin on these points."""
    want = K._bucket_csr_loop(xs, ys, w, h, cols, rows, c0, k)
    got = K._bucket_csr_np(xs, ys, w, h, cols, rows, c0, k)
    for x, y in zip(got, want):
        assert np.array_equal(x, y), (w, h, cols, rows, c0, k)


def test_bucket_csr_program_order_shuffled_and_windows():
    """Enumerated x-ascending points (the program's order), the same
    points shuffled, and wrapping column windows in both orders."""
    rng = random.Random(51)
    nprng = np.random.default_rng(51)
    for m in (997, 4096, 30030, 65521):
        n = rng.randrange(1, 10 ** 12)
        xs, ys = K.hyperbola_points(n, m)
        side = isqrt(m)
        w = rng.randrange(side // 4, 2 * side)
        h = rng.randrange(side // 4, 2 * side)
        cols, rows = -(-m // w), -(-m // h)
        _same_csr(xs, ys, w, h, cols, rows, 0, cols)
        perm = nprng.permutation(xs.size)
        _same_csr(xs[perm], ys[perm], w, h, cols, rows, 0, cols)
        for _ in range(3):
            # a window of k < cols columns from c0 > 0, wrapping past the
            # last column as strip mode's shifted windows do
            k = rng.randrange(1, cols)
            c0 = rng.randrange(max(1, cols - k), cols)
            runs = [(c0, min(c0 + k, cols)), (0, c0 + k - cols)]
            wx = np.concatenate([xs[(xs >= lo * w) & (xs < hi * w)]
                                 for lo, hi in runs if lo < hi])
            wy = np.concatenate([ys[(xs >= lo * w) & (xs < hi * w)]
                                 for lo, hi in runs if lo < hi])
            _same_csr(wx, wy, w, h, cols, rows, c0, k)
            perm = nprng.permutation(wx.size)
            _same_csr(wx[perm], wy[perm], w, h, cols, rows, c0, k)


def test_bucket_csr_row_cast_boundary():
    """Grids of 2**16 rows (rows fit uint16) and 2**16 + 1 rows (they do
    not), with points in the last row and in unsorted order."""
    rng = random.Random(52)
    for rows in (1 << 16, (1 << 16) + 1):
        for w, cols in ((rows, 1), (4096, -(-rows // 4096))):
            npts = 3000
            xs = np.array([rng.randrange(rows) for _ in range(npts)]
                          + [0, rows - 1], dtype=np.int64)
            ys = np.array([rng.randrange(rows) for _ in range(npts)]
                          + [rows - 1, rows - 1], dtype=np.int64)
            _same_csr(xs, ys, w, 1, cols, rows, 0, cols)
            order = np.argsort(xs // w, kind="stable")
            _same_csr(xs[order], ys[order], w, 1, cols, rows, 0, cols)


def test_hyperbola_scan_backends_agree():
    rng = random.Random(44)
    from hideseek.arith import ceil_cbrt
    from util import arbitrary_semiprime, balanced_semiprime

    def both(n, a, w, h, dxc, dyc):
        """The loop and numpy kernels on whole grids, and hyperbola_scan."""
        cols, rows = -(-a // w), -(-a // h)
        bx, by = K.hyperbola_points(n, a)
        sx, sy = K.hyperbola_points(n, a - 1)
        args = (*K._neighbor_tables(cols, rows, w, h, a, dxc, dyc,
                                    0, cols, 0, cols), a, n, a - 1)
        r1 = K._pair_scan_csr_loop(
            *K._bucket_csr_loop(bx, by, w, h, cols, rows, 0, cols),
            *K._bucket_csr_loop(sx, sy, w, h, cols, rows, 0, cols), *args)
        r2 = K._pair_scan_csr_np(
            *K._bucket_csr_np(bx, by, w, h, cols, rows, 0, cols),
            *K._bucket_csr_np(sx, sy, w, h, cols, rows, 0, cols), *args)
        u, v, points, pairs = K.hyperbola_scan(n, a, a - 1, w, h, dxc, dyc)
        assert tuple(int(x) for x in r1) == tuple(int(x) for x in r2) == (
            u, v, pairs), (n, a, w, h)
        assert points == bx.size + sx.size
        return u, v, points, pairs

    for _ in range(25):
        n, p, q = balanced_semiprime(rng, 10 ** 9)
        a = ceil_cbrt(2 * n)
        if n % a == 0 or n % (a - 1) == 0:
            continue
        b = int(a ** 0.5) + 1
        assert both(n, a, b, b, 1, 1)[0] == p

    # the general variant's w x (a // w) rectangles, scanned at radii (1, 2)
    for _ in range(8):
        n, p, q = arbitrary_semiprime(rng, 10 ** 8)
        a = ceil_cbrt(n)
        if n % a == 0 or n % (a - 1) == 0:
            continue
        for w in (2, 2 ** rng.randrange(2, 6), a):
            both(n, a, w, max(1, a // w), 1, 2)


def test_windowed_scan_backends_agree():
    """bucket_csr and pair_scan_csr over column windows, wrapping ones
    included: the numpy kernels equal the loop kernels."""
    rng = random.Random(48)
    from hideseek.arith import ceil_cbrt
    from util import arbitrary_semiprime

    def window(xs, ys, w, cols):
        c0 = rng.randrange(cols)
        k = rng.randrange(1, cols + 1)
        inside = (xs // w - c0) % cols < k
        return xs[inside], ys[inside], c0, k

    for _ in range(40):
        n, p, q = arbitrary_semiprime(rng, 10 ** 7)
        a = ceil_cbrt(n)
        w = rng.randrange(1, a + 1)
        h = max(1, a // w)
        cols, rows = -(-a // w), -(-a // h)
        dxc, dyc = rng.choice(((1, 1), (1, 2)))
        bx, by, bc0, bk = window(*K.hyperbola_points(n, a), w, cols)
        sx, sy, sc0, sk = window(*K.hyperbola_points(n, a - 1), w, cols)
        base = K._bucket_csr_np(bx, by, w, h, cols, rows, bc0, bk)
        shifted = K._bucket_csr_np(sx, sy, w, h, cols, rows, sc0, sk)
        for got, want in ((base, K._bucket_csr_loop(bx, by, w, h, cols, rows,
                                                     bc0, bk)),
                          (shifted, K._bucket_csr_loop(sx, sy, w, h, cols,
                                                       rows, sc0, sk))):
            for x, y in zip(got, want):
                assert np.array_equal(x, y)
        args = (*base, *shifted,
                *K._neighbor_tables(cols, rows, w, h, a, dxc, dyc,
                                    bc0, bk, sc0, sk), a, n, a - 1)
        r1 = K._pair_scan_csr_loop(*args)
        r2 = K._pair_scan_csr_np(*args)
        assert tuple(int(x) for x in r1) == tuple(int(x) for x in r2), (
            n, a, w, bc0, bk, sc0, sk)


def test_pair_scan_chunk_budget(monkeypatch):
    """Chunking changes neither the split nor the pair count, and the
    numpy scan's peak memory follows the chunk budget, not the pairs."""
    import tracemalloc

    from hideseek.arith import ceil_cbrt

    def scan(n, w, chunk):
        a = ceil_cbrt(n)
        h = a // w
        cols, rows = -(-a // w), -(-a // h)
        bx, by, bst = K._bucket_csr_np(*K.hyperbola_points(n, a), w, h,
                                       cols, rows, 0, cols)
        sx, sy, sst = K._bucket_csr_np(*K.hyperbola_points(n, a - 1), w, h,
                                       cols, rows, 0, cols)
        nx, ny = K._neighbor_tables(cols, rows, w, h, a, 1, 2, 0, cols,
                                    0, cols)
        monkeypatch.setattr(K, "_SCAN_CHUNK", chunk)
        tracemalloc.start()
        try:
            got = K._pair_scan_csr_np(bx, by, bst, sx, sy, sst, nx, ny, a, n,
                                      a - 1)
            return got, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # budgets below one cell's pairs force single-block expansions
    n = 10007 * 100003
    whole, _ = scan(n, 16, 1 << 24)
    assert whole[:2] == (10007, 100003)
    for chunk in (1, 5, 100):
        assert scan(n, 16, chunk)[0] == whole, chunk

    n = 1000003 * 1000033
    whole, peak_whole = scan(n, 64, 1 << 24)
    assert whole[:2] == (1000003, 1000033) and whole[2] > 1 << 14
    got, peak = scan(n, 64, 1 << 12)
    assert got == whole
    assert 4 * peak < peak_whole


def test_axis_neighbor_table_against_brute_force():
    rng = random.Random(45)

    def wrapped_pointgap(i1, i2, cell, a, ncells):
        s1, e1 = i1 * cell, min((i1 + 1) * cell, a)
        s2, e2 = i2 * cell, min((i2 + 1) * cell, a)
        best = None
        for x in range(s1, e1):
            for y in range(s2, e2):
                d = abs(x - y)
                d = min(d, a - d)
                best = d if best is None else min(best, d)
        return best

    # full grids, then grids of k <= 4 cells scanned at radius k, where
    # steps reach every cell and some twice
    shapes = []
    for _ in range(40):
        a = rng.randrange(4, 40)
        cell = rng.randrange(2, a + 1)
        shapes.append((-(-a // cell), cell, a, rng.randrange(1, 3)))
    for k in range(1, 5):
        for _ in range(10):
            a = rng.randrange(4 * k, 40)
            cell = rng.randrange(2, -(-a // k) + 1)
            shapes.append((k, cell, a, k))

    for ncells, cell, a, radius in shapes:
        nbr, _ = K.axis_neighbor_table(ncells, cell, a, radius)
        for ci in range(ncells):
            got = {int(c) for c in nbr[ci] if c >= 0}
            want = {c2 for c2 in range(ncells)
                    if wrapped_pointgap(ci, c2, cell, a, ncells) < radius * cell}
            # the gap rule may keep an index-adjacent cell whose nearest
            # points are farther than radius*cell (tiny truncated cells);
            # that is over-coverage, which is allowed, never under.
            assert want <= got, (a, cell, radius, ci, want, got)
            extra = got - want
            for c2 in extra:
                assert min((ci - c2) % ncells, (c2 - ci) % ncells) <= radius


def test_neighbor_seam_regression():
    nbr, wrap = K.axis_neighbor_table(105, 105, 10972, 1)
    row = [int(c) for c in nbr[103] if c >= 0]
    assert set(row) == {102, 103, 104, 0}
    row0 = [int(c) for c in nbr[0] if c >= 0]
    assert 103 in row0  # mirror direction across the same seam


def test_modprod_scan_matches_serial():
    rng = random.Random(46)
    for _ in range(20):
        m = rng.randrange(2, 10 ** 6)
        xs = np.array([rng.randrange(1, m) for _ in range(rng.randrange(1, 400))],
                      dtype=np.int64)
        got = K._modprod_scan(xs, m)
        acc = 1
        want = []
        for x in xs.tolist():
            acc = acc * x % m
            want.append(acc)
        assert got.tolist() == want


def test_modprod_scan_blocks_match_serial():
    """The blocked scan against a serial product, on 1-D and 2-row input:
    lengths 1-3 and one below, at and above a multiple of each block
    width 4..64, up to about 1e5, on small moduli and one near 2**31."""
    rng = random.Random(53)
    lengths = [1, 2, 3]
    for width, blocks in ((4, 10), (8, 30), (16, 100), (32, 400),
                          (64, 1600)):
        lengths += [width * blocks - 1, width * blocks, width * blocks + 1]
    for m in (2, 97, 65536, (1 << 31) - 1):
        rows = [[rng.randrange(m) for _ in range(max(lengths))]
                for _ in range(2)]
        serial = []
        for row in rows:
            acc, want = 1, []
            for x in row:
                acc = acc * x % m
                want.append(acc)
            serial.append(np.array(want, dtype=np.int64))
        xs = np.array(rows, dtype=np.int64)
        for k in lengths:
            assert np.array_equal(K._modprod_scan(xs[0, :k], m),
                                  serial[0][:k]), (m, k)
            got = K._modprod_scan(xs[:, :k], m)
            assert got.shape == (2, k)
            assert np.array_equal(got[0], serial[0][:k]), (m, k)
            assert np.array_equal(got[1], serial[1][:k]), (m, k)


def test_inverses_for_large_shuffled_units():
    """Both inversion kernels equal pow(x, -1, m) on shuffled unit
    arrays of 3e3 to 1e5 elements."""
    nprng = np.random.default_rng(54)
    for m in (3001, 2 * 3 * 5 * 7 * 11 * 13 * 17, 65536, 100003):
        units, _ = K.unit_inverse_table(m)
        xs = nprng.permutation(units)
        want = [pow(x, -1, m) for x in xs.tolist()]
        assert K._inverses_for_np(xs, m).tolist() == want, m
        assert K._inverses_for_loop(xs, m).tolist() == want, m


def test_kernel_range_guards():
    with pytest.raises(ValueError):
        K.unit_inverse_table(1)
    with pytest.raises(ValueError):
        K.unit_inverse_table(1 << 31)
    with pytest.raises(ValueError):
        K.hyperbola_scan(1 << 63, 100, 99, 10, 10, 1, 1)
