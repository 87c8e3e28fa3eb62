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
from oracle import check_candidate, neighbor_pairs


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


def test_point_sets_share_one_inversion():
    """hyperbola_scan's two whole-grid solution sets equal _points' own
    enumerations: by one inversion mod a*(a-1) up to a = 46341, the
    largest a with a*(a-1) < 2**31, and separately above it or for a
    second modulus other than a - 1."""
    rng = random.Random(56)
    for a in [3, 4, 6, 30031, 46341, 46342, 65536] + [
            rng.randrange(4, 46341) for _ in range(10)]:
        n = rng.randrange(1, 1 << 62)
        for m2 in (a - 1, a - 2) if a > 3 else (a - 1,):
            got = K._point_sets(n, a, m2)
            want = (*K._points(n, a, 0, a), *K._points(n, m2, 0, m2))
            for x, y in zip(got, want):
                assert np.array_equal(x, y), (n, a, m2)


def test_hyperbola_scan_given_sets():
    """hyperbola_scan on the sets of _point_sets, passed by keyword, equals
    the scan that enumerates them itself; sets is keyword-only, since the
    benchmark's tracer replays each scan from its seven positional
    arguments."""
    rng = random.Random(57)
    for _ in range(6):
        a = rng.randrange(50, 3000)
        n = rng.randrange(1, 1 << 62)
        sets = K._point_sets(n, a, a - 1)
        for w, h, dyc in ((isqrt(a) + 1, isqrt(a) + 1, 1), (4, a // 4, 2)):
            assert K.hyperbola_scan(n, a, a - 1, w, h, 1, dyc, sets=sets) == (
                K.hyperbola_scan(n, a, a - 1, w, h, 1, dyc)), (n, a, w)
    with pytest.raises(TypeError):
        K.hyperbola_scan(n, a, a - 1, w, h, 1, dyc, sets)


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


def _three_scans(n, a, base, shifted, w, h, bc0=0, bk=None, sc0=0):
    """The numpy and loop pair scans of base against shifted points on a
    grid of w x h cells at radii (1, 2), base bucketed over bk columns
    from bc0 (default all) and shifted over every column from sc0, and
    the oracle's (split or (0, 0), pairs) over the same pairs; asserts
    the three agree and returns the result."""
    cols, rows = -(-a // w), -(-a // h)
    bk = cols if bk is None else bk
    base = [p for p in base if (p[0] // w - bc0) % cols < bk]

    def csr(pts, c0, k):
        xs, ys = (np.array([p[i] for p in pts], dtype=np.int64)
                  for i in (0, 1))
        return K._bucket_csr_np(xs, ys, w, h, cols, rows, c0, k)

    args = (*csr(base, bc0, bk), *csr(shifted, sc0, cols),
            *K._neighbor_tables(cols, rows, w, h, a, 1, 2, bc0, bk, sc0,
                                cols), a, n, a - 1)
    got = tuple(int(x) for x in K._pair_scan_csr_np(*args))
    assert got == tuple(int(x) for x in K._pair_scan_csr_loop(*args))
    splits, pairs = set(), 0
    for p, q in neighbor_pairs(base, shifted, a, w, h, 1, 2):
        pairs += 1
        f = check_candidate(n, a, p, q)
        if f is not None:
            splits.add((f.u, f.v))
    assert got == (*min(splits, default=(0, 0)), pairs), (n, a, w, bc0, bk,
                                                          sc0)
    return got


def test_wrapping_runs_match_oracle():
    """Windows where column runs wrap past the last shifted column: the
    whole grid, whose columns 0 and cols - 1 reach across the seam, and
    a whole-grid shifted window from sc0 != 0 met by base windows from
    bc0 != 0, some holding columns cols - 1 and 0.  The numpy scan, the
    loop scan and the oracle agree on split and pairs."""
    rng = random.Random(55)
    from hideseek.arith import ceil_cbrt
    from util import arbitrary_semiprime

    for trial in range(30):
        n, p, q = arbitrary_semiprime(rng, 10 ** 6)
        a = ceil_cbrt(n)
        w = rng.choice((1, 2, 3, rng.randrange(1, a + 1)))
        h = max(1, a // w)
        cols = -(-a // w)
        base = list(zip(*(c.tolist() for c in K.hyperbola_points(n, a))))
        shifted = list(zip(*(c.tolist()
                             for c in K.hyperbola_points(n, a - 1))))
        bk = rng.randrange(2, cols + 1) if cols > 1 else 1
        if trial % 3 == 0:  # the whole grid
            bc0, bk, sc0 = 0, cols, 0
        elif trial % 3 == 1:  # base columns cols - 1, 0, ...
            bc0, sc0 = cols - 1, 0
        else:  # base columns holding grid column sc0 != 0
            sc0 = rng.randrange(1, cols) if cols > 1 else 0
            bc0 = (sc0 - rng.randrange(bk)) % cols
        nx, _ = K._neighbor_tables(cols, 1, w, a, a, 1, 1, bc0, bk, sc0,
                                   cols)
        if cols > 5:  # shorter axes may keep every column
            assert K._column_runs(nx, cols)[1][bk:].any(), (a, w, bc0, sc0)
        _three_scans(n, a, base, shifted, w, h, bc0, bk, sc0)


def test_pair_scan_digit_edges():
    """The numpy scan's one-candidate digit test at its edges, each pair
    checked on a one-cell grid against the loop scan and the oracle:
    du == 0, where only the second candidate u1 = a - 1 splits n; du ==
    -(a - 1), where u1 = 0; and x0 = 1 meeting x = 1, where u = 1
    divides every n and must not count as a split."""
    from hideseek.factor import is_probable_prime

    a = 101
    m2 = a - 1

    def sets(n):
        return [list(zip(*(c.tolist() for c in K.hyperbola_points(n, m))))
                for m in (a, m2)]

    # du == 0: U = (a-1)*a + u0 with u0 < a - 1 puts U's shifted point
    # at x = u0, the base point's own x; V's base point, which would
    # reach U as its y digit, is left out
    u0 = next(x for x in range(3, m2) if x % 2 and x % 5
              and is_probable_prime(m2 * a + x))
    U, V = m2 * a + u0, 313
    base, shifted = sets(U * V)
    base.remove((V % a, U % a))
    assert (u0, V % a) in base and (u0, V % m2) in shifted
    assert _three_scans(U * V, a, base, shifted, a, a)[:2] == (V, U)

    # du == -(a-1): base x0 = a - 1 meets shifted x = 0 (no unit, so
    # planted), and u1 = du + (a-1) = 0 gives U = a - 1
    V = 313
    got = _three_scans(m2 * V, a, [(m2, V % a)], [(0, V % m2), (7, 3)],
                       a, a)
    assert got == (m2, V, 2)

    # u = 1: x = 1 lies in both sets; for this prime n < a*a the pair's
    # y digits rebuild v = n, so only the rule u >= 2 rejects (1, n)
    n = 509
    assert is_probable_prime(n) and n // a + n % a < m2
    base, shifted = sets(n)
    assert (1, n % a) in base and (1, n % m2) in shifted
    assert _three_scans(n, a, base, shifted, a, a)[:2] == (0, 0)


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
