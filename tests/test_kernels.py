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
from hideseek.arith import prime_factors
from oracle import check_candidate, neighbor_pairs, solutions_by_pow
from util import driver_window, shifted_window


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
    enumerations: by one inversion mod a*(a-1) below a = _TABLE_MIN =
    2**15, and separately from it on or for a second modulus other than
    a - 1."""
    assert K._TABLE_MIN == 1 << 15
    rng = random.Random(56)
    for a in [3, 4, 6, 30031, 32767, 32768, 46341, 46342, 65536] + [
            rng.randrange(4, 46341) for _ in range(10)]:
        n = rng.randrange(1, 1 << 62)
        for m2 in (a - 1, a - 2) if a > 3 else (a - 1,):
            got = K._point_sets(n, a, m2)
            want = (*K._points(n, a, 0, a), *K._points(n, m2, 0, m2))
            for x, y in zip(got, want):
                assert np.array_equal(x, y), (n, a, m2)


def test_table_path_against_pow(monkeypatch):
    """Whole ranges from _TABLE_MIN on: on m prime, 2p, 3p and 4p, the
    prime powers 2**e, 3**e and p**2, and smooth m, for n = 0, n sharing
    each prime of m, a unit past m, and n = 1 (the inverse table),
    hyperbola_points and unit_inverse_table equal the pow(x, -1, m)
    enumeration.  Powers of a prime <= _RANGES keep batch inversion, whose
    one table the tables would be; every other modulus here takes them."""
    taken = []
    tables = K._table_points

    def spy(n, m, factors):
        taken.append(m)
        return tables(n, m, factors)

    monkeypatch.setattr(K, "_table_points", spy)
    rng = random.Random(58)
    batch = [1 << 15, 1 << 16, 3 ** 10]
    moduli = [32771, 65537, 2 * 16411, 3 * 10937, 4 * 8209, 191 ** 2,
              61 ** 2 * 9, 7 * 4801, 2 ** 6 * 3 ** 3 * 5 * 7, 60060] + batch
    for m in moduli:
        assert m >= K._TABLE_MIN
        units, invs = solutions_by_pow(1, m)
        got = K.unit_inverse_table(m)
        assert got[0].tolist() == units and got[1].tolist() == invs, m
        ns = [0, rng.randrange(1, m) | 1, rng.randrange(m, 1 << 62)]
        ns += [p * rng.randrange(1, 1000) for p, _ in prime_factors(m)]
        for n in ns:
            xs, ys = K.hyperbola_points(n, m)
            assert xs.dtype == ys.dtype == np.int64
            assert xs.tolist() == units, (m, n)
            assert ys.tolist() == [n * v % m for v in invs], (m, n)
    assert sorted(set(taken)) == sorted(set(moduli) - set(batch))


def test_factor_table_range_edges():
    """_factor_table's CRT summand of q = p**e in m = q*M equals
    M * (n * inv(x) * inv(M) mod q) at every unit x of q, and so at the
    ends x = q // k and q // k + 1 of the recurrence's ranges, checked by
    name; q prime and p**2 past _RANGES**2, the bottom of batch inversion
    included, for M = 1, 5 and the prime 48221, which takes m = 211**2 * M
    near 2**31, and n a unit, a multiple of q and 0."""
    for q, p, e in ((4099, 4099, 1), (32771, 32771, 1), (67 ** 2, 67, 2),
                    (211 ** 2, 211, 2)):
        for cof in (1, 5, 48221):
            m = q * cof
            for n in (123456789, 7 * q, 0):
                t = K._factor_table(n, m, p, e).tolist()
                s = n * pow(cof, -1, q) % q
                want = {x: cof * (s * pow(x, -1, q) % q)
                        for x in range(1, q) if x % p}
                assert {x: t[x] for x in want} == want, (q, cof, n)
                edges = {q // k + d for k in range(1, K._RANGES + 1)
                         for d in (0, 1)}
                assert all(t[x] == want[x] for x in edges if x in want)
                assert all(0 <= v <= m for v in t)


def test_point_sets_against_pow():
    """_point_sets on both sides of _TABLE_MIN and past a = 46341, where
    a*(a-1) >= 2**31: each set equals its own pow(x, -1, m) enumeration."""
    rng = random.Random(59)
    for a in (32767, 32768, 32772, 46341, 46342, 65537):
        n = rng.randrange(1, 1 << 62)
        got = K._point_sets(n, a, a - 1)
        for m, xs, ys in ((a, *got[:2]), (a - 1, *got[2:])):
            units, invs = solutions_by_pow(1, m)
            assert xs.tolist() == units, (a, m)
            assert ys.tolist() == [n * v % m for v in invs], (a, m)


# hyperbola_scan's (u, v, points, pairs), recorded from the scan that
# bucketed both sets and expanded from the set mod a.  For each level
# 1e12, 1e14, 1e16 and each shape of a (even, odd, 3 | a): a balanced
# semiprime on its square cells at radius 1, then a semiprime with
# p // a = 4 on the general variant's w x (a // w) cells, w = 2..16, at
# radii (1, 2).
SCAN_GOLDENS = [
    # (n, a, w, h, dyc, (u, v, points, pairs))
    (827248592711, 11828, 109, 109, 1, (872453, 948187, 17738, 53712)),
    (1574493137797, 11634, 2, 5817, 2, (0, 0, 14944, 19868)),
    (1574493137797, 11634, 4, 2908, 2, (48673, 32348389, 14944, 39739)),
    (1574493137797, 11634, 8, 1454, 2, (48673, 32348389, 14944, 49741)),
    (1574493137797, 11634, 16, 727, 2, (0, 0, 14944, 49841)),
    (1507408372243, 14447, 121, 121, 1, (943127, 1598309, 21406, 63630)),
    (1423387903361, 11249, 2, 5624, 2, (0, 0, 14820, 26642)),
    (1423387903361, 11249, 4, 2812, 2, (48299, 29470339, 14820, 53292)),
    (1423387903361, 11249, 8, 1406, 2, (48299, 29470339, 14820, 66693)),
    (1423387903361, 11249, 16, 703, 2, (0, 0, 14820, 66653)),
    (700980563527, 11193, 106, 106, 1, (815197, 859891, 11352, 26204)),
    (1214973939307, 10671, 2, 5335, 2, (0, 0, 10952, 15356)),
    (1214973939307, 10671, 4, 2667, 2, (49757, 24418151, 10952, 30709)),
    (1214973939307, 10671, 8, 1333, 2, (49757, 24418151, 10952, 38198)),
    (1214973939307, 10671, 16, 666, 2, (0, 0, 10952, 38662)),
    (132683961410107, 64262, 254, 254, 1, (8205497, 16170131, 91444, 247696)),
    (145409094143557, 52586, 2, 26293, 2, (0, 0, 65076, 116348)),
    (145409094143557, 52586, 4, 13146, 2, (230929, 629670133, 65076, 232700)),
    (145409094143557, 52586, 8, 6573, 2, (230929, 629670133, 65076, 291936)),
    (145409094143557, 52586, 16, 3286, 2, (0, 0, 65076, 291710)),
    (101176118352299, 58709, 243, 243, 1, (8965447, 11285117, 77388, 211288)),
    (112084110309907, 48215, 2, 24107, 2, (0, 0, 62674, 115695)),
    (112084110309907, 48215, 4, 12053, 2, (216829, 516923983, 62674, 231390)),
    (112084110309907, 48215, 8, 6026, 2, (216829, 516923983, 62674, 289016)),
    (112084110309907, 48215, 16, 3013, 2, (0, 0, 62674, 289357)),
    (161926964495983, 68673, 263, 263, 1, (9631327, 16812529, 73856, 177834)),
    (123076581723833, 49743, 2, 24871, 2, (0, 0, 50436, 69109)),
    (123076581723833, 49743, 4, 12435, 2, (210523, 584622971, 50436, 138213)),
    (123076581723833, 49743, 8, 6217, 2, (210523, 584622971, 50436, 172811)),
    (123076581723833, 49743, 16, 3108, 2, (0, 0, 50436, 172658)),
    (8215909282267483, 254232, 505, 505, 1,
     (90551509, 90731887, 316440, 652638)),
    (17556045078493721, 259902, 2, 129951, 2, (0, 0, 332820, 492306)),
    (17556045078493721, 259902, 4, 64975, 2,
     (1076639, 16306343239, 332820, 984614)),
    (17556045078493721, 259902, 8, 32487, 2,
     (1076639, 16306343239, 332820, 1230322)),
    (17556045078493721, 259902, 16, 16243, 2, (0, 0, 332820, 1230323)),
    (5337708794174423, 220189, 470, 470, 1,
     (71615171, 74533213, 292108, 651242)),
    (12259942322134369, 230585, 2, 115292, 2, (0, 0, 286000, 491864)),
    (12259942322134369, 230585, 4, 57646, 2,
     (1067293, 11486950933, 286000, 983740)),
    (12259942322134369, 230585, 8, 28823, 2,
     (1067293, 11486950933, 286000, 1228213)),
    (12259942322134369, 230585, 16, 14411, 2, (0, 0, 286000, 1228452)),
    (13473618100672937, 299805, 548, 548, 1,
     (83594869, 161177573, 286080, 613016)),
    (12612266594798413, 232773, 2, 116386, 2, (0, 0, 271564, 465529)),
    (12612266594798413, 232773, 4, 58193, 2,
     (967229, 13039586897, 271564, 931062)),
    (12612266594798413, 232773, 8, 29096, 2,
     (967229, 13039586897, 271564, 1164507)),
    (12612266594798413, 232773, 16, 14548, 2, (0, 0, 271564, 1164922)),
]


@pytest.mark.parametrize("chunk", [K._SCAN_CHUNK, 1 << 12])
def test_hyperbola_scan_goldens(monkeypatch, chunk):
    """hyperbola_scan reproduces SCAN_GOLDENS exactly, at the default
    chunk and at one that splits the numpy scan of a 1e16 input into
    about a thousand blocks."""
    monkeypatch.setattr(K, "_SCAN_CHUNK", chunk)
    for n, a, w, h, dyc, want in SCAN_GOLDENS:
        assert K.hyperbola_scan(n, a, a - 1, w, h, 1, dyc) == want, (n, a, w)


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


def test_bucket_csr_sorted_input_row_widths():
    """Points in window-column order, as the program passes them, take
    one sort by row: the numpy bucketing equals the loop twin with rows
    that fit uint8 (<= 256), that fit uint16 (257 to 2**16) and that fit
    neither (above 2**16), on whole grids and on wrapping windows, with
    up to and past 2**16 cells."""
    rng = random.Random(56)
    for rows in (1, 2, 17, 256, 257, 4099, 1 << 16, (1 << 16) + 1,
                 (1 << 16) + 300):
        for cols in (1, 3, 40) if rows < 1 << 16 else (1, 3):
            w = rng.randrange(1, 50)
            npts = rng.randrange(500, 3000)
            xs = np.array([rng.randrange(cols * w) for _ in range(npts)],
                          dtype=np.int64)
            ys = np.array([rng.randrange(rows) for _ in range(npts)],
                          dtype=np.int64)
            xs[-1], ys[-1] = cols * w - 1, rows - 1
            for c0, k in ((0, cols), ((cols - 1) // 2, cols), (cols - 1, 1)):
                wcol = (xs // w - c0) % cols
                keep = np.flatnonzero(wcol < k)
                order = keep[np.argsort(wcol[keep], kind="stable")]
                _same_csr(xs[order], ys[order], w, 1, cols, rows, c0, k)


def _scan_both_ways(n, a, w, h, dxc, dyc, c0, bk):
    """The loop and numpy pair scans with the base mod a and with the
    base mod a - 1, on the driver's window shape: the base points of
    columns [c0, c0 + bk) in enumeration order with their cell ids, the
    shifted ones of util.shifted_window bucketed by each scan's own twin.
    Asserts the twins agree; returns {base modulus: (u, v, pairs)}."""
    cols, rows = -(-a // w), -(-a // h)
    s0, sk = shifted_window(cols, dxc, c0, bk)
    sets = {m: K.hyperbola_points(n, m) for m in (a, a - 1)}
    tables = K._neighbor_tables(cols, rows, w, h, a, dxc, dyc, c0, bk)
    got = {}
    for bm, sm in ((a, a - 1), (a - 1, a)):
        bx, by = sets[bm]
        col = (bx // w - c0) % cols
        inside = col < bk
        bx, by = bx[inside], by[inside]
        bcell = by // h * bk + col[inside]
        sx, sy = sets[sm]
        inside = (sx // w - s0) % cols < sk
        sx, sy = sx[inside], sy[inside]
        res = [tuple(int(x) for x in scan(
            bx, by, bcell, *bucket(sx, sy, w, h, cols, rows, s0, sk),
            *tables, bm, n, sm))
            for scan, bucket in ((K._pair_scan_csr_loop, K._bucket_csr_loop),
                                 (K._pair_scan_csr_np, K._bucket_csr_np))]
        assert res[0] == res[1], (n, a, w, h, bm, c0, bk)
        got[bm] = res[0]
    return got


def test_hyperbola_scan_backends_agree():
    """On whole grids the loop and numpy scans agree with each other and
    with hyperbola_scan with the base mod a and with the base mod a - 1,
    which the symmetric whole-grid neighbor relation makes one result."""
    rng = random.Random(44)
    from hideseek.arith import ceil_cbrt
    from util import arbitrary_semiprime, balanced_semiprime

    def both(n, a, w, h, dxc, dyc):
        got = _scan_both_ways(n, a, w, h, dxc, dyc, 0, -(-a // w))
        u, v, points, pairs = K.hyperbola_scan(n, a, a - 1, w, h, dxc, dyc)
        assert got[a] == got[a - 1] == (u, v, pairs), (n, a, w, h)
        assert points == sum(K.hyperbola_points(n, m)[0].size
                             for m in (a, a - 1))
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
    """Over column windows of the driver's shapes, covering ones from
    c0 > 0 included, with the base mod a and with the base mod a - 1: the
    numpy pair scan equals the loop scan.  Bucketing, which takes any
    window, wrapping ones included, equals its loop twin there."""
    rng = random.Random(48)
    from hideseek.arith import ceil_cbrt
    from util import arbitrary_semiprime

    for _ in range(40):
        n, p, q = arbitrary_semiprime(rng, 10 ** 7)
        a = ceil_cbrt(n)
        w = rng.randrange(1, a + 1)
        h = max(1, a // w)
        cols, rows = -(-a // w), -(-a // h)
        dxc, dyc = rng.choice(((1, 1), (1, 2)))
        _scan_both_ways(n, a, w, h, dxc, dyc, *driver_window(rng, cols, dxc))
        for m in (a, a - 1):
            c0, k = rng.randrange(cols), rng.randrange(1, cols + 1)
            xs, ys = K.hyperbola_points(n, m)
            inside = (xs // w - c0) % cols < k
            for x, y in zip(K._bucket_csr_np(xs[inside], ys[inside], w, h,
                                             cols, rows, c0, k),
                            K._bucket_csr_loop(xs[inside], ys[inside], w, h,
                                               cols, rows, c0, k)):
                assert np.array_equal(x, y)


def _three_scans(n, a, base, shifted, w, h, c0=0, bk=None, dyc=2):
    """The numpy and loop pair scans on a grid of w x h cells at radii
    (1, dyc), of base (points mod a) against shifted (points mod a - 1) and
    again with the roles swapped: each time the base points of the bk
    columns from c0 (default all) in their given order, with their cell
    ids, and the shifted points of the driver's shifted window
    (util.shifted_window) bucketed.  Asserts that both scans equal the
    oracle's (split or (0, 0), pairs) over the base points against every
    shifted point, and, on a whole base window, that the two ways agree;
    returns the result with the base mod a."""
    cols, rows = -(-a // w), -(-a // h)
    bk = cols if bk is None else bk
    s0, sk = shifted_window(cols, 1, c0, bk)
    tables = K._neighbor_tables(cols, rows, w, h, a, 1, dyc, c0, bk)

    def arrays(pts):
        return (np.array([p[i] for p in pts], dtype=np.int64) for i in (0, 1))

    got = {}
    for bm, sm, bpts, spts in ((a, a - 1, base, shifted),
                               (a - 1, a, shifted, base)):
        bpts = [p for p in bpts if (p[0] // w - c0) % cols < bk]
        bx, by = arrays(bpts)
        bcell = by // h * bk + (bx // w - c0) % cols
        swin = [p for p in spts if (p[0] // w - s0) % cols < sk]
        args = (bx, by, bcell,
                *K._bucket_csr_np(*arrays(swin), w, h, cols, rows, s0, sk),
                *tables, bm, n, sm)
        res = tuple(int(x) for x in K._pair_scan_csr_np(*args))
        assert res == tuple(int(x) for x in K._pair_scan_csr_loop(*args))
        splits, pairs = set(), 0
        for p, q in neighbor_pairs(bpts, spts, a, w, h, 1, dyc):
            pairs += 1
            f = check_candidate(n, a, *((p, q) if bm == a else (q, p)))
            if f is not None:
                splits.add((f.u, f.v))
        assert res == (*min(splits, default=(0, 0)), pairs), (
            n, a, w, bm, c0, bk)
        got[bm] = res
    if bk == cols:
        assert got[a] == got[a - 1], (n, a, w)
    return got[a]


def test_wrapping_runs_match_oracle():
    """Windows where column runs wrap past the last shifted column: the
    whole grid, whose columns 0 and cols - 1 reach across the seam, and
    windows covering the grid from c0 > 0 up to its last column; and
    narrow windows at either end of the grid, whose seam steps stay
    inside the window.  The numpy scan, the loop scan and the
    oracle agree on split and pairs."""
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
        if trial % 3 == 0 or cols < 2:  # the whole grid
            c0, bk = 0, cols
        elif trial % 3 == 1:  # covering from c0 > 0
            bk = rng.randrange(max(1, cols - 4), cols)
            c0 = cols - bk
        else:  # a narrow window at either end, where cols allows one
            bk = rng.randrange(1, max(2, cols - 4))
            c0 = rng.choice((0, cols - bk))
        runs, _ = K._neighbor_tables(cols, 1, w, a, a, 1, 1, c0, bk)
        if shifted_window(cols, 1, c0, bk)[1] == cols and cols > 5:
            # shorter axes may keep every column
            assert runs[1, bk:].any(), (a, w, c0, bk)
        _three_scans(n, a, base, shifted, w, h, c0, bk)


@pytest.mark.parametrize("dyc", [1, 2])
def test_one_row_rule(monkeypatch, dyc):
    """Grids of 1 to 6 rows of height h, the last one whole or truncated
    (one row taller than a included), at widths 2 and 4: _grid scans up
    to 2*dyc + 1 rows as one row of height a and keeps 2*dyc + 2 rows and
    more.  Either way hyperbola_scan, on the numpy kernels and on the
    loop twins, equals the public bucket_csr -> pair_scan_csr chain on
    the rows as given, and there the numpy scan, the loop scan and the
    oracle; strip mode over windows of a few columns equals full mode."""
    from hideseek.factor import _strip_scan
    from util import rand_prime

    monkeypatch.setattr(K, "_SCAN_CHUNK", 24)
    rng = random.Random(60 + dyc)
    for rows in range(1, 7):
        for cut in (0, 1):
            h = rng.randrange(40, 90)
            a = rows * h - cut * rng.randrange(1, h // 2)
            n = rand_prime(rng, a + 1, 3 * a) * rand_prime(rng, a + 1, a * a)
            sets = [list(zip(*(c.tolist() for c in K.hyperbola_points(n, m))))
                    for m in (a, a - 1)]
            for w in (2, 4):
                cols = -(-a // w)
                assert K._grid(a, w, h, dyc) == (
                    (cols, 1, a) if rows <= 2 * dyc + 1 else (cols, rows, h))
                got = K.hyperbola_scan(n, a, a - 1, w, h, 1, dyc)
                assert got[2] == len(sets[0]) + len(sets[1])
                want = (got[0], got[1], got[3])
                chain = K.pair_scan_csr(
                    *K.bucket_csr(*K.hyperbola_points(n, a), w, h, cols, rows),
                    *K.bucket_csr(*K.hyperbola_points(n, a - 1), w, h, cols,
                                  rows),
                    cols, rows, w, h, a, 1, dyc, n, a - 1)
                assert chain == want, (n, a, w, h, dyc)
                assert _three_scans(n, a, *sets, w, h, dyc=dyc) == want
                strip = _strip_scan(n, a, w, h, dyc)
                assert (strip[0], strip[1], strip[3]) == want
                with monkeypatch.context() as m:
                    m.setattr(K, "_bucket", K._bucket_csr_loop)
                    m.setattr(K, "_pair_scan", K._pair_scan_csr_loop)
                    assert K.hyperbola_scan(n, a, a - 1, w, h, 1, dyc) == got


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
    # and only u1 = 0: U = (a-1)*a + (a-1) splits n = 3 * U with y digits
    # that rebuild V = 3, but u1 = a - 1 is no digit of du = -(a-1)
    assert _three_scans(3 * m2 * a + 3 * m2, a, [(m2, 3)], [(0, 3)],
                        a, a) == (0, 0, 1)

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
        bx, by = K.hyperbola_points(n, a)
        sx, sy, sst = K._bucket_csr_np(*K.hyperbola_points(n, a - 1), w, h,
                                       cols, rows, 0, cols)
        runs, ny = K._neighbor_tables(cols, rows, w, h, a, 1, 2, 0, cols)
        monkeypatch.setattr(K, "_SCAN_CHUNK", chunk)
        tracemalloc.start()
        try:
            got = K._pair_scan_csr_np(bx, by, by // h * cols + bx // w, sx,
                                      sy, sst, runs, ny, a, n, a - 1)
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
    """A modulus below 2 is a bad argument, a plain ValueError; one of
    2**31 or more is out of range, the error the CLI exits 4 on."""
    from hideseek.factor import OutOfRangeError

    assert OutOfRangeError is K.OutOfRangeError
    with pytest.raises(ValueError) as bad:
        K.unit_inverse_table(1)
    assert not isinstance(bad.value, OutOfRangeError)
    for m in (1 << 31, (1 << 31) + 11):
        with pytest.raises(OutOfRangeError):
            K.unit_inverse_table(m)
        with pytest.raises(OutOfRangeError):
            K.hyperbola_points(7, m)
    with pytest.raises(ValueError):
        K.hyperbola_scan(1 << 63, 100, 99, 10, 10, 1, 1)
