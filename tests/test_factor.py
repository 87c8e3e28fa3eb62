import random
from math import gcd, isqrt

import pytest

from hideseek._kernels import hyperbola_scan
from hideseek.arith import ceil_cbrt, euler_phi
from hideseek.factor import (
    Factorization,
    FactorStats,
    InvariantError,
    OutOfRangeError,
    Prime,
    Unit,
    factor,
    hide_seek_balanced,
    hide_seek_general,
    is_probable_prime,
    trial_division,
)
from hideseek.solutions import solve_all
from oracle import check_candidate, neighbor_pairs
from util import arbitrary_semiprime, balanced_semiprime, rand_prime


def test_factorization_invariant_enforced():
    Factorization(77, 7, 11)
    with pytest.raises(InvariantError):
        Factorization(77, 7, 12)
    with pytest.raises(InvariantError):
        Factorization(77, 1, 77)
    with pytest.raises(InvariantError):
        Factorization(77, 11, 7)


def test_check_candidate_worked_example():
    assert check_candidate(77, 6, (1, 5), (2, 1)) == Factorization(77, 7, 11)


def test_check_candidate_rejects_trivial_divisor():
    # reconstruction that would give u = 1 is discarded
    assert check_candidate(5, 6, (1, 5), (1, 1)) is None


def test_check_candidate_planted_frames():
    rng = random.Random(11)
    for _ in range(10_000):
        p = rand_prime(rng, 700, 200_000)
        q = rand_prime(rng, p, 2 * p)
        if q >= 2 * p:
            continue
        n = p * q
        a = ceil_cbrt(2 * n)
        m2 = a - 1
        got = check_candidate(
            n, a, (p % a, q % a),
            ((p % a + p // a) % m2, (q % a + q // a) % m2))
        assert got == Factorization(n, p, q), (n, p, q, got)


def test_hide_seek_balanced_examples():
    assert hide_seek_balanced(77) == Factorization(77, 7, 11)
    assert hide_seek_balanced(221) == Factorization(221, 13, 17)


def test_hide_seek_balanced_random_semiprimes():
    rng = random.Random(12)
    for _ in range(200):
        n, p, q = balanced_semiprime(rng, 10 ** 12)
        got = hide_seek_balanced(n)
        assert got == Factorization(n, p, q), (n, p, q, got)


def test_hide_seek_balanced_prime_squares():
    rng = random.Random(13)
    for _ in range(50):
        p = rand_prime(rng, 1000, 1_000_000)
        assert hide_seek_balanced(p * p) == Factorization(p * p, p, p)


def test_hide_seek_balanced_gcd_shortcut():
    # gcd(a, N) > 1 splits without any enumeration
    n = 77 * 75  # a = ceil_cbrt(2n) shares a factor sometimes; force one:
    rng = random.Random(14)
    hits = 0
    for _ in range(500):
        n, p, q = balanced_semiprime(rng, 10 ** 9)
        a = ceil_cbrt(2 * n)
        for m in (a, a - 1):
            if n % m == 0:
                hits += 1
        got = hide_seek_balanced(n)
        assert got is not None and got.u * got.v == n


def test_hide_seek_general_examples():
    assert hide_seek_general(77) == Factorization(77, 7, 11)
    # the smaller factor is below N / a**2, so the larger one has no
    # two-digit base-a form; factor() trial-divides first and splits it
    n = 10477 * 110641417
    assert 10477 < n / ceil_cbrt(n) ** 2
    assert hide_seek_general(n) is None
    assert factor(n) == Factorization(n, 10477, 110641417)


def test_hide_seek_general_gcd_shortcut_path():
    # construct N divisible by ceil_cbrt(N) - 1
    for base in (1000, 5000, 12345):
        m = base - 1
        n = m * (base ** 2)  # roughly base^3, so ceil_cbrt(n) is near base
        a = ceil_cbrt(n)
        if n % a == 0 or n % (a - 1) == 0:
            got = hide_seek_general(n)
            assert got is not None and got.u * got.v == n


def test_hide_seek_general_random_semiprimes():
    rng = random.Random(15)
    done = 0
    while done < 200:
        n, p, q = arbitrary_semiprime(rng, 10 ** 10)
        if p <= ceil_cbrt(n):  # trial-division territory, driver's job
            continue
        done += 1
        got = hide_seek_general(n)
        assert got == Factorization(n, p, q), (n, p, q, got)


def _strip_and_full(fn, n):
    s_full, s_strip = FactorStats(), FactorStats()
    f_full = fn(n, stats=s_full)
    f_strip = fn(n, strip_mode=True, stats=s_strip)
    return (f_full, s_full), (f_strip, s_strip)


def test_strip_mode_equals_full_mode():
    # at these sizes every strip scan is a single window, so strip mode
    # enumerates exactly the points full mode does
    rng = random.Random(16)
    for _ in range(60):
        n, p, q = balanced_semiprime(rng, 10 ** 9)
        (f_full, s_full), (f_strip, s_strip) = _strip_and_full(
            hide_seek_balanced, n)
        assert f_full == f_strip
        assert (s_full.points, s_full.pairs) == (s_strip.points, s_strip.pairs)
    done = 0
    while done < 30:
        n, p, q = arbitrary_semiprime(rng, 10 ** 9)
        if p <= ceil_cbrt(n):
            continue
        done += 1
        (f_full, s_full), (f_strip, s_strip) = _strip_and_full(
            hide_seek_general, n)
        assert f_full == f_strip
        assert (s_full.points, s_full.pairs) == (s_strip.points, s_strip.pairs)


@pytest.mark.parametrize("chunk", [1, 7, 64])
def test_strip_mode_windows_equal_full_mode(monkeypatch, chunk):
    """With a small _SCAN_CHUNK, strip mode runs many column windows, the
    first and last wrapping across the seam; split and pairs stay those
    of full mode, also where N has several splits that different windows
    find and the smallest must win."""
    from hideseek import _kernels

    monkeypatch.setattr(_kernels, "_SCAN_CHUNK", chunk)
    rng = random.Random(100 + chunk)
    for _ in range(4):
        n, p, q = balanced_semiprime(rng, 10 ** 8)
        (f_full, s_full), (f_strip, s_strip) = _strip_and_full(
            hide_seek_balanced, n)
        assert f_full == f_strip == Factorization(n, p, q)
        assert s_full.pairs == s_strip.pairs
    done = 0
    while done < 2:
        n, p, q = arbitrary_semiprime(rng, 10 ** 7)
        if p <= ceil_cbrt(n):
            continue
        done += 1
        (f_full, s_full), (f_strip, s_strip) = _strip_and_full(
            hide_seek_general, n)
        assert f_full == f_strip == Factorization(n, p, q)
        assert s_full.pairs == s_strip.pairs
    for _ in range(3):
        p, q, r = (rand_prime(rng, 30, 400) for _ in range(3))
        for variant in (hide_seek_balanced, hide_seek_general):
            (f_full, s_full), (f_strip, s_strip) = _strip_and_full(
                variant, p * q * r)
            assert f_full == f_strip, (p, q, r)
            assert s_full.pairs == s_strip.pairs


def test_strip_mode_memory_budget(monkeypatch):
    """Strip mode holds one column window at a time, so with a small
    _SCAN_CHUNK its peak memory stays well below full mode's."""
    import tracemalloc

    from hideseek import _kernels

    monkeypatch.setattr(_kernels, "_SCAN_CHUNK", 1 << 10)
    n = 2000003 * 3000017

    def peak(strip_mode):
        tracemalloc.start()
        try:
            got = hide_seek_balanced(n, strip_mode=strip_mode)
            return got, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    full, peak_full = peak(False)
    strip, peak_strip = peak(True)
    assert full == strip == Factorization(n, 2000003, 3000017)
    assert 4 * peak_strip < peak_full


# (variant, N, split, last w, {_SCAN_CHUNK: (points, pairs)}): a = 1262,
# 1261, 1260, 12602, 12599, 12600, 2715, 5848 for the balanced variant
# and 1000, 1001, 1002, 10000, 10001, 10002, 2154, 4642 for the general
# one, so a is even, odd and a multiple of 3 at 1e9 and at 1e12
STRIP_GOLDENS = [
    (hide_seek_balanced, 1003615159, (24359, 41201), 36,
     {64: (6390, 5326), 1024: (2013, 5326)}),
    (hide_seek_balanced, 1002215689, (30631, 32719), 36,
     {64: (2592, 2360), 1024: (1499, 2360)}),
    (hide_seek_balanced, 998686001, (24019, 41579), 36,
     {64: (6578, 2616), 1024: (1832, 2616)}),
    (hide_seek_balanced, 1000556608897, (999067, 1001491), 113,
     {64: (69300, 57804), 1024: (24720, 57804)}),
    (hide_seek_balanced, 999946810979, (994229, 1005751), 113,
     {64: (43754, 56184), 1024: (21470, 56184)}),
    (hide_seek_balanced, 1000138202549, (964499, 1036951), 113,
     {64: (64200, 25718), 1024: (20807, 25718)}),
    (hide_seek_balanced, 10002590321, (96043, 104147), 53,
     {64: (7820, 6360), 1024: (2996, 6360)}),
    (hide_seek_balanced, 99967429811, (281363, 355297), 77,
     {64: (22168, 16736), 1024: (7811, 16736)}),
    (hide_seek_general, 999745423, (1087, 919729), 2,
     {64: (1129, 1554), 1024: (1048, 1554)}),
    (hide_seek_general, 1000491347, (3659, 273433), 2,
     {64: (1171, 1724), 1024: (1120, 1724)}),
    (hide_seek_general, 1003692593, (10427, 96259), 16,
     {64: (5576, 11686), 1024: (4208, 11686)}),
    (hide_seek_general, 999709521611, (127877, 7817743), 16,
     {64: (51299, 115132), 1024: (40720, 115132)}),
    (hide_seek_general, 1000194975089, (189617, 5274817), 32,
     {64: (84504, 246325), 1024: (69933, 246325)}),
    (hide_seek_general, 1000421308841, (188107, 5318363), 16,
     {64: (70903, 156136), 1024: (53636, 156136)}),
    (hide_seek_general, 9986554499, (15937, 626627), 8,
     {64: (10494, 23703), 1024: (8758, 23703)}),
    (hide_seek_general, 99989007241, (37619, 2657939), 8,
     {64: (15242, 34464), 1024: (13344, 34464)}),
]


def test_strip_mode_buckets_only_shifted_windows(monkeypatch):
    """Strip mode runs the scan driver without the public hyperbola_scan,
    bucket_csr or pair_scan_csr, so that a wrapper around those sees no
    strip scan, and buckets one shifted window per column window, its
    base left unbucketed: at 36 one-column windows and at one window."""
    from hideseek import _kernels

    def refuse(*args, **kwargs):
        raise AssertionError("strip mode called a public scan kernel")

    for name in ("hyperbola_scan", "bucket_csr", "pair_scan_csr"):
        monkeypatch.setattr(_kernels, name, refuse)
    calls = []
    bucket = _kernels._bucket
    monkeypatch.setattr(_kernels, "_bucket",
                        lambda *args: calls.append(args[6:]) or bucket(*args))
    n = 1003615159  # a = 1262, cells of 36 x 36, 36 columns
    for chunk, windows in ((36, 36), (1 << 18, 1)):
        monkeypatch.setattr(_kernels, "_SCAN_CHUNK", chunk)
        calls.clear()
        assert hide_seek_balanced(n, strip_mode=True) == Factorization(
            n, 24359, 41201)
        assert len(calls) == windows, chunk
    assert calls == [(0, 36)]


@pytest.mark.parametrize("chunk", [1 << 6, 1 << 10])
def test_strip_mode_counter_goldens(monkeypatch, chunk):
    """Strip mode's split, last width, points and pairs at two window
    sizes, most widths running several column windows: points counts the
    shifted columns each window enumerates, so it pins the windows."""
    from hideseek import _kernels

    monkeypatch.setattr(_kernels, "_SCAN_CHUNK", chunk)
    for variant, n, split, w, counts in STRIP_GOLDENS:
        st = FactorStats()
        assert variant(n, strip_mode=True, stats=st) == Factorization(
            n, *split), n
        assert (st.w, st.points, st.pairs) == (w, *counts[chunk]), n


# (variant, N, split | None | OutOfRangeError, FactorStats fields in full
# mode; strip mode appends "-strip" to a method that was set)
VARIANT_EDGES = [
    (hide_seek_balanced, 1, None, ("", 0, 0, 0, 0, 0)),
    (hide_seek_general, 1, None, ("", 0, 0, 0, 0, 0)),
    # a = 2 < 3
    (hide_seek_balanced, 4, None, ("", 0, 0, 0, 0, 0)),
    (hide_seek_general, 4, None, ("", 0, 0, 0, 0, 0)),
    # a = 3: balanced names its one cell shape before the gcd shortcut,
    # general names none
    (hide_seek_balanced, 10, (2, 5), ("balanced", 3, 2, 2, 0, 0)),
    (hide_seek_general, 10, (2, 5), ("general", 3, 0, 0, 0, 0)),
    # gcd shortcut through a: 7 | 1260 resp. 1001 | 1001
    (hide_seek_balanced, 1000000001, (7, 142857143),
     ("balanced", 1260, 36, 36, 0, 0)),
    (hide_seek_general, 1000000001, (1001, 999001),
     ("general", 1001, 0, 0, 0, 0)),
    # gcd shortcut through a - 1: 1259 | 1259 resp. 37 | 999
    (hide_seek_balanced, 998320273, (1259, 792947),
     ("balanced", 1260, 36, 36, 0, 0)),
    (hide_seek_general, 998320273, (37, 26981629),
     ("general", 1000, 0, 0, 0, 0)),
    (hide_seek_balanced, 31607 * 40009, (31607, 40009),
     ("balanced", 1363, 37, 37, 1740, 3894)),
    (hide_seek_general, 31607 * 40009, (31607, 40009),
     ("general", 1082, 16, 67, 6208, 24198)),
    # a prime: general tries every width w = 2, ..., 512 <= a = 1001
    (hide_seek_balanced, 1000000007, None,
     ("balanced", 1260, 36, 36, 1546, 2424)),
    (hide_seek_general, 1000000007, None,
     ("general", 1001, 512, 1, 10080, 31512)),
    (hide_seek_balanced, (1 << 63) + 1, OutOfRangeError, ("", 0, 0, 0, 0, 0)),
    (hide_seek_general, (1 << 63) + 1, OutOfRangeError, ("", 0, 0, 0, 0, 0)),
]


@pytest.mark.parametrize("strip", [False, True])
def test_variant_edges(strip):
    """Both variants' exits, gcd shortcuts, a split and a prime: the
    result and every FactorStats field a caller can read."""
    for variant, n, want, (method, *counts) in VARIANT_EDGES:
        st = FactorStats()
        if want is OutOfRangeError:
            with pytest.raises(OutOfRangeError):
                variant(n, strip_mode=strip, stats=st)
        else:
            got = variant(n, strip_mode=strip, stats=st)
            assert got == (want and Factorization(n, *want)), (variant, n)
        if strip and method:
            method += "-strip"
        assert (st.method, st.a, st.w, st.h, st.points, st.pairs) == (
            method, *counts), (variant, n)


def test_trial_division_examples():
    assert trial_division(77, 10) == Factorization(77, 7, 11)
    assert trial_division(101, 10) is None
    # oracle-derived: smallest factor of 2^40 + 7 is 53
    assert trial_division(2 ** 40 + 7, 10 ** 4) == Factorization(
        2 ** 40 + 7, 53, 20745502411)


def test_trial_division_bounds():
    assert trial_division(4, 2) == Factorization(4, 2, 2)
    assert trial_division(991 * 997, 100) is None
    assert trial_division(991 * 997, 991) == Factorization(991 * 997, 991, 997)


def test_is_probable_prime_known_values():
    primes = [2, 3, 5, 13, 97, 1000003, 2 ** 31 - 1, 67280421310721]
    comps = [1, 4, 77, 561, 1373653, 25326001, 3215031751, 3825123056546413051]
    assert all(is_probable_prime(p) for p in primes)
    assert not any(is_probable_prime(c) for c in comps)


def test_factor_driver_examples():
    assert factor(1) == Unit()
    assert factor(13) == Prime(13)
    assert factor(77) == Factorization(77, 7, 11)


def test_factor_driver_random_verified():
    rng = random.Random(17)
    for _ in range(2000):
        n = rng.randrange(1, 10 ** 12)
        got = factor(n)
        if isinstance(got, Factorization):
            assert got.u * got.v == n and 1 < got.u <= got.v
        elif isinstance(got, Prime):
            assert is_probable_prime(n)
        else:
            assert n == 1


def test_factor_rejects_nonpositive():
    with pytest.raises(ValueError):
        factor(0)


def test_factor_above_kernel_range():
    """A composite N >= 2**63 with no prime factor up to N**(1/3) is
    outside the supported range, a distinct error from a bad argument."""
    n = 2147496017 * 4294967311
    assert n >= 1 << 63
    with pytest.raises(OutOfRangeError):
        factor(n)
    for variant in (hide_seek_balanced, hide_seek_general):
        with pytest.raises(OutOfRangeError):
            variant(n)


def test_factor_stats_populated():
    st = FactorStats()
    n = 1000003 * 1500007
    got = factor(n, stats=st)
    assert got == Factorization(n, 1000003, 1500007)
    assert st.method == "general"
    assert st.a == ceil_cbrt(n)
    assert st.pairs > 0
    # points counts both solution sets once per width w = 2, 4, ..., st.w
    widths = st.w.bit_length() - 1
    assert st.points == widths * (euler_phi(st.a) + euler_phi(st.a - 1))


def test_balanced_stats_add_up_across_calls():
    """One FactorStats reused for two calls holds twice one call's
    counters, in full and strip mode alike."""
    n = 1000003 * 1000033
    once = FactorStats()
    hide_seek_balanced(n, stats=once)
    for strip in (False, True):
        st = FactorStats()
        for _ in range(2):
            assert hide_seek_balanced(n, strip_mode=strip, stats=st) == (
                Factorization(n, 1000003, 1000033))
        assert (st.points, st.pairs) == (2 * once.points, 2 * once.pairs), (
            strip)


def test_general_enumerates_once_per_n(monkeypatch):
    """Full-mode hide_seek_general enumerates both solution sets by one
    _point_sets call per call, however many widths it tries, and never
    through hyperbola_points."""
    from hideseek import _kernels

    calls = []

    def counted(name):
        fn = getattr(_kernels, name)

        def wrapped(*args):
            calls.append((name, *args))
            return fn(*args)
        monkeypatch.setattr(_kernels, name, wrapped)

    counted("_point_sets")
    counted("hyperbola_points")
    n = 1000003 * 1500007
    a = ceil_cbrt(n)
    for _ in range(2):
        st = FactorStats()
        calls.clear()
        assert hide_seek_general(n, stats=st) == Factorization(
            n, 1000003, 1500007)
        assert st.w >= 8  # at least three widths
        assert calls == [("_point_sets", n, a, a - 1)]


def _oracle_scan(n, a, cell_w, cell_h, dxc, dyc):
    """(split or None, pairs) of the reference: solve_all points, the
    neighbor pairs of oracle.py and check_candidate on each pair."""
    base = solve_all(n, a).points
    shifted = solve_all(n, a - 1).points
    found, pairs = set(), 0
    for pp, qq in neighbor_pairs(base, shifted, a, cell_w, cell_h, dxc, dyc):
        pairs += 1
        got = check_candidate(n, a, pp, qq)
        if got is not None:
            found.add((got.u, got.v))
    return min(found, default=None), pairs


def test_kernel_matches_composed_scan():
    """The kernel scan finds the same split and checks the same number of
    pairs as the reference (solve_all + neighbor_pairs + check_candidate),
    on the balanced cells at radius 1 and the general variant's
    (w, max(1, a // w)) cells at radii (1, 2); hide_seek_general, in full
    and strip mode, finds the oracle's split at the first width that has
    one, and its pairs sum the oracle's over the widths tried."""
    rng = random.Random(18)
    for _ in range(40):
        n, p, q = balanced_semiprime(rng, 10 ** 8)
        a = ceil_cbrt(2 * n)
        if n % a == 0 or n % (a - 1) == 0:
            continue
        b = isqrt(a - 1) + 1
        split, pairs = _oracle_scan(n, a, b, b, 1, 1)
        fast = hide_seek_balanced(n)
        assert (fast.u, fast.v) == split, (n, split, fast)
        assert hyperbola_scan(n, a, a - 1, b, b, 1, 1) == (
            *split, euler_phi(a) + euler_phi(a - 1), pairs)
    done = 0
    while done < 12:
        n, p, q = arbitrary_semiprime(rng, 10 ** 8)
        a = ceil_cbrt(n)
        if p <= a or gcd(n, a * (a - 1)) > 1:
            continue
        done += 1
        found, total, widths = None, 0, 0
        w = 2
        while w <= a:  # the widths hide_seek_general tries
            h = max(1, a // w)
            split, pairs = _oracle_scan(n, a, w, h, 1, 2)
            assert hyperbola_scan(n, a, a - 1, w, h, 1, 2) == (
                *(split or (0, 0)), euler_phi(a) + euler_phi(a - 1),
                pairs), (n, w)
            if found is None:
                found, total, widths = split, total + pairs, widths + 1
            w *= 2
        for strip in (False, True):
            st = FactorStats()
            got = hide_seek_general(n, strip_mode=strip, stats=st)
            assert (got.u, got.v) == found, (n, strip)
            assert (st.w, st.pairs) == (1 << widths, total), (n, strip)
            if not strip:
                assert st.points == widths * (euler_phi(a) + euler_phi(a - 1))
