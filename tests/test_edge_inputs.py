"""Property tests on inputs at the edge of the range: prime powers, p*p*q
and p**3 with the primes on either side of ceil_cbrt(N), and N sharing a
factor with the general variant's a or a-1 (all N <= 1e12); N whose a-1
is divisible by 2*3*5*7*11*13 (N < 2.2e14); N on either side of the
size where strip mode goes from one column window to many (N near 7e10,
with _kernels._SCAN_CHUNK patched down to 2**12); and three semiprimes
from 1e17 to just under 2**63, pinned to their splits and counters.

Each input is factored by the driver, which must split off the smallest
prime factor, and by both hide-seek variants in full and strip mode,
which must agree on the split and on the pairs checked.  They agree on
the points counted too while one column window covers the grid; with
more windows strip mode counts more, because each window also enumerates
the shifted columns beside it.  derandomize makes the runs reproducible
and keeps Hypothesis from writing an example database.
"""

from math import isqrt
from unittest.mock import patch

from hypothesis import assume, given, settings, strategies as st

from hideseek import _kernels
from hideseek.arith import ceil_cbrt, prime_factors
from hideseek.factor import (
    Factorization,
    FactorStats,
    factor,
    hide_seek_balanced,
    hide_seek_general,
    is_probable_prime,
)

NMAX = 10 ** 12
edge = settings(derandomize=True, deadline=None)


def next_prime(n):
    while not is_probable_prime(n):
        n += 1
    return n


def check(n, spf):
    assert factor(n) == Factorization(n, spf, n // spf)
    for variant, a in ((hide_seek_balanced, ceil_cbrt(2 * n)),
                       (hide_seek_general, ceil_cbrt(n))):
        full, strip = FactorStats(), FactorStats()
        got = variant(n, stats=full)
        assert variant(n, strip_mode=True, stats=strip) == got
        assert full.pairs == strip.pairs
        if a <= _kernels._SCAN_CHUNK:  # one column window covers the grid
            assert strip.points == full.points
        else:  # each window also enumerates the shifted columns beside it
            assert strip.points > full.points


@edge
@given(st.integers(2, 999_000), st.integers(2, 40))
def test_prime_powers(p, k):
    p = next_prime(p)
    while p ** k > NMAX:
        k -= 1
    check(p ** k, p)


@edge
@given(st.integers(2, 999_000), st.data())
def test_square_times_prime(p, data):
    p = next_prime(p)
    q = next_prime(data.draw(st.integers(2, max(2, NMAX // (p * p)))))
    n = p * p * q
    assume(n <= NMAX and q != p)
    assert min(p, q) < ceil_cbrt(n) <= max(p, q)
    check(n, min(p, q))


@edge
@given(st.integers(2, 10 ** 4))
def test_prime_cubes(p):
    p = next_prime(p)
    assert ceil_cbrt(p ** 3) == p
    check(p ** 3, p)


@edge
@given(st.integers(4, 10 ** 4), st.booleans(), st.data())
def test_shares_factor_with_modulus(a, minus_one, data):
    """N = g*q with g a prime factor of a or a-1 and ceil_cbrt(N) = a, so
    hide_seek_general splits N by its gcd shortcut."""
    g = data.draw(st.sampled_from([p for p, _ in prime_factors(a - minus_one)]))
    q = next_prime(data.draw(st.integers((a - 1) ** 3 // g + 1, a ** 3 // g)))
    n = g * q
    assume(n <= a ** 3)
    assert ceil_cbrt(n) == a
    got = hide_seek_general(n)
    assert got is not None and got.u * got.v == n
    check(n, min(g, q))


def semiprime_with_root(data, a, scale=1):
    """(N, p) with N = p*q, a < p <= q and ceil_cbrt(scale*N) == a, so
    trial division up to ceil_cbrt(N) leaves N to the hide-seek scan."""
    lo, hi = (a - 1) ** 3 // scale + 1, a ** 3 // scale
    p = next_prime(data.draw(st.integers(a + 1, isqrt(hi))))
    assume(p * p <= hi)
    q = next_prime(data.draw(st.integers(max(p, lo // p + 1), hi // p)))
    n = p * q
    assume(n <= hi and ceil_cbrt(scale * n) == a)
    return n, p


@settings(edge, max_examples=12)
@given(st.integers(1, 2), st.data())
def test_highly_composite_modulus(k, data):
    """The general variant's a - 1 is divisible by 30030 = 2*3*5*7*11*13,
    so the set mod a-1 is small: phi(a-1)/(a-1) < 0.2."""
    a = 30030 * k + 1
    n, p = semiprime_with_root(data, a)
    check(n, p)


@edge
@given(st.integers(-2, 3), st.sampled_from([1, 2]), st.data())
def test_strip_window_boundary(offset, scale, data):
    """With _SCAN_CHUNK = C = 2**12, strip mode scans each width in one
    column window when a <= C and in several when a > C, for the general
    variant's a = ceil_cbrt(N) (w a power of two) and the balanced one's
    a = ceil_cbrt(2N) (b = ceil(sqrt(a)), C = 64**2)."""
    chunk = 1 << 12
    n, p = semiprime_with_root(data, chunk + offset, scale)
    with patch.object(_kernels, "_SCAN_CHUNK", chunk):
        check(n, p)


# (variant, N, split, w, pairs, full-mode points, strip-mode points)
LARGE = [
    (factor, 99996208205355941, (7675357, 13028215913), 16, 7_302_447,
     2_443_776, 2_443_991),
    (factor, 8999978981976467731, (34204207, 263124912733), 16, 29_289_880,
     9_147_488, 9_147_918),
    (hide_seek_balanced, 1000435513056912929, (1000061681, 1000373809), 1123,
     5_235_830, 1_793_208, 1_812_994),
]


def test_large_n_full_and_strip():
    """Hard semiprimes at 1e17 and 9e18, just under the 2**63 limit, and a
    balanced one at 1e18 split the same way in full and strip mode, at
    the same width after the same pairs; strip mode counts more points
    because its column windows overlap."""
    for variant, n, split, w, pairs, *points in LARGE:
        for strip, want in zip((False, True), points):
            st = FactorStats()
            assert variant(n, strip_mode=strip, stats=st) == Factorization(
                n, *split), (n, strip)
            assert (st.w, st.pairs, st.points) == (w, pairs, want), (n, strip)
