"""Property tests on inputs at the edge of the range, N <= 1e12: prime
powers, p*p*q and p**3 with the primes on either side of ceil_cbrt(N),
and N sharing a factor with the general variant's a or a-1.

Each input is factored by the driver, which must split off the smallest
prime factor, and by both hide-seek variants in full and strip mode,
which must agree on the split and on the points and pairs counted (at
these sizes one column window covers the grid).  derandomize makes the
runs reproducible and keeps Hypothesis from writing an example database.
"""

from hypothesis import assume, given, settings, strategies as st

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
    for variant in (hide_seek_balanced, hide_seek_general):
        full, strip = FactorStats(), FactorStats()
        got = variant(n, stats=full)
        assert variant(n, strip_mode=True, stats=strip) == got
        assert (full.points, full.pairs) == (strip.points, strip.pairs)


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
