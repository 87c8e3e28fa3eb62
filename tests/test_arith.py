import pytest

from hideseek.arith import (
    batch_inverses,
    ceil_cbrt,
    divisor_count,
    euler_phi,
    ext_gcd,
    floor_cbrt,
    gcd,
    mobius,
    mod_inv,
    prime_factors,
)
from hideseek.rng import SplitMix64


def test_gcd_examples():
    assert gcd(0, 7) == 7
    assert gcd(12, 18) == 6
    assert gcd(77, 6) == 1


@pytest.mark.parametrize("x,y", [(1, 1), (3, 7), (12, 18), (240, 46),
                                 (0, 5), (99991, 2**31)])
def test_ext_gcd_bezout_identity(x, y):
    g, s, t = ext_gcd(x, y)
    assert g == gcd(x, y)
    assert s * x + t * y == g


def test_mod_inv_examples():
    assert mod_inv(1, 9) == 1
    assert mod_inv(3, 7) == 5
    assert mod_inv(4, 8) is None


def test_mod_inv_range_and_identity():
    for m in range(2, 200):
        for x in range(m):
            inv = mod_inv(x, m)
            if gcd(x, m) == 1:
                assert inv is not None and 1 <= inv < m
                assert x * inv % m == 1
            else:
                assert inv is None


def test_batch_inverses_examples():
    for m, want in ((5, [(1, 1), (2, 3), (3, 2), (4, 4)]),
                    (6, [(1, 1), (5, 5)]), (2, [(1, 1)])):
        units, invs = batch_inverses(m)
        assert list(zip(units.tolist(), invs.tolist())) == want


def test_batch_inverses_matches_mod_inv():
    for m in list(range(2, 120)) + [97 * 89, 2 ** 10, 3 * 5 * 7 * 11]:
        units, invs = batch_inverses(m)
        assert units.size == invs.size == euler_phi(m)
        for x, xb in zip(units.tolist(), invs.tolist()):
            assert gcd(x, m) == 1
            assert x * xb % m == 1
            assert xb == mod_inv(x, m)


def test_multiplicative_function_examples():
    assert euler_phi(1) == 1 and mobius(1) == 1
    assert euler_phi(12) == 4
    assert divisor_count(12) == 6
    assert mobius(12) == 0
    assert mobius(6) == 1
    assert divisor_count(7) == 2


def test_divisor_sum_identities():
    # sum of phi over divisors telescopes to m; mobius detects m == 1
    for m in range(1, 10_001):
        divs = [d for d in range(1, int(m ** 0.5) + 1) if m % d == 0]
        divs = sorted(set(divs + [m // d for d in divs]))
        assert sum(euler_phi(d) for d in divs) == m
        assert sum(mobius(d) for d in divs) == (1 if m == 1 else 0)


def test_prime_factors_reassembles():
    for m in (1, 2, 12, 97, 1024, 99991, 2 * 3 * 5 * 7 * 11 * 13):
        acc = 1
        for p, e in prime_factors(m):
            acc *= p ** e
        assert acc == m


def test_ceil_cbrt_examples():
    assert ceil_cbrt(1) == 1
    assert ceil_cbrt(8) == 2
    assert ceil_cbrt(154) == 6
    assert ceil_cbrt(216) == 6
    assert ceil_cbrt(217) == 7


def test_cbrt_boundaries():
    for k in (1, 2, 3, 10, 1000, 2 ** 21 - 3):
        cube = k ** 3
        assert floor_cbrt(cube) == k
        assert floor_cbrt(cube - 1) == k - 1
        assert floor_cbrt(cube + 1) == k
        assert ceil_cbrt(cube) == k
        assert ceil_cbrt(cube + 1) == k + 1


def test_ceil_cbrt_random_sweep():
    # exactness over the full supported range, one million draws
    rng = SplitMix64(20260808)
    for _ in range(1_000_000):
        n = rng.next_u64() % ((1 << 63) - 1) + 1
        k = ceil_cbrt(n)
        assert k ** 3 >= n
        assert (k - 1) ** 3 < n
