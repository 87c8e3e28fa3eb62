import random
from math import gcd

import pytest

from hideseek.factor import Factorization, OutOfRangeError
from hideseek.polysearch import (
    DigitVector,
    InstanceTooLargeError,
    PolyInstance,
    build_instance,
    digits,
    extended_solutions,
    factor_via_poly,
    lambda_factor,
    poly_search,
)
from hideseek.solutions import CommonFactor, HyperbolaPoint, solve_all
from oracle import poly_search_brute


def test_digits_examples():
    assert digits(5, 6).digits == (5,)
    assert digits(77, 6).digits == (5, 0, 2)
    a = 9
    assert digits(a ** 3, a).digits == (0, 0, 0, 1)


def test_digits_roundtrip():
    rng = random.Random(31)
    for _ in range(100_000):
        a = rng.randrange(2, 1000)
        u = rng.randrange(1, 10 ** 12)
        dv = digits(u, a)
        assert dv.value() == u
        assert all(0 <= d < a for d in dv.digits)
        assert dv.digits[-1] != 0


def test_digit_vector_validation():
    with pytest.raises(ValueError):
        DigitVector(6, (1, 0))
    with pytest.raises(ValueError):
        DigitVector(6, (7,))


def test_lambda_examples():
    assert lambda_factor(5, 0) == 1
    assert lambda_factor(3, 1) == 4
    assert lambda_factor(2, 2) == 7


def test_lambda_closed_form_identity():
    for d in range(0, 8):
        for delta in range(2, 12):
            assert (lambda_factor(d, delta) * (delta - 1)
                    == delta ** (d + 1) - 1)


def test_extended_solutions_delta_zero_is_fundamental():
    for n, a in ((77, 6), (1, 5), (13, 9)):
        got = extended_solutions(n, a, 0, 3)
        want = sorted(p for p in solve_all(n, a).points if p.x and p.y)
        assert got == want


def test_extended_solutions_contains_planted_point():
    # digits of 77 base 6 are (5, 0, 2); at delta=1 the digit polynomials
    # evaluate to (7, 11), which must appear within the inflated range
    pts = extended_solutions(77, 6, 1, 2)
    assert HyperbolaPoint(7, 11) in pts
    assert all(0 < p.x < 6 * lambda_factor(2, 1) for p in pts)


def test_extended_solutions_count_matches_brute_force():
    rng = random.Random(32)
    for _ in range(25):
        a = rng.randrange(4, 14)
        d = rng.randrange(0, 3)
        delta = rng.randrange(0, min(d + 1, a - 2))
        n = rng.randrange(1, 500)
        m = a - delta
        if gcd(n, m) > 1:
            continue
        lam = lambda_factor(d, delta)
        bound = a * lam
        want = sorted(
            HyperbolaPoint(x, y)
            for x in range(1, bound) for y in range(1, bound)
            if gcd(x, m) == 1 and (x * y - n) % m == 0)
        assert extended_solutions(n, a, delta, d) == want


def test_extended_solutions_common_factor_signal():
    assert isinstance(extended_solutions(10, 7, 2, 1), CommonFactor)


def test_instance_size_cap():
    with pytest.raises(InstanceTooLargeError):
        extended_solutions(7, 10 ** 6, 9, 9)
    # the CLI exits 4 on it, not 2 as for a usage error
    assert issubclass(InstanceTooLargeError, OutOfRangeError)


def test_poly_search_degree_one_recovers_pairing():
    inst = build_instance(77, 6, 1)
    res = poly_search(inst)
    assert ((1, 1), (5, 1)) in res
    for ucs, vcs in res:
        u = sum(c * 6 ** i for i, c in enumerate(ucs))
        v = sum(c * 6 ** i for i, c in enumerate(vcs))
        for delta in range(2):
            m = 6 - delta
            ue = sum(c * delta ** i for i, c in enumerate(ucs))
            ve = sum(c * delta ** i for i, c in enumerate(vcs))
            assert (ue * ve - 77) % m == 0


def test_poly_search_soundness_reevaluation():
    rng = random.Random(33)
    checked = 0
    while checked < 20:
        a = rng.randrange(4, 12)
        d = rng.randrange(1, 3)
        n = rng.randrange(2, 2000)
        if any(gcd(n, a - delta) > 1 for delta in range(d + 1)):
            continue
        inst = build_instance(n, a, d)
        res = poly_search(inst)
        checked += 1
        for ucs, vcs in res:
            assert all(0 <= c < a for c in ucs + vcs)
            for delta in range(d + 1):
                x = sum(c * delta ** i for i, c in enumerate(ucs))
                y = sum(c * delta ** i for i, c in enumerate(vcs))
                assert y in inst.sets[delta].get(x, set()), (n, a, d, ucs, vcs)


def test_poly_search_planted_complete():
    rng = random.Random(34)
    done = 0
    while done < 60:
        d = rng.choice((1, 2))
        a = rng.randrange(4, 24)
        ud = [rng.randrange(a) for _ in range(d)] + [rng.randrange(1, a)]
        vd = [rng.randrange(a) for _ in range(d)] + [rng.randrange(1, a)]
        u = sum(c * a ** i for i, c in enumerate(ud))
        v = sum(c * a ** i for i, c in enumerate(vd))
        n = u * v
        if n > 10 ** 7:
            continue
        if any(gcd(n, a - delta) > 1 for delta in range(d + 1)):
            continue
        done += 1
        res = poly_search(build_instance(n, a, d))
        assert (tuple(ud), tuple(vd)) in res or (tuple(vd), tuple(ud)) in res


@pytest.mark.parametrize("d, amax, count",
                         ((0, 40, 30), (1, 25, 20), (2, 12, 10), (3, 6, 1)))
def test_poly_search_matches_brute_force(d, amax, count):
    # exactly the digit-vector pairs whose values lie in every set, for
    # every degree the search has a distinct path for
    rng = random.Random(36 + d)
    done = 0
    while done < count:
        a = rng.randrange(d + 2, amax)
        n = rng.randrange(2, 10 ** 5)
        inst = build_instance(n, a, d)
        if isinstance(inst, CommonFactor):
            continue
        done += 1
        assert poly_search(inst) == poly_search_brute(inst), (n, a, d)


@pytest.mark.parametrize("inst, want", (
    (PolyInstance(15, 6, 0, [{3: {5, 9}, 8: {1}, 5: {3}}]),
     [((3,), (5,)), ((5,), (3,))]),
    # (9, 1) and (2, 7) at delta 0 continue to (10, 2) and (3, 8) at
    # delta 1, as digit vectors (9, 1) and (7, 1) would, but 9, 7 >= a
    (PolyInstance(77, 6, 1, [{2: {3, 7}, 9: {1}}, {3: {5, 8}, 10: {2}}]),
     [((2, 1), (3, 2)), ((2, 1), (3, 5))]),
))
def test_poly_search_hand_built_values_at_least_a(inst, want):
    assert poly_search(inst) == poly_search_brute(inst) == want


def test_poly_search_empty_instance():
    # no solutions in range: a set built from an instance whose sets are
    # emptied by the range bound cannot happen for valid moduli, so build
    # a synthetic empty instance instead
    inst = PolyInstance(91, 6, 1, [{}, {}])
    assert poly_search(inst) == []


def test_factor_via_poly_examples():
    assert factor_via_poly(77, 6, 1) == Factorization(77, 7, 11)
    # 77 has no representation with both factors of exact degree 2 in base
    # 4 (that would need 16 <= U, V < 64)
    assert factor_via_poly(77, 4, 2) is None


def test_factor_via_poly_planted():
    rng = random.Random(35)
    done = 0
    while done < 25:
        d = 2
        a = rng.randrange(4, 16)
        ud = [rng.randrange(a) for _ in range(d)] + [rng.randrange(1, a)]
        vd = [rng.randrange(a) for _ in range(d)] + [rng.randrange(1, a)]
        u = sum(c * a ** i for i, c in enumerate(ud))
        v = sum(c * a ** i for i, c in enumerate(vd))
        n = u * v
        if n > 10 ** 7 or u < 2 or v < 2:
            continue
        if any(gcd(n, a - delta) > 1 for delta in range(d + 1)):
            continue
        done += 1
        got = factor_via_poly(n, a, d)
        assert got is not None and got.u * got.v == n


def test_factor_via_poly_gcd_shortcut():
    # gcd(N, a - delta) > 1 for some delta splits immediately
    got = factor_via_poly(3 * 67, 6, 2)  # N divisible by a - 2 ... 3 | 201
    assert got is not None and got.u * got.v == 201
