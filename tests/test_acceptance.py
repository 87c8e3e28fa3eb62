"""Acceptance suite: one test per criterion, at the stated tolerances.

Run `pytest tests/test_acceptance.py -v -s` to get one PASS/FAIL line per
criterion (printed by each test before it asserts).
"""

import random
import statistics
import time
from math import gcd, isqrt

import numpy as np

from hideseek.arith import batch_inverses, divisor_count, euler_phi, mod_inv
from hideseek.factor import (
    Factorization,
    Prime,
    Unit,
    factor,
    hide_seek_balanced,
    hide_seek_general,
)
from hideseek.moments import (
    MomentDomain,
    coprime_adjust,
    deviation_scan,
    expected_count,
    kloosterman_abs2_table,
    second_moment_direct,
    second_moment_spectral,
)
from hideseek.polysearch import build_instance, factor_via_poly, poly_search
from hideseek.rng import SplitMix64
from hideseek.solutions import Rect, count_in_rect, solve_all
from oracle import check_candidate
from util import arbitrary_semiprime, balanced_semiprime, rand_prime, smallest_factor_sieve


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_factoring_soundness_and_completeness():
    rng = random.Random(0xC1)
    bad = 0
    for _ in range(1000):
        n, p, q = balanced_semiprime(rng, 10 ** 12)
        got = hide_seek_balanced(n)
        if got != Factorization(n, p, q):
            bad += 1
    balanced_ok = bad == 0

    bad_driver = 0
    for _ in range(1000):
        n, p, q = arbitrary_semiprime(rng, 10 ** 10)
        got = factor(n)
        if got != Factorization(n, p, q):
            bad_driver += 1
    ok = balanced_ok and bad_driver == 0
    report("1 factoring soundness/completeness", ok,
           f"balanced misses {bad}/1000, driver misses {bad_driver}/1000")


def test_criterion_2_runtime_scaling():
    rng = random.Random(0xC2)
    levels = [10 ** 9, 10 ** 10, 10 ** 11, 10 ** 12]
    medians = []
    hide_seek_balanced(10 ** 9 + 7 * 11)  # ensure kernels are hot
    for target in levels:
        times = []
        for _ in range(20):
            p = rand_prime(rng, isqrt(target // 2), isqrt(target))
            q = rand_prime(rng, p, 2 * p)
            if q >= 2 * p:
                q = p
            n = p * q
            t0 = time.perf_counter()
            got = hide_seek_balanced(n)
            times.append(time.perf_counter() - t0)
            assert got is not None and got.u * got.v == n
        medians.append(statistics.median(times))
    slope = float(np.polyfit(np.log(levels), np.log(medians), 1)[0])
    ok = 0.25 <= slope <= 0.45
    report("2 runtime scaling", ok,
           f"slope {slope:.3f} over medians "
           + ", ".join(f"{m * 1e6:.0f}us" for m in medians))


def test_criterion_3_spectral_identity():
    rng = random.Random(0xC3)
    worst = 0.0
    cases = 0
    for a in (7, 11, 23, 47, 59):
        ns = [1, 2]
        while True:
            n = rng.randrange(3, 10 ** 6)
            if gcd(n, a) == 1:
                ns.append(n)
                break
        pairs = set()
        small = [(w, h) for w in range(1, a) for h in range(1, a)
                 if w * h <= a and gcd(w, a) == 1 and gcd(h, a) == 1]
        large = [(w, h) for w in range(1, a) for h in range(1, a)
                 if w * h >= a ** 1.5 and gcd(w, a) == 1 and gcd(h, a) == 1]
        assert small and large
        pairs.update(rng.sample(small, min(4, len(small))))
        pairs.update(rng.sample(large, min(4, len(large))))
        for n in ns:
            for w, h in pairs:
                direct = second_moment_direct(
                    n, a, w, h, MomentDomain.FULL_TORUS_Q2).sum_squares
                spectral = second_moment_spectral(n, a, w, h)
                rel = abs(direct - spectral) / max(abs(spectral), 1.0)
                worst = max(worst, rel)
                cases += 1
    ok = worst <= 1e-6
    report("3 spectral identity", ok,
           f"{cases} cases, worst relative error {worst:.2e}")


def test_criterion_4_weil_bound():
    violations = 0
    worst_excess = 0.0
    for a in range(2, 201):
        tab = np.sqrt(kloosterman_abs2_table(a))
        tau = divisor_count(a)
        ms = np.arange(a)
        g = np.gcd(np.gcd.outer(ms, ms), a)
        bound = tau * np.sqrt(g.astype(float) * a)
        excess = tab - bound
        violations += int((excess > 1e-6).sum())
        worst_excess = max(worst_excess, float(excess.max()))
    ok = violations == 0
    report("4 Weil bound", ok,
           f"exhaustive a<=200, {violations} violations, "
           f"max excess {worst_excess:.2e}")


def test_criterion_5_count_conservation():
    rng = random.Random(0xC5)
    done = 0
    exact = True
    while done < 100:
        a = rng.randrange(2, 10 ** 4 + 1)
        n = rng.randrange(1, 10 ** 12)
        if gcd(n, a) > 1:
            continue
        w = rng.randrange(1, a + 1)
        h = rng.randrange(1, a + 1)
        done += 1
        if second_moment_direct(n, a, w, h).sum_counts != euler_phi(a):
            exact = False
    report("5 count conservation", exact, f"{done} random partitions, exact")


def test_criterion_6_second_moment_growth():
    from hideseek.factor import is_probable_prime

    rng = SplitMix64(0xC6)
    slopes = []
    for n_mode in ("one", "random"):
        avals, sums = [], []
        for k in range(10, 21):
            a = (1 << k) + 1
            while not is_probable_prime(a):
                a += 2
            b = coprime_adjust(isqrt(a - 1) + 1, a)
            if n_mode == "one":
                n = 1
            else:
                n = 2 + rng.below(a - 2)
                while gcd(n, a) != 1:
                    n += 1
            rep = second_moment_direct(n, a, b, b)
            avals.append(a)
            sums.append(rep.sum_squares)
        slopes.append(float(np.polyfit(np.log(avals), np.log(sums), 1)[0]))
    ok = all(s <= 1.15 for s in slopes)
    report("6 second-moment growth", ok,
           f"slopes {[round(s, 3) for s in slopes]} over prime a in "
           f"[2^10, 2^20]")


def test_criterion_7_equidistribution():
    slopes = []
    for n_mode in ("one", "random"):
        avals, maxdevs = [], []
        for k in range(10, 18):
            a = 1 << k
            if n_mode == "one":
                n = 1
            else:
                rng_n = SplitMix64(0xC7 * 1000 + k)
                n = 3 + rng_n.below(a - 3)
                while gcd(n, a) != 1:
                    n += 1
            rep = deviation_scan(n, a, 200, 42)
            avals.append(a)
            maxdevs.append(rep.max_abs_dev)
        slopes.append(float(np.polyfit(np.log(avals), np.log(maxdevs), 1)[0]))
    slopes_ok = all(s <= 0.75 for s in slopes)

    good = tot = 0
    for k in range(10, 18):
        a = 1 << k
        rng = SplitMix64(0xC7 * 77 + k)
        threshold = a ** 1.6
        per_a = 0
        while per_a < 60:
            x1 = rng.below(a)
            x2 = x1 + 1 + rng.below(a - x1)
            y1 = rng.below(a)
            y2 = y1 + 1 + rng.below(a - y1)
            r = Rect(x1, x2, y1, y2)
            if r.area < threshold:
                continue
            per_a += 1
            tot += 1
            ratio = count_in_rect(1, a, r) / expected_count(r, a)
            if 0.5 <= ratio <= 2.0:
                good += 1
    ratio_ok = good / tot >= 0.99
    ok = slopes_ok and ratio_ok
    report("7 equidistribution", ok,
           f"max-dev slopes {[round(s, 3) for s in slopes]} (<=0.75), "
           f"large-area ratio in [0.5,2] for {good}/{tot}")


def test_criterion_8_oracle_equivalence():
    # strip mode == full mode on random inputs
    rng = random.Random(0xC8)
    strip_ok = True
    for i in range(1000):
        n = rng.randrange(2, 10 ** 9)
        if i % 2 == 0:
            full = hide_seek_balanced(n)
            strip = hide_seek_balanced(n, strip_mode=True)
        else:
            full = hide_seek_general(n)
            strip = hide_seek_general(n, strip_mode=True)
        if full != strip:
            strip_ok = False

    # batch inversion == per-element inversion, every modulus up to 10^4
    batch_ok = True
    for m in range(2, 10 ** 4 + 1):
        units, invs = batch_inverses(m)
        if units.size != euler_phi(m) or invs.size != units.size:
            batch_ok = False
            break
        for x, xb in zip(units.tolist(), invs.tolist()):
            if xb != mod_inv(x, m):
                batch_ok = False
                break
        if not batch_ok:
            break

    # the driver agrees with a smallest-prime-factor sieve on all N <= 10^6
    limit = 10 ** 6
    spf = smallest_factor_sieve(limit)
    driver_ok = True
    for n in range(1, limit + 1):
        got = factor(n)
        if n == 1:
            agree = isinstance(got, Unit)
        elif spf[n] == n:
            agree = isinstance(got, Prime)
        else:
            agree = isinstance(got, Factorization) and got.u == spf[n]
        if not agree:
            driver_ok = False
            break
    ok = strip_ok and batch_ok and driver_ok
    report("8 oracle equivalence", ok,
           f"strip==full {strip_ok}, batch==mod_inv {batch_ok}, "
           f"driver==sieve {driver_ok}")


def test_criterion_9_polysearch_planted():
    rng = random.Random(0xC9)
    recovered = 0
    total = 0
    agree_d1 = True
    while total < 200:
        d = rng.choice((1, 2))
        a = rng.randrange(4, 61)
        ud = [rng.randrange(a) for _ in range(d)] + [rng.randrange(1, a)]
        vd = [rng.randrange(a) for _ in range(d)] + [rng.randrange(1, a)]
        u = sum(c * a ** i for i, c in enumerate(ud))
        v = sum(c * a ** i for i, c in enumerate(vd))
        n = u * v
        if n > 10 ** 7:
            continue
        if any(gcd(n, a - delta) > 1 for delta in range(d + 1)):
            continue
        total += 1
        res = poly_search(build_instance(n, a, d))
        if (tuple(ud), tuple(vd)) in res or (tuple(vd), tuple(ud)) in res:
            recovered += 1
        if d == 1:
            # the degree-1 search and the base-expansion pairing must agree
            # on success; both ways of reconstructing (u1*a+u0)(v1*a+v0)
            from hideseek.solutions import SolutionSet

            poly = factor_via_poly(n, a, 1)
            s0 = solve_all(n, a)
            s1 = solve_all(n, a - 1)
            pairing = None
            if isinstance(s0, SolutionSet) and isinstance(s1, SolutionSet):
                for p0 in s0.points:
                    for p1 in s1.points:
                        got = check_candidate(n, a, p0, p1)
                        if got is not None and (
                                pairing is None
                                or (got.u, got.v) < (pairing.u, pairing.v)):
                            pairing = got
            if (poly is None) != (pairing is None):
                agree_d1 = False
    ok = recovered == total and agree_d1
    report("9 polysearch planted", ok,
           f"{recovered}/{total} planted digit vectors recovered, "
           f"d=1 pairing agreement {agree_d1}")
