#!/usr/bin/env python3
"""Time the numba kernels against the pure-numpy fallbacks, and the two
ways of enumerating a whole solution set.

Both implementations of each doubled kernel live in hideseek._kernels
regardless of which one the HIDESEEK_BACKEND flag selects, so a single
process can benchmark the two side by side: batch inversion over the
units of m, and bucketing and the pair scan of a balanced factor scan
(the set mod a as base, unbucketed).  The neighbor tables are built
once, outside the timed calls, and both pair scans get the same
arguments.  The loops are compiled, and timed, only under
HIDESEEK_BACKEND=numba; otherwise only the numpy column is printed.

The second table times the numpy pair scan at a near 2**18, for even,
odd and 3 | a, on balanced cells and the general variant's width 16:
with the set mod a as base, then with the set mod a - 1, the other set
bucketed; and bucketing the larger set as enumerated (column-sorted, one
radix pass by row) against the same points shuffled (two stable sorts,
by column and then by row).

The third table times hyperbola_scan on the general variant's widths
2, 4, 8 and 16 at the same a, with the y-steps its pair scan keeps and
the minor page faults per call (resource.getrusage, the process's
malloc settings left as they are), the neighbor setup that scan makes
(_neighbor_tables over the whole grid) with its own time and faults per
call, and beside them strip mode's scan of
the same width (factor._strip_scan at the default _SCAN_CHUNK), with its
column windows and faults per call.  hyperbola_scan is given both sets;
strip mode enumerates every window itself, as it does in factor.

The fourth table times _points' two paths over all of [0, m), both on
numpy: the units and one batch inversion (_inverses_for_np), against the
prime-power inverse tables (_table_points), for m prime, 2p and smooth
near 2**16, 2**18 and 2**20.

The fifth table times the moments suite's two full-torus routines,
second_moment_direct's pair count and second_moment_spectral, at
a = 2**10, 2**11, 4093, 2**12, 2**14, the prime 65521, 2**16 and the
highly composite 65520 = 2**4 * 3**2 * 5 * 7 * 13 (120 divisors; the
spectral sum's work grows with the divisor count) on cells of side
about a**0.5, and the
fundamental-square count at a = 2p near 2**20 on cells of side isqrt(a):
per call, the time, the minor page faults (the malloc settings left as
they are) and the tracemalloc peak.

Usage: python benchmarks/compare_backends.py [--repeat K]
"""

import argparse
import random
import resource
import statistics
import time
import tracemalloc
from math import gcd, isqrt

import numpy as np

from hideseek import _kernels as K
from hideseek import moments as M
from hideseek.arith import ceil_cbrt, prime_factors
from hideseek.factor import _strip_scan, is_probable_prime


def timeit(fn, repeat):
    best = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best.append(time.perf_counter() - t0)
    return statistics.median(best)


def rand_prime(rng, lo, hi):
    while True:
        c = rng.randrange(lo, hi) | 1
        if is_probable_prime(c):
            return c


def loop_time(fn, repeat):
    """fn's time when numba compiles the loops; None on the numpy
    backend, where they would run as plain Python."""
    return timeit(fn, repeat) if K.HAVE_NUMBA else None


def bench_inverses(repeat):
    rows = []
    for m in (10_000, 100_000, 1_000_000):
        units, _ = K.unit_inverse_table(m)
        rows.append((f"inverses_for units mod {m:>9,}",
                     loop_time(lambda: K._inverses_for_loop(units, m), repeat),
                     timeit(lambda: K._inverses_for_np(units, m), repeat)))
    return rows


def bench_factor_scan(repeat):
    rows = []
    rng = random.Random(2)
    for target in (10 ** 9, 10 ** 10, 10 ** 11, 10 ** 12):
        p = rand_prime(rng, isqrt(target // 2), isqrt(target))
        q = rand_prime(rng, p, 2 * p)
        n = p * q
        a = ceil_cbrt(2 * n)
        b = isqrt(a - 1) + 1
        cols = -(-a // b)
        grid = (b, b, cols, cols, 0, cols)
        bx, by = K.hyperbola_points(n, a)
        sx, sy = K.hyperbola_points(n, a - 1)
        args = (bx, by, by // b * cols + bx // b,
                *K._bucket_csr_np(sx, sy, *grid),
                *K._neighbor_tables(cols, cols, b, b, a, 1, 1, 0, cols),
                a, n, a - 1)
        tag = f"N~1e{len(str(target)) - 1}"
        rows.append((f"bucket_csr {tag}",
                     loop_time(lambda: K._bucket_csr_loop(bx, by, *grid),
                               repeat),
                     timeit(lambda: K._bucket_csr_np(bx, by, *grid), repeat)))
        rows.append((f"pair_scan_csr {tag}",
                     loop_time(lambda: K._pair_scan_csr_loop(*args), repeat),
                     timeit(lambda: K._pair_scan_csr_np(*args), repeat)))
    return rows


def scan_moduli():
    """(shape, a, n) for a = 2**18 (even), 2**18 + 3 (odd) and 2**18 + 5
    (3 | a), with n > a**3 / 2 odd and prime to a*(a - 1)."""
    for a in (1 << 18, (1 << 18) + 3, (1 << 18) + 5):
        shape = "even" if a % 2 == 0 else "3|a" if a % 3 == 0 else "odd"
        yield shape, a, next(n for n in range(a ** 3 // 2 + 1, a ** 3)
                             if n % 2 and np.gcd(n, a * (a - 1)) == 1)


def bench_base_and_bucketing(repeat):
    scans, buckets = [], []
    nprng = np.random.default_rng(4)
    for shape, a, n in scan_moduli():
        sets = {m: K.hyperbola_points(n, m) for m in (a, a - 1)}
        for cells, w, h, dyc in (("balanced", isqrt(a - 1) + 1,
                                  isqrt(a - 1) + 1, 1),
                                 ("width 16", 16, a // 16, 2)):
            cols, rows = -(-a // w), -(-a // h)
            grid = (w, h, cols, rows, 0, cols)
            tables = K._neighbor_tables(cols, rows, w, h, a, 1, dyc, 0, cols)

            def scan(bm, sm):
                (bx, by), shifted = sets[bm], sets[sm]
                args = (bx, by, by // h * cols + bx // w,
                        *K._bucket_csr_np(*shifted, *grid), *tables, bm, n,
                        sm)
                return lambda: K._pair_scan_csr_np(*args)

            scans.append((f"{shape} a={a:,} {cells}",
                          timeit(scan(a, a - 1), repeat),
                          timeit(scan(a - 1, a), repeat)))
            if cells == "balanced":
                xs, ys = max(sets.values(), key=lambda s: s[0].size)
                perm = nprng.permutation(xs.size)
                px, py = xs[perm], ys[perm]
                buckets.append((f"{shape} a={a:,} {xs.size:,} points",
                                timeit(lambda: K._bucket_csr_np(
                                    px, py, *grid), repeat),
                                timeit(lambda: K._bucket_csr_np(
                                    xs, ys, *grid), repeat)))
    return scans, buckets


def minor_faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def timed_faults(fn, repeat):
    """(fn's median time, minor page faults per call)."""
    f0 = minor_faults()
    return timeit(fn, repeat), (minor_faults() - f0) / repeat


def bench_general_widths(repeat):
    """hyperbola_scan on the general variant's w x (a // w) cells at radii
    (1, 2), both sets enumerated beforehand, and strip mode's scan of the
    same cells: per call, the time, the y-steps the pair scan keeps (one
    on grids of at most 5 rows, which _grid scans as one row) and the
    minor page faults; the neighbor setup of that whole-grid scan
    (_neighbor_tables: column runs and row table), its time and faults;
    for strip mode the time, its column windows and the faults."""
    rows = []
    for shape, a, n in scan_moduli():
        sets = K._point_sets(n, a, a - 1)
        for w in (2, 4, 8, 16):
            cols, nrows, h = K._grid(a, w, a // w, 2)
            _, ny = K._neighbor_tables(cols, nrows, w, h, a, 1, 2, 0, cols)
            full = timed_faults(lambda: K.hyperbola_scan(
                n, a, a - 1, w, a // w, 1, 2, sets=sets), repeat)
            setup = timed_faults(lambda: K._neighbor_tables(
                cols, nrows, w, h, a, 1, 2, 0, cols), repeat)
            strip = timed_faults(lambda: _strip_scan(n, a, w, a // w, 2),
                                 repeat)
            windows = -(-cols // max(1, K._SCAN_CHUNK // w))
            rows.append((f"{shape} a={a:,} w={w}", full[0],
                         int((ny >= 0).any(axis=1).sum()), full[1],
                         *setup, strip[0], windows, strip[1]))
    return rows


def enumeration_moduli():
    """(shape, m) for m prime, 2p and smooth near 2**16, 2**18 and 2**20."""
    rng = random.Random(3)
    out = []
    for e in (16, 18, 20):
        out.append(("prime", rand_prime(rng, 1 << e, (1 << e) + 4096)))
        out.append(("2p", 2 * rand_prime(rng, 1 << (e - 1),
                                         (1 << (e - 1)) + 4096)))
        # 30030 = 2*3*5*7*11*13, times the integer nearest 2**e / 30030
        out.append(("smooth", 30030 * round((1 << e) / 30030)))
    return out


def bench_enumeration(repeat):
    rows = []
    n = 123457
    for shape, m in enumeration_moduli():
        factors = prime_factors(m)

        def batch():
            xs = K._units(m, 0, m, factors)
            return n % m * K._inverses_for_np(xs, m) % m

        t_batch = timeit(batch, repeat)
        t_tables = timeit(lambda: K._table_points(n, m, factors), repeat)
        assert np.array_equal(batch(), K._table_points(n, m, factors)[1])
        rows.append((f"whole range {shape} m={m:,}", t_batch, t_tables))
    return rows


def traced_peak(fn):
    """tracemalloc's peak over one call of fn, in bytes."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def bench_moments(repeat):
    """(name, time, faults per call, tracemalloc peak) of the full-torus
    direct count and the spectral sum on cells of the least side at or
    above isqrt(a) that is prime to a, and of the fundamental-square
    count at a = 2p, p the least prime above 2**19, as the moments
    workload draws a with phi(a)/a near 1/2."""
    n = 123457
    calls = []
    for a in (1 << 10, 1 << 11, 4093, 1 << 12, 1 << 14, 65521, 1 << 16,
              65520):
        s = next(s for s in range(isqrt(a), a) if gcd(s, a) == 1)
        calls.append((f"torus direct a={a:,} side {s}",
                      lambda a=a, s=s: M.second_moment_direct(
                          n, a, s, s, M.MomentDomain.FULL_TORUS_Q2)))
        calls.append((f"spectral a={a:,} side {s}",
                      lambda a=a, s=s: M.second_moment_spectral(n, a, s, s)))
    a = 2 * next(p for p in range((1 << 19) + 1, 1 << 20, 2)
                 if is_probable_prime(p))
    calls.append((f"fundamental square a={a:,} side {isqrt(a)}",
                  lambda: M.second_moment_direct(n, a, isqrt(a), isqrt(a))))
    return [(name, *timed_faults(fn, repeat), traced_peak(fn))
            for name, fn in calls]


def print_rows(head, rows):
    print(f"\n{head[0]:<34} {head[1]:>12} {head[2]:>12} {'speedup':>9}")
    print("-" * 69)
    for name, t0, t1 in rows:
        first = "-" if t0 is None else f"{t0 * 1e6:.0f}us"
        ratio = "-" if t0 is None else f"{t0 / t1:.1f}x"
        print(f"{name:<34} {first:>12} {t1 * 1e6:>10.0f}us {ratio:>9}")


def print_width_rows(rows):
    print(f"\n{'numpy hyperbola_scan':<34} {'time':>12} {'y-steps':>8} "
          f"{'faults':>9} {'tables':>12} {'faults':>9} "
          f"{'strip time':>12} {'windows':>8} {'faults':>9}")
    print("-" * 120)
    for name, t, steps, faults, tt, tf, ts, windows, fs in rows:
        print(f"{name:<34} {t * 1e6:>10.0f}us {steps:>8} {faults:>9.0f} "
              f"{tt * 1e6:>10.0f}us {tf:>9.0f} "
              f"{ts * 1e6:>10.0f}us {windows:>8} {fs:>9.0f}")


def print_moment_rows(rows):
    print(f"\n{'moments':<44} {'time':>12} {'faults':>9} {'peak':>10}")
    print("-" * 78)
    for name, t, faults, peak in rows:
        print(f"{name:<44} {t * 1e6:>10.0f}us {faults:>9.0f} "
              f"{peak / 2 ** 20:>7.2f}MiB")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeat", type=int, default=7)
    args = ap.parse_args()

    if K.HAVE_NUMBA:
        print("warming up (JIT compile)...")
    else:
        print("numba backend not selected; timing the numpy kernels alone")
    K.warmup()

    print_rows(("kernel", "numba", "numpy"),
               bench_inverses(args.repeat) + bench_factor_scan(args.repeat))
    scans, buckets = bench_base_and_bucketing(args.repeat)
    print_rows(("numpy pair scan", "base mod a", "mod a-1"), scans)
    print_rows(("numpy bucketing", "two sorts", "one pass"), buckets)
    print_width_rows(bench_general_widths(args.repeat))
    print_rows(("enumeration", "batch", "tables"), bench_enumeration(args.repeat))
    print_moment_rows(bench_moments(args.repeat))

if __name__ == "__main__":
    main()
