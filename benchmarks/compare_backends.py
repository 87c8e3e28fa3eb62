#!/usr/bin/env python3
"""Time the numba kernels against the pure-numpy fallbacks, and the two
ways of enumerating a whole solution set.

Both implementations of each doubled kernel live in hideseek._kernels
regardless of which one the HIDESEEK_BACKEND flag selects, so a single
process can benchmark the two side by side: batch inversion over the
units of m, and bucketing and the pair scan of a balanced factor scan.
The neighbor tables are built once, outside the timed calls, and both
pair scans get the same arguments.  Without numba only the numpy column
is printed.

The second table times _points' two paths over all of [0, m), both on
numpy: the units and one batch inversion (_inverses_for_np), against the
prime-power inverse tables (_table_points), for m prime, 2p and smooth
near 2**16, 2**18 and 2**20.

Usage: python benchmarks/compare_backends.py [--repeat K]
"""

import argparse
import random
import statistics
import time
from math import isqrt

import numpy as np

from hideseek import _kernels as K
from hideseek.arith import ceil_cbrt, prime_factors
from hideseek.factor import is_probable_prime


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
    """fn's time when numba compiles the loops; None without numba, where
    they would run as plain Python."""
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
        args = (*K._bucket_csr_np(bx, by, *grid),
                *K._bucket_csr_np(sx, sy, *grid),
                *K._neighbor_tables(cols, cols, b, b, a, 1, 1, 0, cols,
                                    0, cols), a, n, a - 1)
        tag = f"N~1e{len(str(target)) - 1}"
        rows.append((f"bucket_csr {tag}",
                     loop_time(lambda: K._bucket_csr_loop(bx, by, *grid),
                               repeat),
                     timeit(lambda: K._bucket_csr_np(bx, by, *grid), repeat)))
        rows.append((f"pair_scan_csr {tag}",
                     loop_time(lambda: K._pair_scan_csr_loop(*args), repeat),
                     timeit(lambda: K._pair_scan_csr_np(*args), repeat)))
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


def print_rows(head, rows):
    print(f"\n{head[0]:<34} {head[1]:>12} {head[2]:>12} {'speedup':>9}")
    print("-" * 69)
    for name, t0, t1 in rows:
        first = "-" if t0 is None else f"{t0 * 1e6:.0f}us"
        ratio = "-" if t0 is None else f"{t0 / t1:.1f}x"
        print(f"{name:<34} {first:>12} {t1 * 1e6:>10.0f}us {ratio:>9}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeat", type=int, default=7)
    args = ap.parse_args()

    if K.HAVE_NUMBA:
        print("warming up (JIT compile)...")
    else:
        print("numba is not importable; timing the numpy kernels alone")
    K.warmup()

    print_rows(("kernel", "numba", "numpy"),
               bench_inverses(args.repeat) + bench_factor_scan(args.repeat))
    print_rows(("enumeration", "batch", "tables"), bench_enumeration(args.repeat))

if __name__ == "__main__":
    main()
