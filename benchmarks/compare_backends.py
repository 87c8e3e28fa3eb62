#!/usr/bin/env python3
"""Time the numba kernels against the pure-numpy fallbacks.

Both implementations of each doubled kernel live in hideseek._kernels
regardless of which one the HIDESEEK_BACKEND flag selects, so a single
process can benchmark the two side by side: batch inversion over the
units of m, and bucketing and the pair scan of a balanced factor scan.
The neighbor tables are built once, outside the timed calls, and both
pair scans get the same arguments.  Needs numba.

Usage: python benchmarks/compare_backends.py [--repeat K]
"""

import argparse
import random
import statistics
import time
from math import isqrt

from hideseek import _kernels as K
from hideseek.arith import ceil_cbrt
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


def bench_inverses(repeat):
    rows = []
    for m in (10_000, 100_000, 1_000_000):
        units, _ = K.unit_inverse_table(m)
        t_nb = timeit(lambda: K._inverses_for_loop(units, m), repeat)
        t_np = timeit(lambda: K._inverses_for_np(units, m), repeat)
        rows.append((f"inverses_for units mod {m:>9,}", t_nb, t_np))
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
        times = []
        for bucket, scan in ((K._bucket_csr_loop, K._pair_scan_csr_loop),
                             (K._bucket_csr_np, K._pair_scan_csr_np)):
            times.append((timeit(lambda: bucket(bx, by, *grid), repeat),
                          timeit(lambda: scan(*args), repeat)))
        (bucket_nb, scan_nb), (bucket_np, scan_np) = times
        rows.append((f"bucket_csr {tag}", bucket_nb, bucket_np))
        rows.append((f"pair_scan_csr {tag}", scan_nb, scan_np))
    return rows


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeat", type=int, default=7)
    args = ap.parse_args()

    if not K.HAVE_NUMBA:
        raise SystemExit("numba is not importable; nothing to compare")

    print("warming up (JIT compile)...")
    K.warmup()

    rows = bench_inverses(args.repeat) + bench_factor_scan(args.repeat)
    print(f"\n{'kernel':<34} {'numba':>12} {'numpy':>12} {'speedup':>9}")
    print("-" * 69)
    for name, t_nb, t_np in rows:
        print(f"{name:<34} {t_nb * 1e6:>10.0f}us {t_np * 1e6:>10.0f}us "
              f"{t_np / t_nb:>8.1f}x")


if __name__ == "__main__":
    main()
