#!/usr/bin/env python3
"""Lehman's O(N**(1/3)) factoring method in plain Python, as a yardstick.

R. S. Lehman, "Factoring large integers", Math. Comp. 28 (1974): trial
division to N**(1/3), then for k = 1 .. N**(1/3) test each
a in [sqrt(4kN), sqrt(4kN) + N**(1/6) / (4 sqrt(k))] for a*a - 4kN being
a square b*b; gcd(a + b, N) is then a factor.

    python3 hsbench/lehman.py --seed 1

runs it single-threaded, REPS times, on the factor-hard inputs of that
seed, requires each split to equal the planted primes, and prints the
median wall time per level.  It is a reference figure, not a workload of the benchmark.
"""

from __future__ import annotations

import argparse
import math
import os
import statistics
import sys
import time
from math import gcd, isqrt

HERE = os.path.dirname(os.path.abspath(__file__))
# Timed runs per input.
REPS = 3


def lehman(n: int) -> int | None:
    """A nontrivial factor of n >= 3, or None when n is prime."""
    c = 1
    while (c + 1) ** 3 <= n:
        c += 1
    for d in range(2, c + 1):
        if n % d == 0:
            return d
    r6 = n ** (1 / 6)
    for k in range(1, c + 2):
        fkn = 4 * k * n
        lo = isqrt(fkn - 1) + 1
        hi = isqrt(fkn) + int(r6 / (4 * math.sqrt(k))) + 1
        for a in range(lo, hi + 1):
            b2 = a * a - fkn
            b = isqrt(b2)
            if b * b == b2:
                g = gcd(a + b, n)
                if 1 < g < n:
                    return g
    return None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    sys.path.insert(0, HERE)
    import workloads

    ops, refs = workloads.make_plan("factor-hard", args.seed)
    names = [lv[0] for lv in workloads.LEVELS["factor-hard"]]
    times: dict[int, list[float]] = {}
    ok = True
    for op, ref in zip(ops, refs):
        n = op["N"]
        for _ in range(REPS):
            t0 = time.perf_counter()
            f = lehman(n)
            times.setdefault(op["level"], []).append(time.perf_counter() - t0)
        split = sorted((f, n // f)) if f else None
        if split != ref["split"]:
            print(f"WRONG: lehman({n}) gave {split}, planted {ref['split']}")
            ok = False
    for level, ts in sorted(times.items()):
        print(f"lehman level {names[level]:>5}: {len(ts):3d} runs, "
              f"median {statistics.median(ts) * 1e3:.3f} ms")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
