"""Exact integer and modular arithmetic kernel.

Everything here is plain integer arithmetic: gcd family, the standard
multiplicative functions (phi, tau, mu) by trial factorization, exact
integer cube roots, and single/batch modular inverses.  Batch inversion
over the units of m uses prefix products: one multiplication pass, a
single extended-gcd inversion, and a back-substitution pass, so the whole
table costs O(m) multiplications on either backend (the numpy one scans
the products in blocks, see _kernels._modprod_scan).
"""

from __future__ import annotations

from math import gcd

import numpy as np

from . import _kernels

__all__ = [
    "gcd",
    "ext_gcd",
    "mod_inv",
    "batch_inverses",
    "prime_factors",
    "euler_phi",
    "divisor_count",
    "mobius",
    "ceil_cbrt",
]


def ext_gcd(x: int, y: int) -> tuple[int, int, int]:
    """Return (g, s, t) with g = gcd(x, y) and s*x + t*y = g."""
    s0, s1 = 1, 0
    t0, t1 = 0, 1
    while y:
        q, r = divmod(x, y)
        x, y = y, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if x < 0:
        x, s0, t0 = -x, -s0, -t0
    return x, s0, t0


def mod_inv(x: int, m: int) -> int | None:
    """Inverse of x mod m in [1, m), or None when gcd(x, m) > 1."""
    if m < 2:
        raise ValueError("modulus must be >= 2")
    try:
        return pow(x, -1, m)
    except ValueError:
        return None


def batch_inverses(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Invert every unit mod m in one pass (prefix-product trick): the
    arrays (units, inverses), units ascending."""
    return _kernels.unit_inverse_table(m)


def prime_factors(m: int) -> list[tuple[int, int]]:
    """Prime factorization [(p, e), ...] of m >= 1 by trial division."""
    if m < 1:
        raise ValueError("m must be >= 1")
    out = []
    for p in (2, 3):
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
    d = 5
    step = 2
    while d * d <= m:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            out.append((d, e))
        d += step
        step = 6 - step
    if m > 1:
        out.append((m, 1))
    return out


def euler_phi(m: int) -> int:
    """Euler totient of m >= 1."""
    phi = 1
    for p, e in prime_factors(m):
        phi *= (p - 1) * p ** (e - 1)
    return phi


def divisor_count(m: int) -> int:
    """Number of divisors of m >= 1."""
    tau = 1
    for _, e in prime_factors(m):
        tau *= e + 1
    return tau


def mobius(m: int) -> int:
    """Mobius function of m >= 1: 0 on square factors, else (-1)^#primes."""
    mu = 1
    for _, e in prime_factors(m):
        if e > 1:
            return 0
        mu = -mu
    return mu


def floor_cbrt(n: int) -> int:
    """Largest k with k**3 <= n.

    Integer Newton iteration from a float seed, then exact correction;
    the float value is never trusted on its own.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return 0
    x = max(1, int(round(n ** (1.0 / 3.0))))
    while True:
        y = (2 * x + n // (x * x)) // 3
        if y >= x:
            break
        x = y
    while x * x * x > n:
        x -= 1
    while (x + 1) ** 3 <= n:
        x += 1
    return x


def ceil_cbrt(n: int) -> int:
    """Smallest k with k**3 >= n, exact for all n >= 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    f = floor_cbrt(n)
    return f if f * f * f == n else f + 1
