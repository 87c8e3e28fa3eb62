"""Shared helpers for the test suite: seeded prime sampling and sieves."""

import random

import numpy as np

from hideseek.factor import is_probable_prime


def rand_prime(rng: random.Random, lo: int, hi: int) -> int:
    """Probable prime in [lo, hi), by rejection from the given generator."""
    assert hi > lo >= 2
    while True:
        c = rng.randrange(lo, hi) | 1
        if c >= lo and is_probable_prime(c):
            return c


def balanced_semiprime(rng: random.Random, nmax: int) -> tuple[int, int, int]:
    """(N, p, q) with p <= q < 2p and N = p*q <= nmax."""
    while True:
        p = rand_prime(rng, 700, max(701, int((nmax / 2) ** 0.5)))
        q = rand_prime(rng, p, 2 * p)
        if q < 2 * p and p * q <= nmax:
            return p * q, p, q


def arbitrary_semiprime(rng: random.Random, nmax: int) -> tuple[int, int, int]:
    """(N, p, q) with p <= q unconstrained in shape, N <= nmax."""
    while True:
        p = rand_prime(rng, 2, int(nmax ** 0.5) + 1)
        hi = nmax // p
        if hi <= p:
            continue
        q = rand_prime(rng, p, hi + 1)
        if p * q <= nmax:
            return p * q, p, q


def smallest_factor_sieve(limit: int) -> np.ndarray:
    """spf[n] = smallest prime factor of n (spf[p] = p for primes)."""
    spf = np.zeros(limit + 1, dtype=np.int64)
    for p in range(2, int(limit ** 0.5) + 1):
        if spf[p] == 0:
            block = spf[p * p::p]
            block[block == 0] = p
            spf[p * p::p] = block
    idx = np.arange(limit + 1)
    spf[spf == 0] = idx[spf == 0]
    return spf


def shifted_window(cols: int, dxc: int, c0: int, bk: int) -> tuple[int, int]:
    """(s0, sk): the shifted columns the scan driver meets the base
    columns [c0, c0 + bk) with, dxc + 1 more on each side from s0
    (wrapping mod cols), or every column from 0 where that is no
    narrower than the grid."""
    sk = min(bk + 2 * dxc + 2, cols)
    return ((c0 - dxc - 1) % cols if sk < cols else 0), sk


def driver_window(rng: random.Random, cols: int, dxc: int) -> tuple[int, int]:
    """A random base window (c0, bk) of the driver's shapes, c0 + bk <=
    cols; about a third of them, where cols > 1, cover the grid from
    c0 > 0 (shifted_window gives every column)."""
    if cols > 1 and rng.randrange(3) == 0:
        bk = rng.randrange(max(1, cols - 2 * dxc - 2), cols)
        return rng.randrange(1, cols - bk + 1), bk
    c0 = rng.randrange(cols)
    return c0, rng.randrange(1, cols - c0 + 1)
