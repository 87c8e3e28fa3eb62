"""The units mod q laid out over the cyclic factors of their group: the
index space of moments.second_moment_spectral's FFT correlations."""

import numpy as np

from .arith import prime_factors


def _primitive_root(p: int, e: int) -> int:
    """A generator of the units mod p**e, p an odd prime: the least
    primitive root g mod p, or g + p where g**(p-1) == 1 (mod p**2)."""
    rs = [r for r, _ in prime_factors(p - 1)]
    g = next(g for g in range(2, p + 1)
             if all(pow(g, (p - 1) // r, p) != 1 for r in rs))
    return g + p if e > 1 and pow(g, p - 1, p * p) == 1 else g


def unit_layout(q: int) -> np.ndarray:
    """The units mod q laid out over the cyclic factors of (Z/q)^x: entry
    [i_1, ..., i_k] is the product of gen_j**i_j mod q, one axis per
    generator (one axis of length 1 for q <= 2).  Each odd prime power
    p**e of q gives a primitive root, 4 gives -1, and 2**e with e >= 3
    gives -1 and 5; each is lifted to 1 mod the rest of q.  Every unit
    appears exactly once, and multiplying units adds their indices, each
    axis cyclic.  Power tables are built by doubling; entries stay below
    q <= 2**16, so products fit int64."""
    lay = np.array(1 % q)
    for p, e in prime_factors(q):
        pe = p ** e
        if p > 2:
            gens = [(_primitive_root(p, e), pe // p * (p - 1))]
        else:
            gens = [(pe - 1, 2), (5, pe // 4)][:e - 1]
        rest = q // pe
        for g, n in gens:
            g = (1 + (g - 1) * rest * pow(rest, -1, pe)) % q
            pw = np.empty(n, dtype=np.int64)
            pw[0], k = 1, 1
            while k < n:
                pw[k:2 * k] = pw[:min(k, n - k)] * g % q
                g, k = g * g % q, 2 * k
            lay = lay[..., None] * pw % q
    return lay.reshape(lay.shape or 1)
