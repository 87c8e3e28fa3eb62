"""Inputs of the hideseek benchmark and the references they are checked against.

Every reference is computed apart from the program: primes come from
sympy, Euler's phi from sympy.totient, cube roots from
sympy.integer_nthroot, hyperbola points from Python's pow(x, -1, a), and
the deviation rectangles from a SplitMix64 stream written out here from
the bit-level spec in the program's docs.  A workload's inputs depend
only on its name and the seed; the measuring process receives only the
generated N and moduli.

Inputs are drawn so that the work per operation does not swing with the
seed.  The factoring inputs draw their modulus a first, from a narrow
window, in one of three shapes (STRATA: even a, odd a, 3 | a) with the
point counts phi(a) and phi(a-1) held in bands, and then N among the
integers that give that a.  Every level holds the three shapes in equal
numbers.  The hard semiprimes plant the digit u1 = p // a = 2**K exactly,
so the general variant always stops at width w = 2**K after K widths.
"""

from __future__ import annotations

import random
from math import gcd, isqrt

import sympy

# (level label, target size, inputs per round).  Small levels carry more
# inputs so their latency percentile rests on more samples per run; the
# factoring levels hold a multiple of len(STRATA).
LEVELS = {
    "balanced": [(f"1e{e}", 10 ** e, n) for e, n in
                 ((9, 9), (10, 6), (11, 3), (12, 3), (13, 3), (14, 3),
                  (15, 3), (16, 3))],
    "factor-hard": [(f"1e{e}", 10 ** e, n) for e, n in
                    ((10, 6), (11, 3), (12, 3), (13, 3), (14, 3), (15, 3),
                     (16, 3))],
    "strip": [(f"1e{e}", 10 ** e, n) for e, n in ((9, 6), (10, 3), (11, 3))],
    "moments": [(f"2^{j}", 2 ** j, n) for j, n in
                ((10, 4), (12, 4), (14, 3), (16, 2), (18, 1), (20, 1))],
}

# u1 = p // a of every hard semiprime; the general variant tries widths
# 2, 4, ..., 2**K.
K = 4
# Shapes of the factoring modulus a: (name, residue test, band of
# phi(a)/a, band of phi(a-1)/(a-1)).  The scan's cost follows the two
# point counts separately (points grow with their sum, pairs with their
# product), so both are held within 2% of the shape's largest value.
# Even a has the smaller set mod a and odd a the smaller set mod a-1,
# which changes the shape of the pair scan's chunks; 3 | a thins the set
# mod a further.  Each shape takes about one a in thirty to forty-five.
STRATA = (
    ("even", lambda a: a % 2 == 0, (0.49, 0.5), (0.98, 1.0)),
    ("odd", lambda a: a % 6 in (1, 5), (0.98, 1.0), (0.49, 0.5)),
    ("3|a", lambda a: a % 6 == 3, (0.653, 2 / 3), (0.49, 0.5)),
)
# Least share of unit-holding width-2 strips for the strip workload.
STRIP_SHARE = 0.95
# Band for phi(a) / a of the analysis moduli.
PHI_BAND = (0.47, 0.53)
DEVIATION_TRIALS = 12
# Pure-Python recounts of cells and rectangles run up to this modulus.
RECOUNT_MAX = 2 ** 16
# The full-torus direct/spectral pair runs up to this modulus: the
# Kloosterman table is a dense a x a complex matrix product.
TORUS_MAX = 2 ** 11
# The product's cost a * a * phi(a) stays within this share of
# a0**3 / 2, where a0 is the level's target: the a**3 growth across the
# modulus window alone would swing it by 40%.
TORUS_COST_TOLERANCE = 0.02

# Draws before a generator gives up; a level's inputs take at most a few
# hundred.
ATTEMPTS = 100_000

_MASK = (1 << 64) - 1


def ceil_cbrt(n: int) -> int:
    r, exact = sympy.integer_nthroot(n, 3)
    return int(r) if exact else int(r) + 1


def phi_share(m: int) -> float:
    return int(sympy.totient(m)) / m


def unit_strip_share(a: int) -> float:
    """Share of the strips [2i, 2i+2) of [0, a) that hold a unit of a.

    Strip mode skips a strip without units, so with a divisible by 6 it
    makes a third fewer scan calls at the narrowest width.
    """
    strips = range(0, a, 2)
    return sum(gcd(x, a) == 1 or (x + 1 < a and gcd(x + 1, a) == 1)
               for x in strips) / len(strips)


def modulus_window(a0: int) -> range:
    """Where a level draws its modulus: a0 and up to 1/128 above it."""
    return range(a0, a0 + max(128, a0 // 128))


def factoring_modulus(rng: random.Random, a0: int, stratum: int,
                      strip: bool = False) -> int:
    """An a from modulus_window(a0) of shape STRATA[stratum] (and, for the
    strip workload, with STRIP_SHARE)."""
    _, shape, band, band1 = STRATA[stratum]
    window = modulus_window(a0)
    for _ in range(ATTEMPTS):
        a = rng.choice(window)
        if (shape(a) and band[0] <= phi_share(a) <= band[1]
                and band1[0] <= phi_share(a - 1) <= band1[1]
                and (not strip or unit_strip_share(a) >= STRIP_SHARE)):
            return a
    raise RuntimeError(f"no {STRATA[stratum][0]} modulus near {a0} in {ATTEMPTS} draws")


def balanced_semiprime(rng: random.Random, target: int,
                       stratum: int) -> tuple[int, int]:
    """Primes p < q < 2p with ceil_cbrt(2pq) = a, a drawn first.

    N comes from the interval ((a-1)**3 / 2, a**3 / 2] that gives a.
    """
    a = factoring_modulus(rng, ceil_cbrt(2 * target), stratum)
    n_lo, n_hi = (a - 1) ** 3 // 2 + 1, a ** 3 // 2
    for _ in range(ATTEMPTS):
        ratio = rng.uniform(1.1, 1.9)
        n0 = rng.randrange(n_lo, n_hi + 1)
        p = int(sympy.nextprime(isqrt(int(n0 / ratio))))
        q = int(sympy.nextprime(n0 // p))
        if p < q < 2 * p and ceil_cbrt(2 * p * q) == a:
            return p, q
    raise RuntimeError(f"no balanced semiprime for a = {a} in {ATTEMPTS} draws")


def hard_semiprime(rng: random.Random, target: int, stratum: int,
                   strip: bool = False) -> tuple[int, int]:
    """Primes with ceil_cbrt(pq) = a, p // a == 2**K, q > 2p, a drawn first.

    Then p > 2*N**(1/3), so trial division to N**(1/3) never succeeds,
    and the general variant needs exactly K widths.
    """
    a = factoring_modulus(rng, ceil_cbrt(target), stratum, strip)
    lead = 2 ** K
    for _ in range(ATTEMPTS):
        p = int(sympy.nextprime(rng.randrange(lead * a, (lead + 1) * a)))
        n0 = rng.randrange((a - 1) ** 3 + 1, a ** 3 + 1)
        q = int(sympy.nextprime(n0 // p))
        if p // a == lead and q > 2 * p and ceil_cbrt(p * q) == a:
            return p, q
    raise RuntimeError(f"no hard semiprime for a = {a} in {ATTEMPTS} draws")


class SplitMix64:
    """The program's generator, re-derived from its documented transition."""

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def below(self, n: int) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return (z ^ (z >> 31)) % n


def deviation_rects(a: int, trials: int, seed: int) -> list[tuple[int, ...]]:
    """The rectangles deviation_scan draws: x1 = U(a), x2 = x1+1+U(a-x1)."""
    g = SplitMix64(seed)
    out = []
    for _ in range(trials):
        x1 = g.below(a)
        x2 = x1 + 1 + g.below(a - x1)
        y1 = g.below(a)
        y2 = y1 + 1 + g.below(a - y1)
        out.append((x1, x2, y1, y2))
    return out


def _coprime_side(a: int) -> int:
    s = isqrt(a)
    while gcd(s, a) != 1:
        s += 1
    return s


def moments_job(rng: random.Random, target: int) -> tuple[dict, dict]:
    """One analysis job on a modulus near target, with its references.

    The deviation seed is drawn so that the rectangles' total width, which
    sets the job's enumeration work, is within 5% of its mean a*T/4.
    """
    window = modulus_window(target)
    for _ in range(ATTEMPTS):
        a = rng.choice(window)
        phi = int(sympy.totient(a))
        if not PHI_BAND[0] <= phi / a <= PHI_BAND[1]:
            continue
        if (a > TORUS_MAX or abs(a * a * phi / (target ** 3 / 2) - 1)
                <= TORUS_COST_TOLERANCE):
            break
    else:
        raise RuntimeError(f"no modulus near {target} in {ATTEMPTS} draws")
    n = rng.randrange(1, a)
    while gcd(n, a) != 1:
        n = rng.randrange(1, a)
    while True:
        dseed = rng.getrandbits(64)
        rects = deviation_rects(a, DEVIATION_TRIALS, dseed)
        width = sum(x2 - x1 for x1, x2, _, _ in rects)
        if abs(width / (a * DEVIATION_TRIALS / 4) - 1) <= 0.05:
            break
    side = isqrt(a)
    torus = _coprime_side(a) if a <= TORUS_MAX else None
    op = {"kind": "moments", "N": n, "a": a, "side": side,
          "trials": DEVIATION_TRIALS, "seed": dseed, "torus": torus}
    ref = {"phi": phi, "rects": rects}
    if a <= RECOUNT_MAX:
        ref.update(_recount(n, a, side, rects))
    return op, ref


def _recount(n: int, a: int, side: int, rects) -> dict:
    """Cell and rectangle counts from pow(x, -1, a), in plain Python."""
    ys = [n * pow(x, -1, a) % a if gcd(x, a) == 1 else -1 for x in range(a)]
    cols = -(-a // side)
    counts: dict[int, int] = {}
    edge = 0
    for x, y in enumerate(ys):
        if y < 0:
            continue
        cid = (y // side) * cols + x // side
        counts[cid] = counts.get(cid, 0) + 1
        if cols * side > a and (x >= (cols - 1) * side or y >= (cols - 1) * side):
            edge += 1
    rect_counts = [sum(1 for y in ys[x1:x2] if y1 <= y < y2)
                   for x1, x2, y1, y2 in rects]
    return {"sum_squares": sum(c * c for c in counts.values()),
            "edge_points": edge, "rect_counts": rect_counts}


def make_plan(workload: str, seed: int, levels=None) -> tuple[list[dict], list[dict]]:
    """One round of operations for the workload, and their references.

    Returns (ops, refs); ops[i] holds only what the program is given.
    `levels` replaces the workload's LEVELS (the harness self-test).
    """
    if workload not in LEVELS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    ops, refs = [], []
    for level, (_, target, count) in enumerate(levels or LEVELS[workload]):
        for j in range(count):
            stratum = j % len(STRATA)
            if workload == "moments":
                op, ref = moments_job(rng, target)
            else:
                if workload == "balanced":
                    p, q = balanced_semiprime(rng, target, stratum)
                else:
                    p, q = hard_semiprime(rng, target, stratum,
                                          strip=workload == "strip")
                kind = {"balanced": "balanced", "factor-hard": "factor",
                        "strip": "strip"}[workload]
                op, ref = {"kind": kind, "N": p * q}, {"split": [p, q]}
            op["level"] = level
            ops.append(op)
            refs.append(ref)
    return ops, refs


def check(op: dict, ref: dict, out) -> str | None:
    """None when the program's output matches the references, else why not."""
    if op["kind"] != "moments":
        if out["split"] != ref["split"]:
            return f"split {out['split']} != planted {ref['split']}"
        return None
    a, phi = op["a"], ref["phi"]
    if out["sum_counts"] != phi:
        return f"sum_counts {out['sum_counts']} != totient {phi}"
    recs = out["records"]
    if [tuple(r[:4]) for r in recs] != ref["rects"]:
        return "deviation rectangles differ from the SplitMix64 stream"
    devs = [abs(c - (x2 - x1) * (y2 - y1) * phi / (a * a))
            for x1, x2, y1, y2, c in recs]
    if abs(max(devs) - out["max_abs_dev"]) > 1e-9 * max(1.0, max(devs)):
        return "max_abs_dev disagrees with the records"
    if "sum_squares" in ref:
        if out["sum_squares"] != ref["sum_squares"]:
            return f"sum_squares {out['sum_squares']} != recount {ref['sum_squares']}"
        if out["edge_points"] != ref["edge_points"]:
            return "edge_points differ from the recount"
        if [r[4] for r in recs] != ref["rect_counts"]:
            return "rectangle counts differ from the recount"
    if op["torus"] is not None:
        t_counts, t_squares, spectral = out["torus"]
        if t_counts != op["torus"] ** 2 * phi:
            return "torus sum_counts != w*h*phi(a)"
        if abs(spectral - t_squares) > 1e-6 * t_squares:
            return f"direct {t_squares} and spectral {spectral} disagree"
    return None
