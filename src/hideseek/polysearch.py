"""Search for factor digits as integer polynomial values.

When base-a digit vectors of U and V are read as polynomials u, v of
degree d, reducing N modulo a - delta for delta = 0..d plants the point
(u(delta), v(delta)) inside the solution set of x*y == N (mod a - delta)
restricted to 0 < x, y < a * lambda_factor(d, delta).  Finding d+1 points
(one per set) whose coordinates interpolate to integer polynomials with
digits in [0, a) recovers U and V.

The search is exhaustive over point tuples with incremental pruning.
Each side carries the last diagonal of its forward-difference table and
its Newton coefficients:

* appending a value extends the diagonal to the new top difference
  Delta^k, which must be nonnegative and divisible by k! (exact
  consequences of nonnegative integer digits, which also make values
  nondecreasing in delta); the quotient is the k-th Newton coefficient;
* the last level is never scanned: the degree-(d-1) interpolant P has
  P(d) = the diagonal's sum, so the final x is P(d) + t * d! with
  0 <= t < a, found by membership probes, and each hit's y set is
  filtered by the same congruence;
* complete tuples are converted to monomial digits, checked in [0, a).

Desk-scale by design; instances whose predicted set size exceeds the cap
are refused up front.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import factorial

from .arith import euler_phi
from .factor import Factorization, OutOfRangeError
from .solutions import CommonFactor, HyperbolaPoint, solve_all

__all__ = [
    "DigitVector",
    "PolyInstance",
    "InstanceTooLargeError",
    "digits",
    "lambda_factor",
    "extended_solutions",
    "build_instance",
    "poly_search",
    "factor_via_poly",
]

MAX_INSTANCE_POINTS = 10**7


class InstanceTooLargeError(OutOfRangeError):
    """Predicted instance size exceeds the configured cap."""


@dataclass(frozen=True)
class DigitVector:
    """Base-a digits, least significant first, last digit nonzero."""

    base: int
    digits: tuple[int, ...]

    def __post_init__(self):
        if not self.digits or self.digits[-1] == 0:
            raise ValueError("last digit must be nonzero")
        if any(not 0 <= d < self.base for d in self.digits):
            raise ValueError("digit out of range")

    @property
    def degree(self) -> int:
        return len(self.digits) - 1

    def value(self) -> int:
        acc = 0
        for d in reversed(self.digits):
            acc = acc * self.base + d
        return acc


def digits(U: int, a: int) -> DigitVector:
    """Base-a expansion of U >= 1."""
    if U < 1:
        raise ValueError("U must be >= 1")
    if a < 2:
        raise ValueError("base must be >= 2")
    ds = []
    while U:
        U, r = divmod(U, a)
        ds.append(r)
    return DigitVector(a, tuple(ds))


def lambda_factor(d: int, delta: int) -> int:
    """Range bound delta^d + ... + delta + 1 = (delta^(d+1)-1)/(delta-1).

    The closed form is singular at delta = 1, where the sum is d + 1;
    at delta = 0 it is 1.
    """
    if d < 0 or delta < 0:
        raise ValueError("d and delta must be >= 0")
    if delta == 0:
        return 1
    if delta == 1:
        return d + 1
    return (delta ** (d + 1) - 1) // (delta - 1)


def extended_solutions(N: int, a: int, delta: int, d: int
                       ) -> list[HyperbolaPoint] | CommonFactor:
    """All solutions of x*y == N (mod a - delta) with 0 < x, y < a*lambda.

    The phi(a - delta) fundamental solutions replicated across translates
    by the modulus, truncated at the range bound.
    """
    m = a - delta
    if m < 2:
        raise ValueError("a - delta must be >= 2")
    lam = lambda_factor(d, delta)
    bound = a * lam
    reach = -(-bound // m)  # translates per axis, upper bound
    if euler_phi(m) * reach * reach > MAX_INSTANCE_POINTS:
        raise InstanceTooLargeError(
            f"predicted {euler_phi(m) * reach * reach} points exceeds cap")
    base = solve_all(N, m)
    if isinstance(base, CommonFactor):
        return base
    out: list[HyperbolaPoint] = []
    for x0, y0 in zip(base.xs.tolist(), base.ys.tolist()):
        # units are >= 1, so 0 < coordinate holds for every translate
        nx = (bound - 1 - x0) // m + 1
        ny = (bound - 1 - y0) // m + 1
        for i in range(nx):
            x = x0 + i * m
            for j in range(ny):
                out.append(HyperbolaPoint(x, y0 + j * m))
    out.sort()
    return out


@dataclass(frozen=True)
class PolyInstance:
    """The d+1 extended solution sets, indexed by x for O(1) probes."""

    N: int
    a: int
    d: int
    sets: list[dict[int, set[int]]] = field(repr=False)

    @property
    def sizes(self) -> list[int]:
        return [sum(len(v) for v in s.values()) for s in self.sets]


def build_instance(N: int, a: int, d: int) -> PolyInstance | CommonFactor:
    """Enumerate all d+1 extended sets; a common factor aborts early."""
    if d < 0:
        raise ValueError("d must be >= 0")
    sets: list[dict[int, set[int]]] = []
    for delta in range(d + 1):
        pts = extended_solutions(N, a, delta, d)
        if isinstance(pts, CommonFactor):
            return pts
        idx: dict[int, set[int]] = {}
        for x, y in pts:
            idx.setdefault(x, set()).add(y)
        sets.append(idx)
    return PolyInstance(N, a, d, sets)


def _append(diag: list[int], v: int) -> list[int]:
    """The last diagonal of a forward-difference table after appending
    value v, given the old one: v, then each order's new last difference,
    ending with the new top difference."""
    out = [v]
    for r in diag:
        out.append(out[-1] - r)
    return out


def _newton_to_monomial(newton: list[int]) -> list[int]:
    """Monomial coefficients of sum_k newton[k] * t(t-1)...(t-k+1)."""
    coeffs = [0] * len(newton)
    falling = [1]  # coefficients of the falling product, low order first
    for k, c_k in enumerate(newton):
        for j, c in enumerate(falling):
            coeffs[j] += c_k * c
        nxt = [0] * (len(falling) + 1)
        for j, c in enumerate(falling):
            nxt[j + 1] += c
            nxt[j] -= k * c
        falling = nxt
    return coeffs


def poly_search(inst: PolyInstance
                ) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All digit vectors (u0..ud, v0..vd) whose polynomial points lie in
    the instance sets, sorted; sound and complete for planted instances."""
    d, a, sets = inst.d, inst.a, inst.sets
    fact_d = factorial(d)
    results: set[tuple[tuple[int, ...], tuple[int, ...]]] = set()

    def digits_of(newton: list[int]) -> tuple[int, ...] | None:
        cs = _newton_to_monomial(newton)
        return tuple(cs) if all(0 <= c < a for c in cs) else None

    def final_level(xdiag, ydiag, xnewton, ynewton) -> None:
        px, py = sum(xdiag), sum(ydiag)
        for t in range(a):
            yset = sets[d].get(px + t * fact_d)
            if yset is None:
                continue
            ucs = digits_of(xnewton + [t])
            if ucs is None:
                continue
            for y in yset:
                s, r = divmod(y - py, fact_d)
                if r == 0 and 0 <= s < a:
                    vcs = digits_of(ynewton + [s])
                    if vcs is not None:
                        results.add((ucs, vcs))

    def extend(level, xdiag, ydiag, xnewton, ynewton) -> None:
        if level == d:
            final_level(xdiag, ydiag, xnewton, ynewton)
            return
        f = factorial(level)
        for x, yset in sets[level].items():
            xr = _append(xdiag, x)
            if xr[-1] < 0 or xr[-1] % f:
                continue
            xn = xnewton + [xr[-1] // f]
            for y in yset:
                yr = _append(ydiag, y)
                if yr[-1] < 0 or yr[-1] % f:
                    continue
                extend(level + 1, xr, yr, xn, ynewton + [yr[-1] // f])

    extend(0, [], [], [], [])
    return sorted(results)


def factor_via_poly(N: int, a: int, d: int) -> Factorization | None:
    """Build the instance, search, and return the first verified split
    whose digit vectors both have exact degree d (nonzero top digit, so
    a**d <= U, V < a**(d+1)).

    Intended for desk-scale inputs (the set sizes grow like a * d^(2d));
    returns None when no degree-d digit pair splits N.
    """
    if a - d < 2:
        raise ValueError("need a - d >= 2")
    got = build_instance(N, a, d)
    if isinstance(got, CommonFactor):
        g = got.gcd
        if 1 < g < N:
            return Factorization(N, min(g, N // g), max(g, N // g))
        return None
    for ucs, vcs in poly_search(got):
        if ucs[-1] == 0 or vcs[-1] == 0:
            continue
        u = DigitVector(a, ucs).value()
        v = DigitVector(a, vcs).value()
        if u > 1 and v > 1 and u * v == N:
            return Factorization(N, min(u, v), max(u, v))
    return None
