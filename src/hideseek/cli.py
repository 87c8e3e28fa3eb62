"""Command-line interface and benchmark harness.

Every command builds its result once, as a row and as plain lines, and
prints it through one emitter, _emit, in the --format asked for.  Output
is byte-stable for a fixed (command, seed): only the timing field
`micros` varies between runs.  All randomness comes from the SplitMix64
stream in hideseek.rng, seeded from --seed.

Exit codes: 0 success, 1 no factor found where one was claimed, 2 usage
or parse failure, 3 internal invariant violation, 4 input outside the
supported range: a modulus >= 2**31, N >= 2**63 where the hide-seek
kernels are needed (for `factor`, a composite that trial division up to
N**(1/3) does not split), a > 2**16 for a torus or spectral `moment`, or
a `polyfactor` instance whose predicted size exceeds its cap.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from math import isqrt

from . import _kernels
from .arith import ceil_cbrt
from .factor import (
    Factorization,
    FactorStats,
    InvariantError,
    OutOfRangeError,
    Prime,
    Unit,
    factor,
    hide_seek_balanced,
    hide_seek_general,
    is_probable_prime,
    trial_division,
)
from .moments import (
    MomentDomain,
    deviation_scan,
    kloosterman,
    second_moment_direct,
    second_moment_spectral,
)
from .polysearch import factor_via_poly
from .rng import SplitMix64
from .solutions import CommonFactor, Rect, count_in_rect, solve_all

BENCH_COLUMNS = ["N", "method", "a", "w", "h", "points_enumerated",
                 "pairs_checked", "micros", "u", "v"]


def _emit_csv(columns: list[str], rows: list[dict], path: str | None = None):
    out = open(path, "w", newline="") if path else sys.stdout
    try:
        w = csv.writer(out)
        w.writerow(columns)
        for r in rows:
            w.writerow([r.get(c, "") for c in columns])
    finally:
        if path:
            out.close()


def _emit(fmt: str, row: dict, plain: list[str],
          columns: list[str] | None = None,
          rows: list[dict] | None = None) -> None:
    """Print one result: row as JSON with sorted keys, rows (default
    [row]) as CSV under columns (default row's keys, in order), or the
    plain lines."""
    if fmt == "json":
        print(json.dumps(row, sort_keys=True))
    elif fmt == "csv":
        _emit_csv(columns or list(row), [row] if rows is None else rows)
    else:
        for line in plain:
            print(line)


def _factor_row(n: int, res, stats: FactorStats, micros: int) -> dict:
    row = {"N": n, "method": stats.method, "a": stats.a, "w": stats.w,
           "h": stats.h, "points_enumerated": stats.points,
           "pairs_checked": stats.pairs, "micros": micros, "u": "", "v": ""}
    if isinstance(res, Factorization):
        row["u"], row["v"] = res.u, res.v
    return row


def cmd_factor(args) -> int:
    n = args.N
    if n < 1:
        print("N must be >= 1", file=sys.stderr)
        return 2
    stats = FactorStats()
    t0 = time.perf_counter_ns()
    if args.balanced:
        res = hide_seek_balanced(n, strip_mode=args.strip, stats=stats)
    elif args.general:
        res = hide_seek_general(n, strip_mode=args.strip, stats=stats)
    elif args.trial_only:
        stats.method = "trial"
        res = trial_division(n, isqrt(n)) if n > 1 else Unit()
        if res is None:
            # no divisor up to sqrt(n): that is a primality proof
            res = Prime(n)
    else:
        res = factor(n, strip_mode=args.strip, stats=stats)
    micros = (time.perf_counter_ns() - t0) // 1000

    if isinstance(res, Factorization) and res.u * res.v != n:
        raise InvariantError("split failed re-verification")
    if isinstance(res, Unit):
        kind, line = "unit", f"{n} is a unit"
    elif isinstance(res, Prime):
        kind, line = "prime", f"{n} is prime"
    elif isinstance(res, Factorization):
        kind, line = "composite", f"{n} = {res.u} * {res.v}"
    else:
        kind, line = "unknown", f"no factor found for {n}"
    row = _factor_row(n, res, stats, micros)
    row["kind"] = kind
    _emit(args.format, row, [line], BENCH_COLUMNS)
    return 1 if res is None else 0


def cmd_solve(args) -> int:
    n, a = args.N, args.a
    got = solve_all(n, a)
    if isinstance(got, CommonFactor):
        _emit(args.format, {"N": n, "a": a, "common_factor": got.gcd},
              [f"common factor {got.gcd}"])
    elif args.rect is not None:
        r = Rect(*args.rect)
        c = count_in_rect(n, a, r)
        flat = {"N": n, "a": a, "x1": r.x1, "x2": r.x2, "y1": r.y1,
                "y2": r.y2, "count": c}
        _emit(args.format, {"N": n, "a": a, "count": c,
                            "rect": list(args.rect)},
              [str(c)], list(flat), [flat])
    else:
        pts = got.points
        _emit(args.format, {"N": n, "a": a, "count": len(pts),
                            "points": [list(p) for p in pts]},
              [f"{p.x} {p.y}" for p in pts], ["x", "y"],
              [p._asdict() for p in pts])
    return 0


def cmd_moment(args) -> int:
    if args.cell is not None:
        w = h = args.cell
        domain = MomentDomain.FUNDAMENTAL_SQUARE
    else:
        w, h = args.rect
        domain = MomentDomain.FULL_TORUS_Q2
    if args.spectral and domain is not MomentDomain.FULL_TORUS_Q2:
        print("--spectral requires --rect (full-torus domain)",
              file=sys.stderr)
        return 2
    rep = second_moment_direct(args.N, args.a, w, h, domain)
    spectral = None
    if args.spectral:
        spectral = second_moment_spectral(args.N, args.a, w, h)
    row = {
        "N": rep.N, "a": rep.a, "cell_w": rep.cell_w, "cell_h": rep.cell_h,
        "domain": rep.domain.value, "sum_counts": rep.sum_counts,
        "sum_squares": rep.sum_squares,
        "expected_mean_cell": rep.expected_mean_cell,
        "k0_term": rep.k0_term, "edge_points": rep.edge_points,
        "spectral_value": spectral,
    }
    plain = [f"N={rep.N} a={rep.a} cells {rep.cell_w}x{rep.cell_h} "
             f"({rep.domain.value})"]
    plain += [f"{k} = {row[k]}" for k in (
        "sum_counts", "sum_squares", "expected_mean_cell", "k0_term",
        "edge_points")]
    if spectral is not None:
        plain.append(f"spectral_value = {spectral}")
    _emit(args.format, row, plain)
    return 0


def cmd_kloosterman(args) -> int:
    kv = kloosterman(args.m, args.n, args.a)
    _emit(args.format,
          {"m": kv.m, "n": kv.n, "a": kv.modulus, "value": kv.value,
           "imag_residual": kv.imag_residual},
          [f"S({kv.m}, {kv.n}, {kv.modulus}) = {kv.value:.12g} "
           f"(imag residual {kv.imag_residual:.3e})"])
    return 0


def cmd_scan_deviation(args) -> int:
    rep = deviation_scan(args.N, args.a, args.trials, args.seed)
    _emit(args.format,
          {"N": rep.N, "a": rep.a, "trials": rep.trials, "seed": rep.seed,
           "max_abs_dev": rep.max_abs_dev, "mean_abs_dev": rep.mean_abs_dev},
          [f"N={rep.N} a={rep.a} trials={rep.trials} seed={rep.seed}",
           f"max |count - expected| = {rep.max_abs_dev}",
           f"mean |count - expected| = {rep.mean_abs_dev}"])
    return 0


def cmd_polyfactor(args) -> int:
    got = factor_via_poly(args.N, args.a, args.d)
    row = {"N": args.N, "a": args.a, "d": args.d, "kind": "none"}
    if got is None:
        line = f"no degree-{args.d} split found for {args.N}"
    else:
        row.update(kind="composite", u=got.u, v=got.v)
        line = f"{args.N} = {got.u} * {got.v}"
    _emit(args.format, row, [line], ["N", "a", "d", "kind", "u", "v"])
    return 0 if got is not None else 1


def _next_probable_prime(n: int) -> int:
    if n <= 2:
        return 2
    n |= 1
    while not is_probable_prime(n):
        n += 2
    return n


def _sample_semiprime(rng: SplitMix64, nmin: int, nmax: int,
                      balanced: bool) -> tuple[int, int, int]:
    """Deterministic (N, p, q) with nmin <= p*q <= nmax; q < 2p when
    balanced, otherwise p is drawn anywhere up to sqrt(nmax)."""
    for _ in range(10_000):
        if balanced:
            lo = max(2, isqrt(nmin // 2))
            hi = max(lo + 2, isqrt(nmax))
            p = _next_probable_prime(rng.randrange(lo, hi))
            q = _next_probable_prime(rng.randrange(p, 2 * p))
            if q >= 2 * p or q < p:
                continue
        else:
            lo = max(2, ceil_cbrt(max(nmin, 8)) // 2)
            hi = max(lo + 2, isqrt(nmax))
            p = _next_probable_prime(rng.randrange(lo, hi))
            qlo = max(p, nmin // p)
            qhi = max(qlo + 1, nmax // p)
            q = _next_probable_prime(rng.randrange(qlo, qhi + 1))
        n = p * q
        if nmin <= n <= nmax:
            return n, min(p, q), max(p, q)
    raise ValueError(f"no semiprime sampled in [{nmin}, {nmax}]")


def cmd_bench(args) -> int:
    _kernels.warmup()  # first-call costs (numba's JIT) stay out of the timings
    rng = SplitMix64(args.seed)
    rows = []
    for _ in range(args.samples):
        n, _, _ = _sample_semiprime(rng, args.nmin, args.nmax,
                                    args.method == "balanced")
        stats = FactorStats()
        t0 = time.perf_counter_ns()
        if args.method == "balanced":
            res = hide_seek_balanced(n, stats=stats)
        else:
            res = factor(n, stats=stats)
        micros = (time.perf_counter_ns() - t0) // 1000
        if not isinstance(res, Factorization):
            raise InvariantError(f"bench sample {n} did not split")
        rows.append(_factor_row(n, res, stats, micros))
    _emit_csv(BENCH_COLUMNS, rows, args.csv)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hideseek",
        description="Factor integers via modular-hyperbola point matching "
                    "and analyze the solution distribution.")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("plain", "json", "csv"),
                       default="plain")

    p = sub.add_parser("factor", help="factor N")
    p.add_argument("N", type=int)
    meth = p.add_mutually_exclusive_group()
    meth.add_argument("--balanced", action="store_true",
                      help="balanced variant only (assumes U < V < 2U)")
    meth.add_argument("--general", action="store_true",
                      help="general doubling-width variant only")
    meth.add_argument("--trial-only", action="store_true",
                      help="trial division up to sqrt(N) only")
    p.add_argument("--strip", action="store_true",
                   help="scan column windows of about 2**18 points "
                        "per set, bounding memory")
    add_format(p)
    p.set_defaults(fn=cmd_factor)

    p = sub.add_parser("solve", help="list solutions of x*y == N (mod a)")
    p.add_argument("N", type=int)
    p.add_argument("a", type=int)
    p.add_argument("--rect", type=int, nargs=4,
                   metavar=("X1", "X2", "Y1", "Y2"),
                   help="count points in the half-open rectangle instead")
    add_format(p)
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("moment", help="second moment of per-cell counts")
    p.add_argument("N", type=int)
    p.add_argument("a", type=int)
    dims = p.add_mutually_exclusive_group(required=True)
    dims.add_argument("--cell", type=int, metavar="B",
                      help="B x B cells tiling the fundamental square")
    dims.add_argument("--rect", type=int, nargs=2, metavar=("W", "H"),
                      help="W x H cells over the full torus family")
    p.add_argument("--spectral", action="store_true",
                   help="also evaluate the Kloosterman-sum form")
    add_format(p)
    p.set_defaults(fn=cmd_moment)

    p = sub.add_parser("kloosterman", help="S(m, n, a) by direct summation")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.add_argument("a", type=int)
    add_format(p)
    p.set_defaults(fn=cmd_kloosterman)

    p = sub.add_parser("scan-deviation",
                       help="rectangle-count deviations from expectation")
    p.add_argument("N", type=int)
    p.add_argument("a", type=int)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    add_format(p)
    p.set_defaults(fn=cmd_scan_deviation)

    p = sub.add_parser("polyfactor",
                       help="degree-d digit-polynomial factor search")
    p.add_argument("N", type=int)
    p.add_argument("a", type=int)
    p.add_argument("d", type=int)
    add_format(p)
    p.set_defaults(fn=cmd_polyfactor)

    p = sub.add_parser("bench", help="timing sweep over sampled semiprimes")
    p.add_argument("--nmin", type=int, required=True)
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--samples", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--csv", type=str, default=None,
                   help="write rows to this path instead of stdout")
    p.add_argument("--method", choices=("balanced", "driver"),
                   default="balanced")
    p.set_defaults(fn=cmd_bench)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except InvariantError as e:
        print(f"internal invariant violation: {e}", file=sys.stderr)
        return 3
    except OutOfRangeError as e:
        print(f"input outside the supported range: {e}", file=sys.stderr)
        return 4
    except (ValueError, OverflowError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
