#!/usr/bin/env python3
"""The hideseek benchmark: closed-loop workloads on the numpy backend.

    python3 hsbench/run.py --workload balanced --seed 1 --seconds 25 --trace 0
    python3 hsbench/run.py --workload all --seed 1
    python3 hsbench/run.py --self-test

Run from the root of a checkout.  For one workload it draws the inputs
from the seed (workloads.py), times set-up in fresh processes, runs the
workload in one fresh measuring process (child.py), checks every output
against references computed apart from the program, and prints as its
last line one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with --trace 0, the per-layer metrics
of tracing.py with --trace 1.  Raw reports go to hsbench/out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("balanced", "factor-hard", "strip", "moments")
# Fresh processes whose import-plus-warm-up times give setup_s; half run
# before the measuring process and half after it, so that the median
# does not rest on one stretch of the machine's speed.
SETUP_PROBES = 10


class ChildTimeout(Exception):
    """A child process outlived its time limit and was killed."""


def _child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["HIDESEEK_BACKEND"] = "numpy"
    # one BLAS thread: the measuring process runs one operation at a time
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _child(args: list[str], job: dict | None = None, seconds: float = 0.0) -> dict:
    # the run, its untimed warm-up and one overrunning round (a traced round
    # with its replays and memory pass), with room for a slow machine
    limit = 3 * seconds + 90
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), *args],
            input=None if job is None else json.dumps(job), capture_output=True,
            text=True, env=_child_env(), cwd=ROOT, timeout=limit)
    except subprocess.TimeoutExpired:  # run() has killed and reaped it
        raise ChildTimeout(f"killed after {limit:.0f} s") from None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"measuring process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool,
            levels=None, plant_wrong: bool = False, setup: bool = True) -> dict:
    """Run one workload; returns the result object plus per-level detail."""
    import workloads

    ops, refs = workloads.make_plan(workload, seed, levels)
    probes = SETUP_PROBES // 2 if setup and not trace else 0
    setup_times = [_child(["--setup"])["setup_s"] for _ in range(probes)]
    try:
        rep = _child([], {"ops": ops, "seconds": seconds, "trace": trace,
                          "plant_wrong": plant_wrong}, seconds)
    except ChildTimeout as exc:
        # no output came back: the round's operations all count as failed
        return {"result": {"correct": True, "attempted": len(ops),
                           "failed": len(ops), "metrics": {}},
                "detail": {"levels": [], "problems": [f"{workload}: measuring process {exc}"]}}
    setup_times += [_child(["--setup"])["setup_s"] for _ in range(probes)]
    wrong, problems, bad = 0, [], set()
    by_level: dict[int, list[float]] = {}
    for k, (i, dt, out) in enumerate(rep["results"]):
        op = ops[i]
        why = out["error"] if "error" in out else workloads.check(op, refs[i], out)
        if why is None and out.get("trace"):
            why = out["trace"]
        if why is not None:
            bad.add(k)
            wrong += "error" not in out
            problems.append(f"{workload} op {i} (level {op['level']}): {why}")
            continue
        by_level.setdefault(op["level"], []).append(dt)
    attempted, failed = len(rep["results"]), len(bad)
    names = [lv[0] for lv in (levels or workloads.LEVELS[workload])]
    sizes = {}
    for op in ops:
        sizes.setdefault(op["level"], []).append(op.get("a", op["N"]))
    detail = {"levels": [{"level": names[k], "size": statistics.mean(sizes[k]),
                          "ops": len(by_level.get(k, [])),
                          "p50_ms": statistics.median(by_level[k]) * 1e3
                          if by_level.get(k) else None}
                         for k in range(len(names))],
              "problems": problems[:20],
              "op_ms": {names[k]: [dt * 1e3 for dt in v] for k, v in sorted(by_level.items())}}
    if trace:
        metrics = rep["layers"]
        detail["records"] = rep["records"]
        from tracing import METRICS
        units = dict(METRICS)
    else:
        lat = [by_level.get(0, []), by_level.get(len(names) - 1, [])]
        metrics = {
            "setup_s": statistics.median(setup_times) if setup_times else rep["setup_s"],
            "best_round_ops_per_s": _best_round_rate(rep["results"], len(ops), bad),
            "latency_small_p10_ms": _p10(lat[0]) * 1e3,
            "latency_large_p10_ms": _p10(lat[1]) * 1e3,
            "peak_rss_mb": rep["peak_rss_mb"],
        }
        units = {"setup_s": "s", "best_round_ops_per_s": "ops/s",
                 "latency_small_p10_ms": "ms", "latency_large_p10_ms": "ms",
                 "peak_rss_mb": "MB"}
        detail["ops_per_s"] = (attempted - failed) / rep["wall_s"]
        detail["setup_samples_s"] = setup_times
        detail["fit_exponent"] = _fit(detail["levels"])
    result = {"correct": wrong == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    return {"result": result, "detail": detail}


def _p10(times: list[float]) -> float:
    """Tenth percentile, interpolated inside the samples."""
    if len(times) < 2:
        return times[0] if times else math.nan
    return statistics.quantiles(times, n=10, method="inclusive")[0]


def _best_round_rate(results: list, per_round: int, bad: set) -> float:
    """Operations completed per second in the run's fastest whole round."""
    rates = []
    for r in range(0, len(results), per_round):
        spent = sum(dt for _, dt, _ in results[r:r + per_round])
        done = sum(1 for k in range(r, r + per_round) if k not in bad)
        rates.append(done / spent if spent else 0.0)
    return max(rates)


def _fit(levels: list[dict]) -> float | None:
    """Least-squares slope of log p50 latency against log size."""
    pts = [(math.log(lv["size"]), math.log(lv["p50_ms"]))
           for lv in levels if lv["p50_ms"]]
    if len(pts) < 2:
        return None
    mx = statistics.mean(x for x, _ in pts)
    my = statistics.mean(y for _, y in pts)
    return (sum((x - mx) * (y - my) for x, y in pts)
            / sum((x - mx) ** 2 for x, _ in pts))


def _print_detail(workload: str, got: dict) -> None:
    for lv in got["detail"]["levels"]:
        p50 = "-" if lv["p50_ms"] is None else f"{lv['p50_ms']:.3f} ms"
        print(f"{workload} level {lv['level']:>5}: {lv['ops']:4d} ops, p50 {p50}")
    if got["detail"].get("fit_exponent") is not None:
        print(f"{workload} fitted exponent of p50 latency against size: "
              f"{got['detail']['fit_exponent']:.3f}")
    for p in got["detail"]["problems"]:
        print(f"FAILED {p}")


def _save(name: str, payload: dict) -> None:
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, name), "w") as fh:
        json.dump(payload, fh, indent=1)


def self_test() -> bool:
    """At tiny sizes, a clean run has no failures and a planted wrong
    answer in each round is counted as failed and makes correct false."""
    tiny = {"balanced": [("1e7", 10 ** 7, 3)], "factor-hard": [("2e8", 2 * 10 ** 8, 3)],
            "strip": [("1e9", 10 ** 9, 3)], "moments": [("2^8", 2 ** 8, 3)]}
    ok = True
    for workload in WORKLOADS:
        for plant in (False, True):
            r = measure(workload, 1, 0.0, False, tiny[workload], plant, setup=False)["result"]
            want = (True, 0) if not plant else (False, 1)
            good = (r["correct"], r["failed"]) == want and r["attempted"] == 3
            ok &= good
            print(f"self-test {workload} planted={plant}: attempted {r['attempted']} "
                  f"failed {r['failed']} correct {r['correct']} -> "
                  f"{'ok' if good else 'WRONG'}")
    r = measure("factor-hard", 1, 0.0, True, tiny["factor-hard"], setup=False)["result"]
    good = r["correct"] and r["failed"] == 0 and r["attempted"] == 6
    ok &= good
    print(f"self-test traced factor-hard: attempted {r['attempted']} failed "
          f"{r['failed']} -> {'ok' if good else 'WRONG'}")
    return ok


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "hideseek", "__init__.py")):
        print(f"no program to measure: {os.path.join(ROOT, 'src', 'hideseek')} "
              "is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    if args.self_test:
        return 0 if self_test() else 1
    if args.workload is None:
        ap.error("--workload is required")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results, timed_out = {}, False
    for workload in names:
        try:
            got = measure(workload, args.seed, args.seconds, bool(args.trace))
        except ChildTimeout as exc:  # a set-up probe hung; no figures to give
            print(f"{workload}: set-up probe {exc}", file=sys.stderr)
            return 1
        _save(f"{workload}-seed{args.seed}-trace{args.trace}.json",
              {"workload": workload, "seed": args.seed, "seconds": args.seconds, **got})
        _print_detail(workload, got)
        results[workload] = got["result"]
        timed_out = timed_out or not got["result"]["metrics"]
        if len(names) > 1:
            r = got["result"]
            print(f"{workload}: attempted {r['attempted']}, failed {r['failed']}, "
                  f"correct {r['correct']}")
            for k, m in r["metrics"].items():
                print(f"  {k} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 1 if timed_out else 0


if __name__ == "__main__":
    sys.exit(main())
