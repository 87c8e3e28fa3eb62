#!/usr/bin/env python3
"""Run the benchmark once per seed and report how much each metric spreads.

    python3 hsbench/repeat.py --workloads balanced,strip --seeds 1-10

For each workload and end-to-end metric it prints the median of the runs,
the distance between their first and third quartiles as a share of the
median (statistics.quantiles(values, n=4)), and the metric's bound from
BENCHMARK.json; also each run's share of failed operations, and the
median per level of the per-level p50 latencies with the fitted exponent.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for workload in args.workloads.split(","):
        runs, levels, fits = [], {}, []
        for seed in _seeds(args.seeds):
            cmd = [sys.executable, *bench["command"][1:], "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                print(f"{workload} seed {seed}: exit {proc.returncode}")
                return 1
            runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
            print(f"  seed {seed}: " + " ".join(
                f"{k} {m['value']:.5g}" for k, m in runs[-1]["metrics"].items()), flush=True)
            with open(os.path.join(HERE, "out", f"{workload}-seed{seed}-trace0.json")) as fh:
                detail = json.load(fh)["detail"]
            fits.append(detail["fit_exponent"])
            for lv in detail["levels"]:
                levels.setdefault(lv["level"], []).append(lv["p50_ms"])
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print(f"{workload}: {len(runs)} runs, failed shares {shares}, "
              f"all correct {all(r['correct'] for r in runs)}")
        for name in bounds:
            vals = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            print(f"  {name:22s} median {med:12.5g} {runs[0]['metrics'][name]['unit']:6s}"
                  f" spread {(q3 - q1) / med:6.3f}  bound {bounds[name]}"
                  f"  min {min(vals):.5g} max {max(vals):.5g}")
        print("  per level p50 ms: " + ", ".join(
            f"{k} {statistics.median(v):.4g}" for k, v in levels.items()))
        print(f"  fitted exponent: median {statistics.median(fits):.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
