"""Measuring process of the hideseek benchmark; run.py starts it fresh.

`child.py --setup` times `import hideseek` plus `_kernels.warmup()` and
prints that.  Otherwise it reads a job from stdin (one round of
operations, the run length, the trace flag), times `import hideseek` plus
warm-up, runs one untimed operation per level, then whole rounds of
operations one at a time until the run length is spent, and prints one
JSON line: each operation's wall time and output, and its own peak
resident memory.

A traced run alternates a plain round with a round under the span
wrappers of tracing.py; the two rounds' summed operation times give the
tracing overhead.  After each traced operation it replays the
fused scans and re-runs the operation once with tracemalloc around the
scan calls; neither pass counts as an operation.
"""

import json
import os
import resource
import sys
import time

import tracing


def _setup() -> float:
    t0 = time.perf_counter()
    import hideseek  # noqa: F401
    from hideseek import _kernels

    _kernels.warmup()
    return time.perf_counter() - t0


def _operations():
    """kind -> (call, encode): call(op) runs the program on the op's
    inputs, encode(result) turns its output into JSON values."""
    from importlib import import_module

    # the attribute `hideseek.factor` is the function `factor`; take the module
    F = import_module("hideseek.factor")
    M = import_module("hideseek.moments")

    def balanced(op):
        stats = F.FactorStats()
        return F.hide_seek_balanced(op["N"], stats=stats), stats

    def hard(op, strip_mode=False):
        stats = F.FactorStats()
        return F.factor(op["N"], strip_mode=strip_mode, stats=stats), stats

    def moments(op):
        n, a, s = op["N"], op["a"], op["side"]
        sq = M.second_moment_direct(n, a, s, s)
        dev = M.deviation_scan(n, a, op["trials"], op["seed"], keep_records=True)
        torus = None
        if op["torus"] is not None:
            t = op["torus"]
            torus = (M.second_moment_direct(n, a, t, t, M.MomentDomain.FULL_TORUS_Q2),
                     M.second_moment_spectral(n, a, t, t))
        return sq, dev, torus

    def encode_split(res):
        got, stats = res
        split = [got.u, got.v] if isinstance(got, F.Factorization) else repr(got)
        return {"split": split, "stats": {"w": stats.w, "points": stats.points,
                                          "pairs": stats.pairs}}

    def encode_moments(res):
        sq, dev, torus = res
        return {"sum_counts": sq.sum_counts, "sum_squares": sq.sum_squares,
                "edge_points": sq.edge_points, "max_abs_dev": dev.max_abs_dev,
                "records": [[r.rect.x1, r.rect.x2, r.rect.y1, r.rect.y2, r.count]
                            for r in dev.records],
                "torus": None if torus is None else
                [torus[0].sum_counts, torus[0].sum_squares, torus[1]]}

    return {"balanced": (balanced, encode_split),
            "factor": (hard, encode_split),
            "strip": (lambda op: hard(op, strip_mode=True), encode_split),
            "moments": (moments, encode_moments)}


def _plant_wrong(out: dict) -> dict:
    """A wrong answer, as a faulty program would give it."""
    if "sum_squares" in out:
        return dict(out, sum_squares=out["sum_squares"] + 1)
    split = out["split"]
    return dict(out, split=[split[0], split[1] + 2] if isinstance(split, list) else [1, 1])


def _run_round(ops, calls, plant_wrong, results, tracer=None, records=None):
    """Run every op once; append (index, seconds, output) to results.
    Returns the summed op time."""
    total = 0.0
    for i, op in enumerate(ops):
        call, encode = calls[op["kind"]]
        lo = None
        try:
            if tracer is None:
                t0 = time.perf_counter()
                res = call(op)
                dt = time.perf_counter() - t0
            else:
                tracer.install()
                try:
                    lo, res = tracer.root(
                        "moments.op" if op["kind"] == "moments" else "factor.op",
                        call, op)
                finally:
                    tracer.uninstall()
                dt = tracer.spans[lo][2] - tracer.spans[lo][1]
            out = encode(res)
        except Exception as exc:  # a failed operation, counted by run.py
            out = {"error": f"{type(exc).__name__}: {exc}"}
            dt = 0.0
        if plant_wrong and i == 0 and "error" not in out:
            out = _plant_wrong(out)
        if tracer is not None and lo is not None:
            out = dict(out, trace=_trace_op(tracer, lo, call, op, out, records))
        results.append((i, dt, out))
        total += dt
    return total


def _trace_op(tracer, lo, call, op, out, records):
    """Replay and memory pass of the traced op at spans[lo:]; append its
    per-layer record, with the FactorStats the op filled in.  Returns
    None, or why the replay failed."""
    scans = [s for s in tracer.spans[lo:] if s[0] == "kernels.scan"]
    tracer.install()
    try:
        replay = tracer.replay(scans)
        problem = None
    except AssertionError as exc:
        replay, problem = [], str(exc)
    finally:
        tracer.uninstall()
    if scans or op["kind"] == "strip":
        tracer.install(memory=True)
        try:
            call(op)
        finally:
            tracer.uninstall()
    rec = tracing.op_record(tracer.spans, lo, replay)
    rec.update(kind=op["kind"], level=op["level"], stats=out.get("stats"))
    records.append(rec)
    tracer.spans = []
    return problem


def main() -> None:
    # one core for the whole run: migrations between cores added run-to-run
    # spread on a shared machine
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    setup_s = _setup()
    if sys.argv[1:] == ["--setup"]:
        print(json.dumps({"setup_s": setup_s}))
        return
    job = json.load(sys.stdin)
    ops, seconds, plant = job["ops"], job["seconds"], job["plant_wrong"]
    calls = _operations()
    # one untimed operation per level: first-call costs and the
    # allocator's first growth to the level's array sizes are not timed
    # (the program keeps no cache across calls)
    first = {}
    for op in ops:
        first.setdefault(op["level"], op)
    _run_round(list(first.values()), calls, False, [])
    results: list = []
    report = {"setup_s": setup_s}
    start = time.perf_counter()
    if not job["trace"]:
        while True:
            _run_round(ops, calls, plant, results)
            if time.perf_counter() - start >= seconds:
                break
        report["wall_s"] = time.perf_counter() - start
    else:
        tracer = tracing.Tracer()
        records: list = []
        plain = traced = 0.0
        while True:
            plain += _run_round(ops, calls, plant, results)
            traced += _run_round(ops, calls, plant, results, tracer, records)
            if time.perf_counter() - start >= seconds:
                break
        overhead = 100.0 * (traced / plain - 1.0) if plain else 0.0
        report["layers"] = tracing.layer_metrics(records, tracer.scan_peak, overhead)
        report["records"] = records
    report["results"] = results
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(report))


if __name__ == "__main__":
    main()
