"""Spans around the public entry points of each hideseek layer, set from outside.

Tracer.install() replaces module attributes of the program with timing
wrappers and uninstall() puts the originals back.  The program looks these
names up at call time, so its own calls pass through the wrappers.  A span
is [name, start, end, parent index, info]; spans stay in memory and are
reduced to per-operation figures by op_record().

`_kernels._axis_steps` is wrapped beside `axis_neighbor_table` because the
pair scans build their neighbor tables through it; nested spans of one
name count once.  The fused `hyperbola_scan` has no seams inside, so
replay() re-runs each fused call through the public `hyperbola_points`,
`bucket_csr` and `pair_scan_csr`, after the timed operation, and requires
the same (u, v, points, pairs).
"""

from __future__ import annotations

import sys
import time
import tracemalloc

# (module, attribute, span name)
ENTRY_POINTS = [
    ("hideseek.factor", "is_probable_prime", "factor.primality"),
    ("hideseek.factor", "trial_division", "factor.trial_division"),
    ("hideseek.factor", "hide_seek_general", "factor.general"),
    ("hideseek.factor", "_strip_scan", "factor.strip_scan"),
    ("hideseek.factor", "_strip_arrays", "solutions.strip_arrays"),
    ("hideseek.solutions", "_strip_arrays", "solutions.strip_arrays"),
    ("hideseek.moments", "count_in_rect", "solutions.count_in_rect"),
    ("hideseek.moments", "kloosterman_abs2_table", "moments.kloosterman_table"),
    ("hideseek._kernels", "hyperbola_scan", "kernels.scan"),
    ("hideseek._kernels", "hyperbola_points", "kernels.enumerate"),
    ("hideseek._kernels", "unit_inverse_table", "kernels.enumerate"),
    ("hideseek._kernels", "inverses_for", "kernels.inverse"),
    ("hideseek._kernels", "bucket_csr", "kernels.bucket"),
    ("hideseek._kernels", "pair_scan_csr", "kernels.pair_scan"),
    ("hideseek._kernels", "axis_neighbor_table", "kernels.neighbor_table"),
    ("hideseek._kernels", "_axis_steps", "kernels.neighbor_table"),
]

# Spans whose self time (duration minus direct children) is layer glue.
SELF_SPANS = {"factor": ("factor.op", "factor.general", "factor.strip_scan"),
              "moments": ("moments.op",)}

# Spans of a replay that stand for work inside a fused scan.
REPLAY_SPANS = ("kernels.enumerate", "kernels.bucket", "kernels.pair_scan")

# Per-layer metrics and units, in report order.
METRICS = [
    ("factor.primality_ms", "ms"),
    ("factor.trial_division_ms", "ms"),
    ("factor.widths", "count"),
    ("factor.self_ms", "ms"),
    ("kernels.scan_ms", "ms"),
    ("kernels.points", "count"),
    ("kernels.pairs", "count"),
    ("kernels.enumerate_ms", "ms"),
    ("kernels.bucket_ms", "ms"),
    ("kernels.pair_scan_ms", "ms"),
    ("kernels.ns_per_pair", "ns"),
    ("kernels.pair_scan_calls", "count"),
    ("kernels.neighbor_table_ms", "ms"),
    ("kernels.neighbor_table_calls", "count"),
    ("kernels.inverse_ms", "ms"),
    ("kernels.inverse_calls", "count"),
    ("kernels.scan_peak_mb", "MB"),
    ("solutions.count_in_rect_ms", "ms"),
    ("solutions.strip_arrays_ms", "ms"),
    ("moments.kloosterman_table_ms", "ms"),
    ("moments.self_ms", "ms"),
    ("trace.overhead_pct", "%"),
]


def _info(name, args, out):
    """The counts a span carries, taken from its arguments and result."""
    if name == "kernels.scan":
        return {"w": args[3], "h": args[4], "args": list(args),
                "result": list(out)}
    if name == "kernels.pair_scan":
        return {"pairs": out[2]}
    if name == "kernels.enumerate":
        return {"points": int(out[0].size)}
    if name == "kernels.inverse":
        return {"points": int(out.size)}
    if name == "factor.strip_scan":
        return {"w": args[2], "h": args[3]}
    return None


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self.scan_peak = 0

    def _timed(self, fn, name):
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            span[4] = _info(name, args, out)
            return out
        return traced

    def _peak(self, fn, _name):
        def measured(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                self.scan_peak = max(self.scan_peak, peak)
        return measured

    def install(self, memory: bool = False) -> None:
        """Wrap every entry point with spans, or with memory=True only the
        scans with a tracemalloc peak."""
        for mod_name, attr, name in ENTRY_POINTS:
            if memory and name not in ("kernels.scan", "kernels.pair_scan"):
                continue
            mod = sys.modules[mod_name]
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, (self._peak if memory else self._timed)(fn, name))

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)

    def root(self, name: str, fn, *args):
        """Run fn(*args) as the root span of one operation; returns
        (span index, result)."""
        return len(self.spans), self._timed(fn, name)(*args)

    def replay(self, scan_spans: list[list]) -> list[list]:
        """Re-run fused scans through the public kernels; returns the
        replay's spans.  Raises AssertionError when a replay differs."""
        from hideseek import _kernels as K
        saved, self.spans = self.spans, []
        try:
            for span in scan_spans:
                n, a, m2, cw, ch, dxc, dyc = span[4]["args"]
                cols, rows = -(-a // cw), -(-a // ch)
                bx, by = K.hyperbola_points(n, a)
                sx, sy = K.hyperbola_points(n, m2)
                points = bx.size + sx.size
                bx, by, bs = K.bucket_csr(bx, by, cw, ch, cols, rows)
                sx, sy, ss = K.bucket_csr(sx, sy, cw, ch, cols, rows)
                u, v, pairs = K.pair_scan_csr(bx, by, bs, sx, sy, ss, cols,
                                              rows, cw, ch, a, dxc, dyc, n, m2)
                if [u, v, points, pairs] != span[4]["result"]:
                    raise AssertionError(
                        f"replay {[u, v, points, pairs]} != fused "
                        f"{span[4]['result']} for {span[4]['args']}")
            return self.spans
        finally:
            self.spans = saved


def _outermost(spans, lo, hi, replay):
    """(name, duration, span) of spans[lo:hi] not nested in a span of
    their own name; replay spans are kept only for REPLAY_SPANS."""
    for i in range(lo, hi):
        name, t0, t1, parent, _ = spans[i]
        if replay and name not in REPLAY_SPANS:
            continue
        if parent >= 0 and spans[parent][0] == name:
            continue
        yield name, t1 - t0, spans[i]


def op_record(spans, lo, replay_spans) -> dict:
    """Per-layer figures of the operation whose spans are spans[lo:]."""
    ms: dict[str, float] = {}
    calls: dict[str, int] = {}
    points = pairs = 0
    widths = []
    for source, replay in ((spans, False), (replay_spans, True)):
        start = lo if not replay else 0
        for name, dur, span in _outermost(source, start, len(source), replay):
            ms[name] = ms.get(name, 0.0) + dur * 1e3
            calls[name] = calls.get(name, 0) + 1
            info = span[4] or {}
            points += info.get("points", 0)
            pairs += info.get("pairs", 0)
            if not replay and name in ("kernels.scan", "factor.strip_scan"):
                width = {"w": info["w"], "h": info["h"], "ms": dur * 1e3}
                if "result" in info:
                    width["points"], width["pairs"] = info["result"][2:]
                widths.append(width)
    children: dict[int, float] = {}
    for i in range(lo, len(spans)):
        parent = spans[i][3]
        children[parent] = children.get(parent, 0.0) + spans[i][2] - spans[i][1]
    self_ms = {layer: sum((spans[i][2] - spans[i][1] - children.get(i, 0.0)) * 1e3
                          for i in range(lo, len(spans)) if spans[i][0] in names)
               for layer, names in SELF_SPANS.items()}
    return {
        "op_ms": (spans[lo][2] - spans[lo][1]) * 1e3,
        "factor.primality_ms": ms.get("factor.primality", 0.0),
        "factor.trial_division_ms": ms.get("factor.trial_division", 0.0),
        "factor.widths": len(widths),
        "factor.self_ms": self_ms["factor"],
        "kernels.scan_ms": ms.get("kernels.scan", 0.0),
        "kernels.points": points,
        "kernels.pairs": pairs,
        "kernels.enumerate_ms": ms.get("kernels.enumerate", 0.0),
        "kernels.bucket_ms": ms.get("kernels.bucket", 0.0),
        "kernels.pair_scan_ms": ms.get("kernels.pair_scan", 0.0),
        "kernels.pair_scan_calls": calls.get("kernels.pair_scan", 0),
        "kernels.neighbor_table_ms": ms.get("kernels.neighbor_table", 0.0),
        "kernels.neighbor_table_calls": calls.get("kernels.neighbor_table", 0),
        "kernels.inverse_ms": ms.get("kernels.inverse", 0.0),
        "kernels.inverse_calls": calls.get("kernels.inverse", 0),
        "solutions.count_in_rect_ms": ms.get("solutions.count_in_rect", 0.0),
        "solutions.strip_arrays_ms": ms.get("solutions.strip_arrays", 0.0),
        "moments.kloosterman_table_ms": ms.get("moments.kloosterman_table", 0.0),
        "moments.self_ms": self_ms["moments"],
        "widths": widths,
    }


def layer_metrics(records: list[dict], scan_peak: int, overhead_pct: float) -> dict:
    """Per-operation means of the records, plus the run-wide figures."""
    n = max(1, len(records))
    out = {}
    for name, _ in METRICS:
        if name in ("kernels.ns_per_pair", "kernels.scan_peak_mb",
                    "trace.overhead_pct"):
            continue
        out[name] = sum(r[name] for r in records) / n
    pairs = sum(r["kernels.pairs"] for r in records)
    scan_ms = sum(r["kernels.pair_scan_ms"] for r in records)
    out["kernels.ns_per_pair"] = scan_ms * 1e6 / pairs if pairs else 0.0
    out["kernels.scan_peak_mb"] = scan_peak / 2 ** 20
    out["trace.overhead_pct"] = overhead_pct
    return out
