"""The names and the scan contract that the benchmark's tracer relies on.

hsbench/tracing.py wraps module attributes of the program by name and
replays every hyperbola_scan through the public hyperbola_points,
bucket_csr and pair_scan_csr.  A renamed entry point or a scan that
differs from that chain would otherwise only show as every operation of a
traced benchmark run failing.  hide_seek_general calls those public
kernels itself, so its spans need no replay.
"""

import importlib.util
import random
from pathlib import Path

from hideseek.factor import FactorStats, hide_seek_balanced, hide_seek_general
from util import arbitrary_semiprime, balanced_semiprime

_TRACING = Path(__file__).resolve().parents[1] / "hsbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("hsbench_tracing", _TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_entry_points_resolve():
    for mod_name, attr, _ in _tracing().ENTRY_POINTS:
        fn = getattr(importlib.import_module(mod_name), attr, None)
        assert callable(fn), (mod_name, attr)


def test_scan_equals_public_chain():
    """Each balanced scan opens no span of its own public kernels, and the
    tracer's replay through them gives the same (u, v, points, pairs).
    hide_seek_general runs no fused scan: it enumerates both solution
    sets once, and scans each width it tries in one factor.strip_scan span
    carrying that width's (w, h); the per-operation record counts those
    widths and FactorStats' pairs."""
    tracing = _tracing()
    rng = random.Random(50)
    inputs = [(hide_seek_balanced, balanced_semiprime(rng, 10 ** 9)[0])
              for _ in range(4)]
    inputs += [(hide_seek_general, arbitrary_semiprime(rng, 10 ** 8)[0])
               for _ in range(4)]
    for variant, n in inputs:
        stats = FactorStats()
        tracer = tracing.Tracer()
        tracer.install()
        try:
            lo, _ = tracer.root("factor.op", variant, n, False, stats)
        finally:
            tracer.uninstall()
        names = [s[0] for s in tracer.spans]
        if variant is hide_seek_balanced:
            scans = [i for i, name in enumerate(names) if name == "kernels.scan"]
            assert len(scans) == 1, n
            nested = {s[0] for s in tracer.spans if s[3] in scans}
            assert nested <= {"kernels.neighbor_table"}, nested
            tracer.replay([tracer.spans[i] for i in scans])
            continue
        assert names.count("kernels.enumerate") == 2, n
        assert "kernels.scan" not in names, n
        tried = [1 << k for k in range(1, stats.w.bit_length())]
        assert [(s[4]["w"], s[4]["h"]) for s in tracer.spans
                if s[0] == "factor.strip_scan"] == [
                    (w, max(1, stats.a // w)) for w in tried], n
        rec = tracing.op_record(tracer.spans, lo, [])
        assert rec["factor.widths"] == len(tried) >= 1, n
        assert rec["kernels.pairs"] == stats.pairs, n
