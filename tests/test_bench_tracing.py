"""The names and the scan contract that the benchmark's tracer relies on.

hsbench/tracing.py wraps module attributes of the program by name and
replays every hyperbola_scan through the public hyperbola_points,
bucket_csr and pair_scan_csr.  A renamed entry point or a scan that
differs from that chain would otherwise only show as every operation of a
traced benchmark run failing.  Full mode of both factorers scans each
width with one hyperbola_scan, so every width is one replayed span.
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


def _traced(tracing, variant, n, **install):
    """(tracer, first span, stats) of one full-mode call under the tracer."""
    stats = FactorStats()
    tracer = tracing.Tracer()
    tracer.install(**install)
    try:
        lo, _ = tracer.root("factor.op", variant, n, False, stats)
    finally:
        tracer.uninstall()
    return tracer, lo, stats


def test_scan_equals_public_chain():
    """A full-mode op opens one kernels.scan span per width it tries,
    carrying that width's (w, h) and nesting no span of the public
    kernels, and the tracer's replay through them gives each span's
    (u, v, points, pairs).  The per-operation record of those replays
    counts the widths tried and FactorStats' points and pairs."""
    tracing = _tracing()
    rng = random.Random(50)
    inputs = [(hide_seek_balanced, balanced_semiprime(rng, 10 ** 9)[0])
              for _ in range(4)]
    inputs += [(hide_seek_general, arbitrary_semiprime(rng, 10 ** 8)[0])
               for _ in range(4)]
    for variant, n in inputs:
        tracer, lo, stats = _traced(tracing, variant, n)
        scans = [i for i, s in enumerate(tracer.spans) if s[0] == "kernels.scan"]
        if variant is hide_seek_balanced:
            tried = [(stats.w, stats.h)]
        else:
            tried = [(1 << k, max(1, stats.a >> k))
                     for k in range(1, stats.w.bit_length())]
        assert [(tracer.spans[i][4]["w"], tracer.spans[i][4]["h"])
                for i in scans] == tried, n
        nested = {s[0] for s in tracer.spans if s[3] in scans}
        assert nested <= {"kernels.neighbor_table"}, nested
        tracer.install()  # the replay's spans come from the wrappers
        try:
            replay = tracer.replay([tracer.spans[i] for i in scans])
        finally:
            tracer.uninstall()
        rec = tracing.op_record(tracer.spans, lo, replay)
        assert rec["factor.widths"] == len(tried) >= 1, n
        assert (rec["kernels.points"], rec["kernels.pairs"]) == (
            stats.points, stats.pairs), n


def test_memory_pass_measures_general_scan():
    """The tracer's memory pass wraps hyperbola_scan, so it measures the
    general variant's scans too."""
    tracing = _tracing()
    n = arbitrary_semiprime(random.Random(51), 10 ** 8)[0]
    tracer, _, _ = _traced(tracing, hide_seek_general, n, memory=True)
    assert tracer.scan_peak > 0
