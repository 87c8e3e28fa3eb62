"""The names and the scan contract that the benchmark's tracer relies on.

hsbench/tracing.py wraps module attributes of the program by name and
replays every hyperbola_scan through the public hyperbola_points,
bucket_csr and pair_scan_csr.  A renamed entry point or a scan that
differs from that chain would otherwise only show as every operation of a
traced benchmark run failing.
"""

import importlib.util
import random
from pathlib import Path

from hideseek.factor import hide_seek_balanced, hide_seek_general
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
    """Each traced scan opens no span of its own public kernels, and the
    tracer's replay through them gives the same (u, v, points, pairs)."""
    tracing = _tracing()
    rng = random.Random(50)
    inputs = [(hide_seek_balanced, balanced_semiprime(rng, 10 ** 9)[0])
              for _ in range(4)]
    inputs += [(hide_seek_general, arbitrary_semiprime(rng, 10 ** 8)[0])
               for _ in range(4)]
    replayed = 0
    for variant, n in inputs:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            tracer.root("factor.op", variant, n)
        finally:
            tracer.uninstall()
        scans = [i for i, s in enumerate(tracer.spans)
                 if s[0] == "kernels.scan"]
        nested = {s[0] for s in tracer.spans if s[3] in scans}
        assert nested <= {"kernels.neighbor_table"}, nested
        tracer.replay([tracer.spans[i] for i in scans])
        replayed += len(scans)
    assert replayed >= len(inputs)
