"""The benchmark tracer's hooks, checked without a bench run.

``bench/tracer.py`` wraps the engine's layers by qualified name, and some of
its metrics need named methods (``coeff:WittElem.__mul__``,
``coeff:CoeffElem.__mul__``, ``coeff:FieldTower.adjoin`` among them).  A
rename in ``src`` would otherwise show only when the bench runs traced.
"""

import importlib
import os

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def test_tracer_finds_every_required_hook_and_leaves_no_wrapper(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)  # tracer imports workloads by name
    tracer = importlib.import_module("tracer")
    t = tracer.Tracer()
    t.install()  # raises, naming them, if required hooks are missing
    try:
        required = {k for keys in tracer._CALLS.values() for k in keys} | set(tracer._OBSERVED)
        assert not required - set(t.stats)
        assert t.leftover_wrappers()
    finally:
        t.remove()  # raises if a wrapper is left behind
    assert t.leftover_wrappers() == []
