"""The benchmark's golden outputs, replayed as tier-1 tests.

Every expand op of the ``expand-t``, ``expand-p`` and ``expand-sqrt2``
workloads runs at each budget of its problem (n and 2n), and its exit code
and ``--format records`` output must equal
``bench/goldens/<workload>.json`` byte for byte.  The ``verify`` ops run
for all 64 spec seeds at both budgets of all four problems, and their exit
code and check lines must equal ``bench/goldens/verify.json``; the known
``check=min status=FAIL`` lines of that set are part of the golden.  So
every one of the benchmark's 528 ops is compared with its golden here, and
each golden file is read once.

The bench budgets stop at 24 terms, so four problems are also pinned at 64
terms by the SHA-256 digest of their ``--format records`` output.  A fifth
pins mixed characteristic at 24 terms: ``p 3``, ``witt_prec 12``,
``poly y^3 - p - p^2``.  Its carries span many exponent classes with
denominators 3^k, where every carry of the ``expand-p`` ops stays in one
class.  A sixth pins the limit stage at 12 terms: ``char 2``,
``poly y^2 + t*y + t + t^3 + t^4`` is the one spec here whose records hold
a ``branch=LIMIT`` step.  Two more pin Q towers past the bench budgets:
``poly y^3 - t - t^2`` at 32 terms, over Q(w) with denominators 3^k, and
``poly y^2 - 1/3 - t`` at 24 terms, over the stage X^2 - 1/3, whose minimal
polynomial is not integral.  Three more pin the rank-2 group with a sqrt(2)
weight beside ``r2-q``: ``r2-f2`` over F2 at 64 terms, whose denominators
reach 2^64; ``r2-cube`` over Q at 24 terms, with Q(w) coefficients and
negative second coordinates; and ``r2-f3`` over F3 at 32 terms, with
denominators 3^k.

The rank-2 runs also keep the budget-prefix relation: the trace records and
the series terms at budget n are a prefix of those at budget 2n.  Thirteen
more specs keep it beyond rank 2, over F2, F3, Q, Q(w), W(F2), W(F3) and
W(F5), the limit stage included; and ten mixed-characteristic specs keep
the Witt-precision relation: the terms printed at ``witt_prec`` 4 and 8 are
those printed at 12, below each run's own O(p^k).

The verify goldens see little of what the checks read, since five of the
six print ``residual_val=inf``; a SHA-256 over the readings of ``ent``,
``taylor`` and ``min`` on a subset of the verify ops pins those too.
"""

import functools
import hashlib
import importlib.util
import json
import os
import sys

import pytest

from genpuiseux import cli

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
EXPAND_WORKLOADS = ("expand-t", "expand-p", "expand-sqrt2")


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", os.path.join(BENCH, "workloads.py"))
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # dataclasses look their module up there
    spec.loader.exec_module(mod)
    return mod


def _cases():
    wl = _load_workloads()
    for name in EXPAND_WORKLOADS:
        for op in wl.all_ops(wl.WORKLOADS[name]):
            yield pytest.param(name, op, id=f"{name}:{op.key}")


def _verify_cases():
    wl = _load_workloads()
    for op in wl.all_ops(wl.WORKLOADS["verify"]):
        yield pytest.param(op, id=f"verify:{op.key}")


@functools.cache
def _golden(name):
    with open(os.path.join(BENCH, "goldens", f"{name}.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name,op", list(_cases()))
def test_expand_matches_golden(name, op):
    code, out, _ = cli.cmd_expand(cli.parse_problem(op.text), fmt="records",
                                  budget=op.budget)
    assert {"code": code, "out": out} == _golden(name)[op.key]


@pytest.mark.parametrize("op", list(_verify_cases()))
def test_verify_matches_golden(op):
    code, out = cli.cmd_verify(cli.parse_problem(op.text))
    assert {"code": code, "out": out} == _golden("verify")[op.key]


LONG_RUNS = {
    # name: (spec, budget, SHA-256 of the records output)
    "as-f2": ("char 2\npoly y^2 + t*y + t\n", 64,
              "f4bd608a66495b1a3958e34de7875db1115bd4781dae88dff2f82614cb7873cd"),
    "sq-q": ("char 0\npoly y^2 - 1 - t\n", 64,
             "c7fd5ad8e1447732e8bf1b3f6eaaf6ecbb224c260f34550817c93349c96c7162"),
    "sq-f3": ("char 3\npoly y^2 - 2*t - t^2\n", 64,
              "2c5937fee6b41d26d2cea4ae73560550b51c2dc86467e69cffa3137db40820f6"),
    "r2-q": ("char 0\nweights 1 0+1*sqrt(2)\nsqrt_disc 2\nlower_vars u2\n"
             "poly y^2 - t - u2\n", 64,
             "664422d1702fae9b1a8513c526d36b2ac1669804c00c9ea104c397307c00209e"),
    # denominators reach 2^64
    "r2-f2": ("char 2\nweights 1 0+1*sqrt(2)\nsqrt_disc 2\nlower_vars u2\n"
              "poly y^2 + t*y + u2\n", 64,
              "a1ce2ab1862688fa9a0bb98078ad7389d1a03dff0f44473b99a370b3e2702c49"),
    # Q(w) coefficients and negative second coordinates (24*g1 + -22*g2)
    "r2-cube": ("char 0\nweights 2+1*sqrt(2) 1\nsqrt_disc 2\nlower_vars u2\n"
                "poly y^3 - t*u2 - u2^2\n", 24,
                "73c67f561c2a23ecf605e610d6ee223f8103560749862227c1b54db97d698825"),
    # denominators are powers of 3
    "r2-f3": ("char 3\nweights 2+1*sqrt(2) 1\nsqrt_disc 2\nlower_vars u2\n"
              "poly y^3 - t*y - u2\n", 32,
              "d16d945eabe87f34d8e8cfc7625d7710014802e8239132b1a77c898e07afab0e"),
    "p3-cube": ("p 3\nwitt_prec 12\npoly y^3 - p - p^2\n", 24,
                "61bc0de28f5159dd9cf35c2d4a95de54a41e025967df558549ed6167937c5011"),
    "limit-f2": ("char 2\npoly y^2 + t*y + t + t^3 + t^4\n", 12,
                 "0f2a0bdc7ae31253d5de2ba1544dbaa83d1c7b07b3c434d760a8f8a1b381e96c"),
    "cube-q": ("char 0\npoly y^3 - t - t^2\n", 32,
               "e46fee06b5071ad540b5f016a5f6d2c68a8d7dedde748cf98138ed202d9c0f8d"),
    "third-q": ("char 0\npoly y^2 - 1/3 - t\n", 24,
                "6b30d0b77af05ee1f98ad4867aadf7f5ae723d70b9e8181022e871cf6dc82ec8"),
}


# the name predates per-run budgets; it stays so that the suite's test ids stay stable
@pytest.mark.parametrize("name", sorted(LONG_RUNS))
def test_records_digest_at_64_terms(name):
    text, budget, digest = LONG_RUNS[name]
    code, out, _ = cli.cmd_expand(cli.parse_problem(text), fmt="records", budget=budget)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _records_and_terms(text, budget):
    res = cli.run_expand(cli.parse_problem(text), budget)
    residue = res.series.ring.coeffs.residue
    return (res.trace_lines()[:-1],  # the last line is the result, with its O(...)
            [(g.to_text(), residue(c).to_text()) for g, c in res.series.terms])


@pytest.mark.parametrize("n", [4, 8, 16])
@pytest.mark.parametrize("name", ["r2-q", "r2-f2", "r2-cube", "r2-f3"])
def test_rank2_budget_prefix(name, n):
    text = LONG_RUNS[name][0]
    records, terms = _records_and_terms(text, n)
    records2, terms2 = _records_and_terms(text, 2 * n)
    assert len(records) == n and len(terms) == n
    assert records2[:n] == records and terms2[:n] == terms


PREFIX_RUNS = {
    **{name: LONG_RUNS[name][0] for name in (
        "as-f2", "sq-q", "cube-q", "sq-f3", "limit-f2", "p3-cube", "third-q")},
    "cusp-f3": "char 3\npoly y^3 - t*y - t\n",
    "p5": "p 5\nwitt_prec 16\npoly y^2 - 1 - p\n",
    "p3-2p": "p 3\nwitt_prec 8\npoly y^2 - 2*p\n",
    "p3-sqrt": "p 3\npoly y^2 - p\n",
    "p2": "p 2\npoly y^2 - 1 - p\n",
    # reducible: the first step takes the residue root 0 and stops
    "cubic-q": "char 0\npoly y^3 - t^2*y + t^5\n",
}


@pytest.mark.parametrize("n", [4, 8, 16])
@pytest.mark.parametrize("name", sorted(PREFIX_RUNS))
def test_budget_prefix(name, n):
    text = PREFIX_RUNS[name]
    records, terms = _records_and_terms(text, n)
    records2, terms2 = _records_and_terms(text, 2 * n)
    # p-mode and limit runs do not emit n records (zero coefficients, limit
    # steps and their head terms, precision stops): each run is read at its own length
    assert records
    assert records2[:len(records)] == records and terms2[:len(terms)] == terms


WITT_RUNS = [
    ("5", "y^2 - 1 - p"), ("5", "y^2 - 4 - p"), ("5", "y^3 - p*y + p^5"),
    ("3", "y^2 - 2*p"), ("3", "y^2 - p"), ("3", "y^3 - p - p^2"), ("3", "y^2 + p*y + p^3"),
    ("2", "y^2 - 1 - p"), ("2", "y^2 - 1 - p^3"), ("2", "y^2 - p^2 - p^5"),
]


@pytest.mark.parametrize("p,poly", WITT_RUNS, ids=[f"p{p}:{f}" for p, f in WITT_RUNS])
def test_witt_precision_prefix(p, poly):
    def series(witt_prec):
        spec = cli.parse_problem(f"p {p}\nwitt_prec {witt_prec}\npoly {poly}\n")
        return cli.run_expand(spec, 8).series

    finest = series(12)
    for witt_prec in (4, 8):
        got = series(witt_prec)
        assert got.to_text() == finest.truncate_open(got.prec).to_text(), witt_prec


# spec seeds of the verify ops whose readings are pinned: each problem at both budgets
READING_SEEDS = (0, 21, 42)
READINGS_DIGEST = "3ca8584f3d2b7b3cb38fdbc576e39eda727dab69fd8414240ef7d8cd7c29f50f"


def test_verify_readings_digest(monkeypatch):
    """What the ``ent``, ``taylor`` and ``min`` checks read, not only what they
    print: five of the six checks print ``residual_val=inf`` whatever they
    read.  Over the bench verify ops at READING_SEEDS, each ``ent`` reading's
    lambda and residual (its relation's valuation, or the precision bound
    when the relation has no term), each ``taylor`` relation's text and each
    ``min`` trial's ``nu_i`` and ``equal`` are hashed with SHA-256."""
    from genpuiseux import truncalg

    readings = []
    ent_form, taylor_form, min_check = truncalg.taylor_form, cli.taylor_form, cli.derivative_min_check

    def ent_reader(*args, **kwargs):  # the form integral_dependence reads
        form = ent_form(*args, **kwargs)
        rel = form.value
        readings.append(f"ent lam={form.lam} residual={rel.val() if rel.terms else rel.prec}")
        return form

    def taylor_reader(*args):
        form = taylor_form(*args)
        readings.append(f"taylor {form.value.to_text()}")
        return form

    def min_reader(*args):
        rep = min_check(*args)
        readings.append(f"min nu_i={rep['nu_i']} equal={rep['equal']}")
        return rep

    monkeypatch.setattr(truncalg, "taylor_form", ent_reader)
    monkeypatch.setattr(cli, "taylor_form", taylor_reader)
    monkeypatch.setattr(cli, "derivative_min_check", min_reader)
    wl = _load_workloads()
    for op in wl.all_ops(wl.WORKLOADS["verify"]):
        if op.spec_seed in READING_SEEDS:
            readings.append(op.key)
            cli.cmd_verify(cli.parse_problem(op.text))
    assert hashlib.sha256("\n".join(readings).encode()).hexdigest() == READINGS_DIGEST
