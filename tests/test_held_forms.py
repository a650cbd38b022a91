"""Taylor forms held per state, and the F - D reading of a stage polynomial.

``truncalg.taylor_form`` forms each (polynomial, reading point) pair at
most once per ``PuiseuxState``: the memo is the state's own, so a state
made by ``dataclasses.replace`` or ``with_term`` reads fresh forms.  The
``ent`` reading of a stage polynomial Q whose chain entry keeps F = D + Q
(``ChainEntry.kept_constant``) is F's form less D; the tests below compare
it with Q's form as the uncached body ``truncalg._form`` forms it.  A
form's center and constant are formed on their first read, which
``verify`` never makes.
"""

import importlib.util
import os
import random
import sys
from dataclasses import replace

import pytest

from genpuiseux import cli, truncalg
from genpuiseux.errors import EngineError
from genpuiseux.groups import INF, cmp
from genpuiseux.keypoly import KeyPolyChain
from genpuiseux.series import GenSeries
from genpuiseux.truncalg import integral_dependence, taylor_form

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")

# (spec text, budget): the readings through a kept constant
KEPT_RUNS = {
    "p5@3": ("p 5\nwitt_prec 8\npoly y^2 - 1 - p\n", 3),
    "p5@6": ("p 5\nwitt_prec 8\npoly y^2 - 1 - p\n", 6),
    "p3-2p@10": ("p 3\nwitt_prec 8\npoly y^2 - 2*p\n", 10),
    "sq-q@8": ("char 0\npoly y^2 - 1 - t\n", 8),
}


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", os.path.join(BENCH, "workloads.py"))
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # dataclasses look their module up there
    spec.loader.exec_module(mod)
    return mod


def _shape(series):
    return series.terms, series.prec, series.closed


def _form_shape(form):
    return (_shape(form.constant), _shape(form.value), _shape(form.center),
            {b: _shape(m) for b, m in form.monomials.items()}, form.lam, form.levels)


def _outcome(read, *args):
    try:
        return read(*args)
    except EngineError as exc:
        return type(exc).__name__


@pytest.mark.parametrize("name", sorted(KEPT_RUNS))
def test_a_kept_stage_reads_f_less_d_as_its_own_form(name):
    """Q's form read through an entry that keeps F = D + Q equals Q's form
    as ``_form`` forms it, at every finite epsilon_i up to beta: as the
    ``ent`` reading at Q's own epsilon, and as ``taylor_form(Q, eps,
    state, entry)`` at the others.  At Q's own epsilon, D has no term below
    lambda on these runs; at a later one it has, so the subtraction is read."""
    text, budget = KEPT_RUNS[name]
    state = cli.run_expand(cli.parse_problem(text), budget).state
    chain = state.chain
    points = [e.epsilon for e in chain.entries
              if e.epsilon is not INF and cmp(e.epsilon, state.beta) <= 0]
    ent = cut = 0
    for entry in chain.entries:
        D = entry.kept_constant(state.F)
        if D is None:
            continue
        for eps in points:
            want = _outcome(truncalg._form, entry.poly, eps, state)
            if chain.entry(chain.index_for(eps)) is entry:
                got = _outcome(integral_dependence, eps, state)
                if not isinstance(want, str):
                    got, residual = got
                    assert residual == (want.value.val() if want.value.terms else want.lam)
                ent += 1
            else:
                got = _outcome(taylor_form, entry.poly, eps, state, entry)
            if isinstance(want, str):
                assert got == want, (name, str(eps))
                continue
            assert _form_shape(got) == _form_shape(want), (name, str(eps))
            cut += bool(D.truncate_open(want.lam).terms)
    assert ent and cut


def _sq_q():
    return cli.run_expand(cli.parse_problem("char 0\npoly y^2 - 1 - t\n"), 8).state


def _eps_below_beta(state):
    return [e.epsilon for e in state.chain.entries
            if e.epsilon is not INF and cmp(e.epsilon, state.beta) < 0]


def test_expand_and_replace_carry_no_forms():
    state = _sq_q()
    assert state.forms is None  # expand reads no form
    eps = _eps_below_beta(state)[-1]
    form = taylor_form(state.F, eps, state)
    assert taylor_form(state.F, eps, state) is form and len(state.forms) == 1
    assert replace(state).forms is None
    assert state.with_term(state.emitted[-1][1]).forms is None
    assert replace(state, beta=eps).forms is None


def test_a_faulted_state_reads_fresh_forms():
    # the fault matrix's two kinds of faulted state: a moved partial and a moved chain
    state = _sq_q()
    eps = _eps_below_beta(state)[-1]
    held = taylor_form(state.F, eps, state)
    s = state.partial_series()
    terms = list(s.terms)
    terms[1] = (terms[1][0], terms[1][1] + state.ring.coeffs.one())
    entries = list(state.chain.entries)
    entries[1] = replace(entries[1], epsilon=(entries[1].epsilon + entries[2].epsilon) / 2)
    for bad in (replace(state, partial=GenSeries(s.ring, terms)),
                replace(state, chain=KeyPolyChain(state.chain.ring, entries))):
        form = taylor_form(bad.F, eps, bad)
        assert form is not held
        assert _form_shape(form) == _form_shape(truncalg._form(bad.F, eps, bad))
    assert not taylor_form(state.F, eps, state).value.terms


def _verify_ops(seeds=range(4)):
    wl = _load_workloads()
    for op in wl.all_ops(wl.WORKLOADS["verify"]):
        if op.spec_seed in seeds:
            yield pytest.param(op.text, id=op.key)


@pytest.mark.parametrize("text", _verify_ops())
def test_each_check_prints_alone_what_it_prints_under_all(text):
    """Under ``verify all`` the six checks share one state, so ``taylor``
    reads the forms ``ent`` formed.  Each check's line there is its line on
    a state of its own.  ``caltron``, ``prodfini``, ``stab`` and ``min``
    draw from the one seeded rng in turn, so each runs with the rng as the
    checks before it left it; ``ent`` and ``taylor`` draw nothing and also
    run alone as ``verify ent`` and ``verify taylor``."""
    spec = cli.parse_problem(text)
    lines = cli.cmd_verify(spec)[1].splitlines()
    rng = random.Random(spec.seed)
    assert len(lines) == len(cli.ALL_CHECKS)
    for check, line in zip(cli.ALL_CHECKS, lines):
        ok, residual = cli._CHECKS[check](cli.run_expand(spec).state, rng, spec.trials)
        assert line == f"check={check} status={'PASS' if ok else 'FAIL'} residual_val={residual}"
        if check in ("ent", "taylor"):
            alone = cli.parse_problem(text.replace("verify all", f"verify {check}"))
            assert cli.cmd_verify(alone)[1] == line


# the forms formed by one verify op at seed 0 (17, 17 and 13 before forms
# were held per state and a kept stage read F's form less D)
FORMED = {"as-f2@8": 11, "sq-q@8": 10, "p5@6": 8}


@pytest.mark.parametrize("row", sorted(FORMED))
def test_verify_forms_each_form_once(monkeypatch, row):
    wl = _load_workloads()
    op, = [op for op in wl.all_ops(wl.WORKLOADS["verify"])
           if op.row == row and op.spec_seed == 0]
    formed = []
    body = truncalg._form
    monkeypatch.setattr(truncalg, "_form", lambda *args: formed.append(args) or body(*args))
    cli.cmd_verify(cli.parse_problem(op.text))
    assert len(formed) == FORMED[row]


@pytest.mark.parametrize("text", _verify_ops(seeds=(0,)))
def test_verify_reads_no_center_of_a_form(monkeypatch, text):
    """``ent`` reads a form's monomials and value, ``taylor`` its value: under
    ``verify all`` no form's i0 search, base, center or correction runs.
    Read afterwards, each form's center and constant are those of the form
    ``_form`` forms and reads at once."""
    formed, centered = [], []
    body, center = truncalg._form, truncalg._center
    monkeypatch.setattr(truncalg, "_form",
                        lambda *args: formed.append((args, body(*args))) or formed[-1][1])
    monkeypatch.setattr(truncalg, "_center", lambda *args: centered.append(args) or center(*args))
    cli.cmd_verify(cli.parse_problem(text))
    assert formed and not centered
    for args, form in formed:
        assert _form_shape(form) == _form_shape(body(*args))
    # one center for each form read here and one for each fresh form: a
    # form's center and constant read one center between them
    assert len(centered) == 2 * len(formed)
