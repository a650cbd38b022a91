"""The Taylor-vector readers of truncalg against a per-derivative oracle.

``_derivative_levels``, ``taylor_form`` and ``integral_dependence`` read every
value at the partial from the one Taylor vector of f, through
D^k D^b = C(b+k, k) D^(b+k).  The oracle below reads them the direct way:
it forms each Hasse derivative D^b f, evaluates its own Taylor vector and
takes the T-graded minimum from that.  Both must agree at every finite
epsilon_i of the bench's verify problems, and ``derivative_min_check``
must agree with a copy of its two-pass form on seeded polynomials, which
forms each D^a h itself and evaluates it with ``eval_poly``.
"""

import functools
import math
import random
from dataclasses import replace

import pytest

from genpuiseux.cli import _rand_poly, parse_problem, run_expand
from genpuiseux.errors import EngineError, ValuationIndeterminate
from genpuiseux.groups import INF, cmp
from genpuiseux.keypoly import (
    ValPoly,
    derivative_min_check,
    level_and_ties,
    taylor_at,
    truncated_val,
)
from genpuiseux.series import GenSeries, eval_poly
from genpuiseux.truncalg import _derivative_levels, integral_dependence, taylor_form

PROBLEMS = {
    "as-f2": (["char 2", "poly y^2 + t*y + t"], 8),
    "cusp-f3": (["char 3", "poly y^3 - t*y - t"], 6),
    "sq-q": (["char 0", "poly y^2 - 1 - t"], 8),
    "p5": (["p 5", "witt_prec 8", "poly y^2 - 1 - p"], 6),
}


@functools.lru_cache(maxsize=None)
def _solved(name):
    lines, budget = PROBLEMS[name]
    spec = parse_problem("\n".join(lines) + "\n")
    return spec, run_expand(spec, budget).state


def _graded_min(f, state):
    """T-degrees attaining the minimum of f(partial + T) at state.beta."""
    vec = taylor_at(f, state.partial)
    _, attain = level_and_ties((k, ev.val() + state.beta.scale_unchecked(k))
                               for k, ev in enumerate(vec) if not ev.is_exact_zero())
    return attain


def oracle_levels(f, beta, state):
    chain = state.chain
    i_stage = chain.index_for(beta)

    def level(b):
        vb = truncated_val(f.hasse_derivative(b), chain, i_stage)[0]
        return INF if vb is INF else vb + beta.scale_unchecked(b)

    lam, U = level_and_ties((b, level(b)) for b in range(1, f.degree() + 1))
    if lam is None:
        raise ValuationIndeterminate("no determinate derivative level")
    eps = chain.entry(i_stage).epsilon
    at_threshold = replace(state, beta=eps)
    U0 = [b for b in U
          if eps is INF or _graded_min(f.hasse_derivative(b), at_threshold) == [0]]
    return lam, U, U0, i_stage


def _cut(series, bound, closed):
    if series.prec is not INF:
        s = cmp(bound, series.prec)
        if not (s < 0 or (s == 0 and (series.closed or not closed))):
            return series
    return series.truncate_closed(bound) if closed else series.truncate_open(bound)


def _exact(series):
    return GenSeries(series.ring, list(series.terms))


def oracle_form(f, beta, state, closed):
    """(constant, {b: monomial}, center, lam) with each D^b f evaluated alone."""
    chain = state.chain
    lam, _, U0, i_stage = oracle_levels(f, beta, state)
    i0 = i_stage - 1
    while i0 >= 1:
        ok = True
        for b in U0:
            db = f.hasse_derivative(b)
            ev = db.eval(state.partial)
            if ev.is_exact_zero():
                continue
            v_tr = truncated_val(db, chain, i0)[0]
            if v_tr is INF or cmp(v_tr, ev.val()) != 0:
                ok = False
                break
        if ok:
            break
        i0 -= 1
    full = state.partial_series()
    base = GenSeries(state.ring, [], INF, False)
    if i0 >= 1:
        eps0 = chain.entry(i0).epsilon
        base = _exact(full.truncate_closed(eps0)) if eps0 is not INF else _exact(full)
    center = _exact(_cut(full, beta, closed))
    delta = center - base
    monomials = {}
    correction = state.ring.zero()
    for b in U0:
        emb = f.hasse_derivative(b).eval(state.partial)
        if emb.is_exact_zero():
            continue
        monomials[b] = GenSeries(emb.ring, [emb.leading_term()])
        correction = correction + _cut(monomials[b] * (delta ** b), lam, closed)
    return _cut(f.eval(center), lam, closed) - correction, monomials, delta, lam


def oracle_residual(beta, state):
    q_poly = state.chain.entry(state.chain.index_for(beta)).poly
    constant, monomials, center, _ = oracle_form(q_poly, beta, state, False)
    acc = constant
    for b, mono in monomials.items():
        acc = acc + mono * (center ** b)
    if acc.is_exact_zero():
        return INF
    try:
        return acc.val()
    except ValuationIndeterminate as err:
        return INF if err.bound is None else err.bound


def _hasse(h, a):
    """D^a h formed from h's coefficients, not read from h's table."""
    return ValPoly(h.ring, [c * math.comb(k, a) for k, c in enumerate(h.coeffs) if k >= a])


def _least(a, b):
    """The lesser of two values, None standing for no value yet."""
    return b if a is None or cmp(b, a) < 0 else a


def oracle_min_check(h, chain, i, root):
    """derivative_min_check in its two-pass form, each D^a h formed here and
    evaluated at the series root with eval_poly."""
    beta = chain.entry(i).epsilon
    lhs, _ = truncated_val(h, chain, i)

    def true_val(ev):
        if ev.is_exact_zero():
            return INF
        try:
            return ev.val()
        except ValuationIndeterminate:
            return INF

    mid = rhs = None
    for a in range(0, h.degree() + 1):
        da = _hasse(h, a)
        if da.is_zero():
            continue
        shift = beta.scale_unchecked(a) if beta is not INF else INF
        tv = true_val(eval_poly(list(da.coeffs), root))
        if tv is not INF and shift is not INF:
            mid = _least(mid, tv + shift)
        uv, _ = truncated_val(da, chain, i)
        if uv is not INF and shift is not INF:
            rhs = _least(rhs, uv + shift)
    ok = (lhs is not INF and mid is not None and rhs is not None
          and cmp(lhs, mid) == 0 and cmp(lhs, rhs) == 0)
    return {"nu_i": lhs, "min_true": mid, "min_truncated": rhs, "equal": ok}


def _outcome(fn, *args):
    """fn's value, or the type of the engine error it raised."""
    try:
        return fn(*args)
    except EngineError as exc:
        return type(exc).__name__


def _text(x):
    if isinstance(x, GenSeries):
        return x.to_text()
    if isinstance(x, dict):
        return {b: _text(m) for b, m in x.items()}
    return str(x)


def _form_text(form):
    if isinstance(form, str):
        return form
    return (_text(form.constant), _text(form.monomials), _text(form.center),
            _text(form.lam))


def _epsilons(state):
    return [e.epsilon for e in state.chain.entries if e.epsilon is not INF]


def _polys(spec, state, count):
    """F, then seeded polynomials of degree 2 to 4."""
    rng = random.Random(f"forms-{spec.poly_text}")
    out = [state.F]
    while len(out) <= count:
        f = _rand_poly(state.ring, rng)
        if f.degree() >= 2:
            out.append(f)
    return out


def _tie(state, eps):
    """y^q + t^((q-1) eps)*y, q = max(p, 2): at beta = eps the orders 1 and q
    tie in U, and C(q, q-1) = q vanishes in characteristic p, so U0 hangs on
    the binomial."""
    q = max(state.ring.char_exponent, 2)
    ring = state.ring
    return ValPoly(ring, [ring.zero(), ring.monomial(eps.scale_unchecked(q - 1))]
                   + [ring.zero()] * (q - 2) + [ring.one()])


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_vector_readers_match_the_per_derivative_oracle(name):
    spec, state = _solved(name)
    polys = _polys(spec, state, 3)
    readings = 0
    for eps in _epsilons(state):
        for f in polys + [_tie(state, eps)]:
            levels = _outcome(lambda f, eps, state: _derivative_levels(f, eps, state)[0],
                              f, eps, state)
            want = _outcome(oracle_levels, f, eps, state)
            got = levels if isinstance(levels, str) else \
                (levels.lam, levels.U, levels.U0, levels.stage)
            assert got == want, (name, f, str(eps))
            for closed, mode in ((False, "OPEN"), (True, "CLOSED")):
                got = _form_text(_outcome(taylor_form, f, eps, state, mode))
                want = _outcome(oracle_form, f, eps, state, closed)
                want = want if isinstance(want, str) else tuple(map(_text, want))
                assert got == want, (name, f, mode, str(eps))
            readings += not isinstance(levels, str)
        rel = _outcome(integral_dependence, eps, state)
        got = rel if isinstance(rel, str) else _text(rel.residual_val)
        want = _outcome(oracle_residual, eps, state)
        assert got == (want if isinstance(want, str) else _text(want))
    assert readings >= len(_epsilons(state))


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_derivative_min_check_matches_its_two_pass_form(name):
    spec, state = _solved(name)
    chain = state.chain
    rng = random.Random(f"min-{name}")
    stages = [i for i, e in enumerate(chain.entries, start=1) if e.epsilon is not INF]
    assert stages
    assert isinstance(state.partial, GenSeries)
    for i in stages:
        for _ in range(20):
            h = _rand_poly(state.ring, rng)
            assert derivative_min_check(h, chain, i, state.taylor_of(h)) \
                == oracle_min_check(h, chain, i, state.partial)


def test_form_steps_below_an_inexact_stage(monkeypatch):
    # sq-q's chain is y, y^2 - 1, y^2 - 1 - t, ... with epsilon_i = i - 1.  For
    # f = -y^2 + 2y + 3t at beta = epsilon_3 = 2, U0 = [1], and
    # D^1 f = 2 - 2y has value 1 at the partial but truncated value 0 at
    # stages 2 and 1: taylor_form's i0 steps down from stage 2 to 0, and the
    # form is the oracle's, whose center then has no base to subtract.
    from genpuiseux import truncalg

    spec, state = _solved("sq-q")
    ring = state.ring
    f = ValPoly(ring, [ring.uniformizer() * 3, ring.one() * 2, -ring.one()])
    beta = ring.descriptor.from_rational(2)
    stages = []
    reader = truncalg.truncated_val
    monkeypatch.setattr(truncalg, "truncated_val",
                        lambda g, chain, i: stages.append(i) or reader(g, chain, i))
    form = taylor_form(f, beta, state)
    assert form.levels.stage == 3 and form.levels.U0 == [1]
    # two readings at stage 3 for the levels, then stage 2 and stage 1 for i0
    assert stages == [3, 3, 2, 1]
    assert _form_text(form) == tuple(map(_text, oracle_form(f, beta, state, False)))
    assert form.center.terms == state.partial_series().truncate_open(beta).terms
