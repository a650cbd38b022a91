import random
from dataclasses import replace
from fractions import Fraction
from functools import cmp_to_key

import pytest

from genpuiseux import cli, embed, keypoly
from genpuiseux.coeff import CoeffElem, FieldTower, WittRing
from genpuiseux.errors import (
    ChainComplete,
    UnsupportedLimitPattern,
    ValuationIndeterminate,
)
from genpuiseux.groups import INF, GroupDescriptor, cmp
from genpuiseux.keypoly import (
    KeyPolyChain,
    TaylorVector,
    ValPoly,
    extend_chain,
    standard_expansion,
    truncated_val,
)
from genpuiseux.series import GenSeries, SeriesRing
from genpuiseux.embed import (
    BUDGET,
    COMPLETE,
    COMPLETE_TRANSCENDENTAL,
    RUNNING,
    expand,
    init_state,
    limit_step,
    monomial_embedding,
    residual_equation,
    step,
)


def tring(char=0):
    desc = GroupDescriptor([1])
    tower = FieldTower.prime_field(char) if char else FieldTower.rationals()
    return SeriesRing(desc, tower)


def pring(p, prec=6):
    desc = GroupDescriptor([1])
    ring = WittRing(FieldTower.prime_field(p), prec)
    return SeriesRing(desc, ring)


def g(R, q):
    return R.descriptor.from_rational(Fraction(q))


def t_pow(R, q, c=1):
    return R.monomial(g(R, q), c)


def _fraction(c):
    """The rational value of a base-constant coefficient, else None."""
    first, *rest = c.tower.leaves(c.rep)
    return None if any(rest) else Fraction(first)


def classical_F(R):
    return ValPoly(R, [-1 * t_pow(R, 3), R.zero(), R.one()])


def artin_schreier_F(R):
    return ValPoly(R, [t_pow(R, 1), t_pow(R, 1), R.one()])


def is_partial_development(state):
    """Check the two defining valuation conditions of a partial development,
    an oracle independent of the step that built the state.

    Historical snapshots of a re-pinned stage polynomial (an entry whose
    polynomial reappears later in the chain) record the value attained at
    their creation time; only the latest binding per polynomial is checked.
    """
    report = []
    ok = True
    i_b = state.i_beta
    chain = state.chain
    for i in range(1, min(i_b - 1, len(chain)) + 1):
        e = chain.entry(i)
        if any(chain.entry(j).poly == e.poly
               for j in range(i + 1, len(chain) + 1)):
            continue
        ev = state.eval_at_partial(e.poly)
        if e.beta is INF:
            good = ev.is_exact_zero()
        else:
            try:
                good = cmp(ev.val(), e.beta) == 0
            except ValuationIndeterminate:
                good = False
        report.append((i, "value-pinned", good))
        ok = ok and good
    if i_b <= len(chain) and state.beta is not INF:
        e = chain.entry(i_b)
        p = state.ring.char_exponent
        # the least level v + p^b * beta the stage polynomial may reach
        bound = min((v + state.beta.scale_unchecked(p ** b) for b, v in e.levels),
                    key=cmp_to_key(cmp))
        ev = state.eval_at_partial(e.poly)
        low = ev.terms[0][0] if ev.terms else ev.prec  # INF for exact zero
        good = low is INF or cmp(low, bound) >= 0
        report.append((i_b, "boundary-inequality", good))
        ok = ok and good
    return ok, report


# -- monomial pieces ------------------------------------------------------------------


def test_monomial_embedding():
    R = tring()
    emb = monomial_embedding(R, ["t"])
    assert emb["t"] == t_pow(R, 1)
    desc = GroupDescriptor([(1, 0), (0, 1)], sqrt_disc=2)
    R2 = SeriesRing(desc, FieldTower.rationals())
    emb2 = monomial_embedding(R2, ["u1", "u2"])
    assert emb2["u1"].leading_term()[0] == desc.basis(0)
    assert emb2["u2"].leading_term()[0] == desc.basis(1)


# -- init and the partial-development predicate -----------------------------------------


def test_init_state_classical():
    R = tring()
    st = init_state(classical_F(R), R)
    assert st.beta == g(R, Fraction(3, 2))
    assert st.i_beta == 1
    ok, _ = is_partial_development(st)
    assert ok


def test_init_state_linear_and_artin_schreier():
    R = tring()
    F = ValPoly(R, [-1 * t_pow(R, 1), R.one()])
    assert init_state(F, R).beta == g(R, 1)
    R2 = tring(2)
    assert init_state(artin_schreier_F(R2), R2).beta == g(R2, Fraction(1, 2))


def test_partial_development_negative_control():
    R = tring()
    st = init_state(classical_F(R), R)
    res = expand(classical_F(R), R, max_terms=4)
    good = res.state
    ok, _ = is_partial_development(good)
    assert ok
    # corrupt the coefficient: t^(3/2) with coefficient 2 is not a development
    from dataclasses import replace
    bad = replace(good, partial=t_pow(R, Fraction(3, 2), 2), status="RUNNING",
                  beta=g(R, 2))
    ok2, report = is_partial_development(bad)
    assert not ok2
    assert any(not entry[2] for entry in report)


# -- residual equations ---------------------------------------------------------------------


def test_residual_classical():
    R = tring()
    st = init_state(classical_F(R), R)
    # X^2 - 1 = 0, root X = 1
    assert [_fraction(c) for c in residual_equation(st)] == [-1, 0, 1]


def test_residual_artin_schreier():
    R = tring(2)
    st = init_state(artin_schreier_F(R), R)
    assert [_fraction(c) for c in residual_equation(st)] == [1, 0, 1]  # X^2 + 1


def test_residual_z_zero_branch():
    # strictly between thresholds the equation keeps the zero root
    R = tring()
    F = ValPoly(R, [-1 * t_pow(R, 3), R.zero(), R.one()])
    st = init_state(F, R)
    st2 = step(st)
    assert st2.status == COMPLETE  # classical case ends at once


# -- full expansions -------------------------------------------------------------------------


def test_expand_classical_puiseux():
    R = tring()
    res = expand(classical_F(R), R, max_terms=10)
    assert res.status == COMPLETE
    assert res.series.to_text() == "t^(3/2)"
    # substitution residual is exactly zero
    assert classical_F(R).eval(res.series).is_exact_zero()


def test_expand_linear_two_steps():
    R = tring()
    F = ValPoly(R, [-(t_pow(R, 1) + t_pow(R, 2)), R.one()])
    res = expand(F, R, max_terms=32)
    assert res.status == COMPLETE
    assert res.series == t_pow(R, 1) + t_pow(R, 2)
    steps = [r for r in res.trace if r["branch"] == "STEP"]
    assert len(steps) == 2


def test_expand_artin_schreier_budget():
    R = tring(2)
    F = artin_schreier_F(R)
    res = expand(F, R, max_terms=8)
    assert res.status == BUDGET
    exps = [e.rational_value() for e, _ in res.series.terms]
    assert exps == [1 - Fraction(1, 2 ** i) for i in range(1, 9)]
    # all coefficients 1
    assert all(c == R.tower.one() for _, c in res.series.terms)
    # precision bound: strictly above the last emitted exponent
    assert res.series.prec is not INF
    assert res.series.prec.rational_value() == 1 - Fraction(1, 2 ** 9)
    # substitution residual: exactly 2 - 2^(-8), at least the 2 - 2^(-7) bound
    resid = F.eval(res.state.partial)
    got = resid.val().rational_value()
    assert got == 2 - Fraction(1, 2 ** 8)
    assert got >= 2 - Fraction(1, 2 ** 7)


def test_expand_artin_schreier_epsilon_chain():
    R = tring(2)
    res = expand(artin_schreier_F(R), R, max_terms=6)
    eps = [e.epsilon for e in res.chain.entries]
    vals = [e.rational_value() for e in eps if e is not INF]
    assert vals == sorted(vals)
    assert vals[:3] == [Fraction(1, 2), Fraction(3, 4), Fraction(7, 8)]


def test_expand_mixed_sqrt_p():
    for p in (3, 5):
        R = pring(p, prec=6)
        F = ValPoly(R, [-1 * t_pow(R, 1), R.zero(), R.one()])  # y^2 - p
        res = expand(F, R, max_terms=6)
        assert res.status == COMPLETE
        assert res.series.to_text() == "p^(1/2)"
        sq = res.series * res.series
        assert sq == t_pow(R, 1)


@pytest.mark.parametrize("witt_prec,budget,terms", [(16, 16, 12), (8, 6, 5)])
def test_expand_notes_a_stop_below_the_working_precision(witt_prec, budget, terms):
    # sqrt(1 + p) over W(F5): the residual sinks below the p-adic working
    # precision before the budget is spent; the state says so, the output not yet
    text = f"p 5\nwitt_prec {witt_prec}\npoly y^2 - 1 - p\n"
    res = _expand_spec(text, budget)
    assert res.status == BUDGET and len(res.state.emitted) == len(res.series.terms) == terms
    assert res.state.note == "residual-below-working-precision"
    spent = _expand_spec(text, terms - 1)
    assert spent.status == BUDGET and spent.state.note == ""


def test_expand_quartic_two_stage():
    # (y^2 - t^3)^2 - t^7: root t^(3/2) + (1/2) t^2 - (1/8) t^(5/2) + ...
    R = tring()
    F = ValPoly(R, [t_pow(R, 6) - t_pow(R, 7), R.zero(),
                    -2 * t_pow(R, 3), R.zero(), R.one()])
    res = expand(F, R, max_terms=3)
    exps = [e.rational_value() for e, _ in res.series.terms]
    cofs = [_fraction(c) for _, c in res.series.terms]
    assert exps == [Fraction(3, 2), Fraction(2), Fraction(5, 2)]
    assert cofs == [1, Fraction(1, 2), Fraction(-1, 8)]
    # cross-check numerically: the root squares to t^3 + t^(7/2)
    s = res.series
    lhs = (s * s).truncate_open(g(R, 4))
    rhs = (t_pow(R, 3) + t_pow(R, Fraction(7, 2))).truncate_open(g(R, 4))
    assert lhs == rhs


def test_expand_square_gap():
    # y^2 - t^3 - t^6: root t^(3/2)(1 + t^3)^(1/2) -> exponents 3/2, 9/2, 15/2
    R = tring()
    F = ValPoly(R, [-(t_pow(R, 3) + t_pow(R, 6)), R.zero(), R.one()])
    res = expand(F, R, max_terms=3)
    exps = [e.rational_value() for e, _ in res.series.terms]
    cofs = [_fraction(c) for _, c in res.series.terms]
    assert exps == [Fraction(3, 2), Fraction(9, 2), Fraction(15, 2)]
    assert cofs == [1, Fraction(1, 2), Fraction(-1, 8)]


def test_expand_transcendental_detection():
    # the residue equation X^3 - 2 has no rational root and no whitelisted shape
    R = tring()
    F = ValPoly(R, [-2 * t_pow(R, 3), R.zero(), R.zero(), R.one()])  # y^3 - 2 t^3
    res = expand(F, R, max_terms=4)
    assert res.status == COMPLETE_TRANSCENDENTAL
    assert res.trace[-1]["branch"] == "TERMINAL"


def test_expand_adjoins_sqrt2_when_allowed():
    R = tring()
    F = ValPoly(R, [-2 * t_pow(R, 2), R.zero(), R.one()])
    res = expand(F, R, max_terms=4)
    assert res.status == COMPLETE
    (e, c), = res.series.terms
    assert e.rational_value() == 1
    assert c * c == c.tower.from_int(2)  # the adjoined sqrt(2)


# -- step invariants ----------------------------------------------------------------------


def test_partial_development_invariant_along_run():
    R = tring(2)
    F = artin_schreier_F(R)
    st = init_state(F, R)
    for _ in range(5):
        ok, rep = is_partial_development(st)
        assert ok, rep
        st = step(st)
        if st.status != "RUNNING":
            break


def test_residual_growth_along_run():
    R = tring(2)
    F = artin_schreier_F(R)
    st = init_state(F, R)
    last = None
    for _ in range(6):
        st = step(st)
        resid = F.eval(st.partial)
        if resid.is_exact_zero():
            break
        v = resid.val()
        if last is not None:
            assert cmp(v, last) > 0
        last = v


# -- mu_beta ---------------------------------------------------------------------------------


def test_mu_beta_of_variable():
    R = tring()
    st = init_state(classical_F(R), R)
    y = ValPoly.variable(R)
    v, attain = st.taylor_of(y).min_at(st.beta)
    assert v == st.beta
    assert attain == [1]


def test_mu_beta_variable_free():
    R = tring()
    st = init_state(classical_F(R), R)
    c = ValPoly.const(t_pow(R, 2, 7))
    v, attain = st.taylor_of(c).min_at(st.beta)
    assert v == g(R, 2)
    assert attain == [0]


def test_mu_beta_matches_truncated_val_at_epsilon():
    # at beta = eps_i the substitution valuation equals the truncated one
    rng = random.Random(1009)
    R = tring(2)
    F = artin_schreier_F(R)
    res = expand(F, R, max_terms=4)
    st = res.state
    from dataclasses import replace
    for i in (1, 2):
        entry = res.chain.entry(i)
        st_i = replace(st, beta=entry.epsilon)
        for _ in range(40):
            coeffs = [t_pow(R, rng.randint(0, 3), rng.randint(0, 1))
                      for _ in range(rng.randint(1, 4))]
            h = ValPoly(R, coeffs)
            if h.is_zero():
                continue
            v_mu, _ = st_i.taylor_of(h).min_at(st_i.beta)
            v_tr, _ = truncated_val(h, res.chain, i)
            if v_tr is INF:
                continue
            assert cmp(v_mu, v_tr) == 0, (i, h.to_text())


# -- the limit stage ---------------------------------------------------------------------------


def limit_corpus_F(R):
    # y^2 + t y + (t + t^3 + t^4): root = (artin-schreier limit) + t^2
    c0 = t_pow(R, 1) + t_pow(R, 3) + t_pow(R, 4)
    return ValPoly(R, [c0, t_pow(R, 1), R.one()])


def test_limit_step_resumes_and_completes():
    R = tring(2)
    F = limit_corpus_F(R)
    res = expand(F, R, max_terms=12)
    assert res.status == COMPLETE
    branches = [r["branch"] for r in res.trace]
    assert "LIMIT" in branches
    # the tail past the accumulation point is exactly t^2
    from genpuiseux.embed import LimitPartial
    assert isinstance(res.state.partial, LimitPartial)
    assert [(e.rational_value(), _fraction(c))
            for e, c in res.state.partial.tails] == [(2, 1)]
    # the materialized head follows the geometric law with coefficient 1:
    # t^(1 - 2^-k) for k = 1..6, and the next exponent is 1 - 2^-7
    head = res.state.partial.head_terms
    assert [e.rational_value() for e, _ in head] == [1 - Fraction(1, 2 ** k)
                                                     for k in range(1, 7)]
    assert all(_fraction(c) == 1 for _, c in head)
    assert res.state.partial.next_exp.rational_value() == Fraction(127, 128)


def test_limit_partial_coerces_with_the_tower():
    from genpuiseux.embed import LimitPartial

    R = tring(2)
    state = expand(limit_corpus_F(R), R, max_terms=12).state
    f4 = R.tower.adjoin((1, 1, 1))  # w^2 + w + 1 = 0
    moved = state.with_tower(f4)
    part = moved.partial
    assert isinstance(part, LimitPartial)
    assert part.ring == moved.ring and part.ring.tower == f4
    assert part.flim == state.partial.flim.coerce(moved.ring)
    assert part.next_exp == state.partial.next_exp
    assert all(c.tower == f4 for _, c in part.head_terms + part.tails)
    assert part.as_series() == state.partial.as_series().coerce(moved.ring)
    # evaluation through the stage polynomial commutes with the coercion
    h = ValPoly(R, [t_pow(R, 1), R.one(), R.one()])
    assert h.coerce(moved.ring).eval(part) == h.eval(state.partial).coerce(moved.ring)


# LimitPartial.eval_valpoly as it was written before it handed its values to
# eval_poly: a loop over the powers of the tail, kept here as the oracle.


def _o_eval_valpoly(lp, P):
    ring = lp.ring
    head = GenSeries(ring, list(lp.head_terms), lp.next_exp, False)
    if not lp.tails:
        _, rem = P.divmod_monic(lp.flim)
        return rem.eval(head)
    tau = GenSeries(ring, list(lp.tails))
    acc = ring.zero()
    tau_pow = ring.one()
    for l in range(0, P.degree() + 1):
        dP = P if l == 0 else P.hasse_derivative(l)
        if not dP.is_zero():
            _, rem = dP.divmod_monic(lp.flim)
            part = rem.eval(head)
            acc = acc + part * tau_pow
        tau_pow = tau_pow * tau
    return acc


def _random_valpoly(ring, rng):
    """Degree 0..4, each coefficient a sum of up to three terms c*t^(k/4)."""
    elems = [CoeffElem(ring.tower, r) for r in ring.tower.enumerate_elements()]
    coeffs = []
    for _ in range(rng.randint(1, 5)):
        c = ring.zero()
        for _ in range(rng.randint(0, 3)):
            c = c + ring.monomial(g(ring, Fraction(rng.randint(0, 12), 4)), rng.choice(elems))
        coeffs.append(c)
    return ValPoly(ring, coeffs)


def test_limit_partial_evaluation_matches_the_tail_power_loop():
    from genpuiseux.embed import LimitPartial

    R = tring(2)
    state = expand(limit_corpus_F(R), R, max_terms=12).state
    rng = random.Random(20)
    for st in (state, state.with_tower(R.tower.adjoin((1, 1, 1)))):
        lp = st.partial
        assert lp.tails  # the limit state carries a tail past the accumulation
        untailed = LimitPartial(lp.ring, lp.flim, lp.head_terms, lp.next_exp)
        polys = ([st.F] + [e.poly for e in st.chain.entries]
                 + [_random_valpoly(st.ring, rng) for _ in range(20)])
        for point in (lp, untailed):
            for P in polys:
                got, want = P.eval(point), _o_eval_valpoly(point, P)
                assert len(got._raw) == len(want._raw)
                assert all(e1 == e2 and c1 == c2
                           for (e1, c1), (e2, c2) in zip(got._raw, want._raw))
                assert cmp(got._raw_prec, want._raw_prec) == 0
                assert got._raw_closed == want._raw_closed


def test_limit_step_identity_on_finite_stream():
    R = tring()
    res = expand(classical_F(R), R, max_terms=4)
    assert limit_step(res.state) == res.state or limit_step(res.state).status == COMPLETE


def test_limit_step_unregistered_pattern():
    from dataclasses import replace
    from genpuiseux.embed import limit_signature

    R = tring(2)
    F = limit_corpus_F(R)
    st = init_state(F, R)
    for _ in range(12):
        if limit_signature(st) is not None:
            break
        st = step(st)
    assert limit_signature(st) is not None
    # increments not geometric: no limit is detected, and limit_step is the
    # identity on the state
    irregular = replace(st, emitted=tuple(
        [(g(R, Fraction(1, 2)), R.coeffs.from_int(1)),
         (g(R, Fraction(3, 4)), R.coeffs.from_int(1)),
         (g(R, Fraction(15, 16)), R.coeffs.from_int(1))]))
    assert limit_signature(irregular) is None
    assert limit_step(irregular) is irregular


def test_limit_step_reads_the_last_three_coefficients_over_f4():
    # over F4 a coefficient can be other than 1: the repeat test reads the
    # last three emitted terms, and no term before them
    R = tring(2)
    st = init_state(limit_corpus_F(R), R)
    while embed.limit_signature(st) is None:
        st = step(st)
    assert len(st.emitted) == 3
    moved = st.with_tower(R.tower.adjoin((1, 1, 1)))  # w^2 + w + 1 = 0
    w = CoeffElem.generator(moved.ring.tower)
    one = moved.emitted[-1][1]
    assert w != one
    # a term with coefficient w before the three still hands off
    earlier = replace(moved, emitted=((g(R, Fraction(1, 4)), w),) + moved.emitted)
    assert limit_step(earlier).trace[-1]["branch"] == "LIMIT"
    # w as the last of the three is no repeat
    last = replace(moved, emitted=moved.emitted[:-1] + ((moved.emitted[-1][0], w),))
    with pytest.raises(UnsupportedLimitPattern, match="coefficients do not repeat"):
        limit_step(last)


def test_unregistered_pattern_is_stepped_through():
    # exponents 1/3, 2/3, 7/9 are geometric, but the coefficients 1, 1, 2 do
    # not repeat: no registered pattern matches, and expand steps on
    spec = cli.parse_problem("p 3\nwitt_prec 12\npoly y^3 - p - p^2\n")
    ring = cli.build_ring(spec)
    F = cli.build_valpoly(spec, ring)
    for budget in (8, 12):
        res = expand(F, ring, max_terms=budget)
        assert res.status == BUDGET and len(res.state.emitted) == budget
        assert {r["branch"] for r in res.trace} == {"STEP"}
    assert [(e.rational_value(), c.residue().to_text())
            for e, c in res.state.emitted[:4]] == [
        (Fraction(1, 3), "1"), (Fraction(2, 3), "1"), (Fraction(7, 9), "2"),
        (Fraction(22, 27), "1")]
    # limit_step called on such a state still refuses it
    st = init_state(F, ring)
    while embed.limit_signature(st) is None:
        st = step(st)
    with pytest.raises(UnsupportedLimitPattern, match="coefficients do not repeat"):
        limit_step(st)


# -- valuation preservation (the embedding contract) --------------------------------------------


def test_valuation_preservation_random():
    rng = random.Random(2027)
    corpora = []
    R1 = tring()
    corpora.append((R1, classical_F(R1), 0))
    R2 = tring(2)
    corpora.append((R2, artin_schreier_F(R2), 2))
    R3 = tring()
    corpora.append((R3, ValPoly(R3, [-(t_pow(R3, 1) + t_pow(R3, 2)), R3.one()]), 0))
    for R, F, char in corpora:
        res = expand(F, R, max_terms=10)
        root = res.state.partial
        chain = res.chain
        last = len(chain)
        checked = 0
        tries = 0
        while checked < 200 and tries < 2000:
            tries += 1
            coeffs = []
            for _ in range(rng.randint(1, 3)):
                c = rng.randint(0, char - 1) if char else rng.randint(-4, 4)
                coeffs.append(t_pow(R, rng.randint(0, 4), c) if c else R.zero())
            h = ValPoly(R, coeffs)
            if h.is_zero():
                continue
            v_chain, _ = truncated_val(h, chain, last)
            ev = h.eval(root)
            if ev.is_exact_zero():
                continue
            try:
                v_emb = ev.val()
            except Exception:
                continue
            if v_chain is INF:
                continue
            # both determinate: they must agree exactly
            if res.status == BUDGET and cmp(v_chain, res.state.beta) >= 0:
                continue  # beyond the computed precision
            assert cmp(v_chain, v_emb) == 0, (h.to_text(), v_chain, v_emb)
            checked += 1
        assert checked >= 200


def test_structural_multivariable_lower_embeddings():
    # three-variable shape: expand u3 over coefficients involving an already
    # embedded second variable (u2 -> t^(3/2)); root of u3^2 - u1*u2 is t^(5/4)
    R = tring()
    emb = {"t": R.uniformizer(), "u2": t_pow(R, Fraction(3, 2))}
    F = cli.read_poly(R, "u3^2 - t*u2", emb, "u3")
    assert F.degree() == 2
    res = expand(F, R, max_terms=6)
    assert res.status == COMPLETE
    assert res.series.to_text() == "t^(5/4)"
    assert F.eval(res.series).is_exact_zero()


def test_mixed_residue_extension_digit_unfolding():
    # y^2 - 2p over Q_3: the residue root needs F_9; the unit sqrt(2) unfolds
    # one Witt digit per step until the working precision is exhausted
    R = pring(3, prec=6)
    F = ValPoly(R, [R.monomial(g(R, 1), -2), R.zero(), R.one()])
    res = expand(F, R, max_terms=10)
    assert res.status == BUDGET
    assert res.series.ring.tower.height == 1  # extended to F_9
    exps = [e.rational_value() for e, _ in res.series.terms]
    assert exps == [Fraction(1, 2), Fraction(3, 2), Fraction(5, 2)]
    # the square reproduces 2p exactly within the attained precision
    sq = res.series * res.series
    target = res.series.ring.monomial(g(R, 1), 2)
    assert not (sq - target).terms
    # chain constants refine the defining coefficient digit by digit
    last = res.chain.entries[-1].poly
    assert last.degree() == 2


def test_wild_char3_exponent_recursion():
    # y^3 - t*y - t over F_3: cubing is additive, so substituting the leading
    # term gives the exponent recursion e_{k+1} = (1 + e_k)/3 starting at 1/3
    R = tring(3)
    F = ValPoly(R, [-1 * t_pow(R, 1), -1 * t_pow(R, 1), R.zero(), R.one()])
    res = expand(F, R, max_terms=6)
    assert res.status == BUDGET
    exps = [e.rational_value() for e, _ in res.series.terms]
    want = []
    e = Fraction(1, 3)
    for _ in range(6):
        want.append(e)
        e = (1 + e) / 3
    assert exps == want
    # residual climbs strictly and the epsilon chain increases strictly
    eps = [x.epsilon.rational_value() for x in res.chain.entries
           if x.epsilon is not INF]
    assert eps == sorted(eps) and len(set(eps)) == len(eps)


# -- the carried Taylor vector -----------------------------------------------------------

# problem text, steps taken, residue tower height reached
CARRIED = {
    "as-f2": ("char 2\npoly y^2 + t*y + t\n", 24, 0),  # the chain grows every step
    "cube-q": ("char 0\npoly y^3 - t - t^2\n", 12, 1),  # moves into Q(w)
    "sq-f3": ("char 3\npoly y^2 - 2*t - t^2\n", 16, 1),  # moves into F9
    "r2-q": ("char 0\nweights 1 0+1*sqrt(2)\nsqrt_disc 2\nlower_vars u2\n"
             "poly y^2 - t - u2\n", 16, 0),
    # mixed characteristic, F with single-digit coefficients: no carry clamps
    "p3": ("p 3\nwitt_prec 8\npoly y^2 + p*y + p\n", 16, 1),  # moves into W(F9)
    "p5": ("p 5\nwitt_prec 6\npoly y^3 + p^2*y + p\n", 9, 0),
    "p2": ("p 2\nwitt_prec 10\npoly y^2 + p*y + p + p^3\n", 16, 0),
    # multi-digit coefficients mod p^N, whose carry clamps F's precision; the
    # 15th step of p5-carry sinks below the working precision, and the 8th of
    # p3-2p exhausts the stage data
    "p5-carry": ("p 5\nwitt_prec 16\npoly y^2 - 1 - p\n", 13, 0),
    "p3-2p": ("p 3\nwitt_prec 8\npoly y^2 - 2*p\n", 7, 1),
}


def _spec_state(text):
    spec = cli.parse_problem(text)
    ring = cli.build_ring(spec)
    F = cli.build_valpoly(spec, ring)
    return init_state(F, ring)


def _count_evaluations(monkeypatch):
    """The points at which embed evaluates a Taylor vector afresh, counted by
    a subclass patched in for ``embed.TaylorVector``; a shift or a coerce
    builds its vector inside ``keypoly`` and is not counted."""
    evaluations = []

    class Counted(TaylorVector):
        def __init__(self, P, s, lowest=0):
            evaluations.append(s)
            super().__init__(P, s, lowest)

    monkeypatch.setattr(embed, "TaylorVector", Counted)
    return evaluations


@pytest.mark.parametrize("name", sorted(CARRIED))
def test_carried_taylor_vector_matches_horner(name, monkeypatch):
    text, steps, height = CARRIED[name]
    evaluations = _count_evaluations(monkeypatch)
    state = _spec_state(text)
    for _ in range(steps):
        assert state.status == RUNNING
        state = step(state)
        assert state.taylor.is_of(state.F, state.partial)
        carried = state.taylor.entries
        horner = TaylorVector(state.F, state.partial).entries
        assert carried == horner
        assert [h.to_text() for h in carried] == [h.to_text() for h in horner]
    # only the zero partial was evaluated; every later vector is a shift
    assert len(evaluations) == 1 and evaluations[0].is_exact_zero()
    assert len(state.emitted) >= steps // 2
    assert state.ring.tower.height == height


def test_series_partial_shifts_and_limit_partial_reevaluates(monkeypatch):
    from genpuiseux.embed import LimitPartial

    evaluations = _count_evaluations(monkeypatch)
    R = tring(0)
    inexact = GenSeries(R, [(g(R, 1), R.tower.from_int(-1))], g(R, 4))
    # a series partial shifts on any data: t-adic, a p-adic carry (-1 is
    # multi-digit mod p^N) and a finite-precision coefficient alike
    for state in (_spec_state(CARRIED["as-f2"][0]),
                  _spec_state("p 5\nwitt_prec 16\npoly y^2 - 1 - p\n"),
                  init_state(ValPoly(R, [inexact, R.zero(), R.one()]), R)):
        moved = state.with_term(state.ring.coeffs.one())
        assert moved.taylor.point is moved.partial
        assert moved.taylor_vector().entries == TaylorVector(moved.F, moved.partial).entries
    assert len(evaluations) == 3 and all(s.is_exact_zero() for s in evaluations)

    # a limit partial is evaluated afresh after its hand-off and every term
    R2 = tring(2)
    state = init_state(limit_corpus_F(R2), R2)
    while not isinstance(state.partial, LimitPartial):
        limited = limit_step(state)
        state = step(state) if limited is state else limited
    del evaluations[:]
    assert state.taylor_vector().entries[0] == state.F.eval(state.partial)
    moved = state.with_term(R2.coeffs.one())
    assert moved.taylor is None
    assert moved.taylor_vector().entries[0] == moved.F.eval(moved.partial)
    assert [type(s) for s in evaluations] == [LimitPartial, LimitPartial]


def _spanning_residual(state):
    """The residue equation as formed with the exact span solve of beta over
    the weights plus every earlier beta.  At full rank the weights are the
    solve's pivot columns, so its solution is beta's own coordinates, and
    the equation reads the Taylor ties alone.  Returns the equation."""
    _, ties = state.taylor_of(state.F).min_at(state.beta)
    tower = state.ring.tower
    eq = {l: state.ring.coeffs.residue(state.taylor_vector().entries[l].leading_term()[1])
          for l in ties}
    return [eq.get(l, tower.zero()) for l in range(max(eq) + 1)]


FULL_RANK_RUNS = {
    "as-f2": ("char 2\npoly y^2 + t*y + t\n", 24),
    "sq-q": ("char 0\npoly y^2 - 1 - t\n", 16),
    "sq-f3": ("char 3\npoly y^2 - 2*t - t^2\n", 16),  # moves into F9
    "p5": ("p 5\nwitt_prec 16\npoly y^2 - 1 - p\n", 16),
    "r2-q": (CARRIED["r2-q"][0], 16),  # rank 2
}


@pytest.mark.parametrize("name", sorted(FULL_RANK_RUNS))
def test_residual_equation_reads_beta_without_a_span_solve(name):
    text, budget = FULL_RANK_RUNS[name]
    state = _spec_state(text)
    compared = 0
    while state.status == RUNNING and len(state.emitted) < budget:
        if embed.limit_signature(state) is not None:
            state = limit_step(state)
            continue
        try:
            want = _spanning_residual(state)
        except ValuationIndeterminate:
            with pytest.raises(ValuationIndeterminate):
                residual_equation(state)
            break
        assert residual_equation(state) == want
        compared += 1
        try:
            state = step(state)
        except ValuationIndeterminate:
            break  # below the p-adic working precision, where expand stops too
    assert compared >= budget // 2


def test_replaced_chain_or_beta_never_reads_a_stale_stage():
    state = _spec_state(CARRIED["cube-q"][0])
    for _ in range(3):
        state = step(state)
    assert state.i_beta == state.i_beta == len(state.chain) == 4
    shorter = KeyPolyChain(state.ring, state.chain.entries[:2])
    swapped = replace(state, chain=shorter)
    assert swapped.i_beta == shorter.index_for(state.beta) == 3
    lowered = replace(swapped, beta=shorter.entry(1).epsilon)
    assert lowered.i_beta == 1
    assert state.i_beta == 4


def test_swapped_partial_never_reads_a_stale_vector():
    state = _spec_state(CARRIED["cube-q"][0])
    for _ in range(3):
        state = step(state)
    stale = state.taylor_vector()
    other = state.partial + state.ring.monomial(state.beta, 1)
    swapped = replace(state, partial=other)
    assert swapped.eval_at_partial(swapped.F) == swapped.F.eval(other)
    assert swapped.eval_at_partial(swapped.F) != stale.entries[0]
    assert swapped.taylor_vector().is_of(swapped.F, other)
    assert swapped.taylor_vector().entries == TaylorVector(swapped.F, other).entries


# -- the derivative-level table of a chain entry ------------------------------------------

# problem text, term budget, residue tower height reached
LEVELS = {
    "as-f2": ("char 2\npoly y^2 + t*y + t\n", 12, 0),  # the chain grows every step
    "sq-f3": ("char 3\npoly y^2 - 2*t - t^2\n", 8, 1),  # coerced into F9
    "cube-q": ("char 0\npoly y^3 - t - t^2\n", 6, 1),  # moves into Q(w)
    "p5": ("p 5\nwitt_prec 16\npoly y^2 - 1 - p\n", 8, 0),  # p-adic
    "r2-f2": ("char 2\nweights 1 0+1*sqrt(2)\nsqrt_disc 2\nlower_vars u2\n"
              "poly y^2 + t*y + u2\n", 8, 0),  # weights in Q(sqrt 2)
}


def _levels_by_hand(chain, i):
    """(b, nu(D_{p^b} Q_i)) from the Hasse derivatives, read through stage i - 1."""
    q = chain.entry(i).poly
    p = chain.ring.char_exponent
    orders = [1] if p == 1 else [p ** b for b in range(q.degree()) if p ** b <= q.degree()]
    out = []
    for b, m in enumerate(orders):
        dq = q.hasse_derivative(m)
        if dq.is_zero():
            continue
        v, _ = truncated_val(dq, chain, i - 1)
        if v is not INF:
            out.append((b, v))
    return out


def _largest_drop(levels, p, value):
    drops = [(b, INF if value is INF else (value - v).scale_unchecked(Fraction(1, p ** b)))
             for b, v in levels]
    top = max((d for _, d in drops), key=cmp_to_key(cmp))
    return min(b for b, d in drops if cmp(d, top) == 0), top


@pytest.mark.parametrize("name", sorted(LEVELS))
def test_chain_levels_match_derivatives(name):
    text, budget, height = LEVELS[name]
    spec = cli.parse_problem(text)
    ring = cli.build_ring(spec)
    F = cli.build_valpoly(spec, ring)
    res = expand(F, ring, max_terms=budget)
    chain = res.chain
    p = ring.char_exponent
    assert chain.ring.tower.height == height
    assert len(chain) >= 3
    for i, e in enumerate(chain.entries, start=1):
        levels = _levels_by_hand(chain, i)
        assert list(e.levels) == levels, (i, e.poly.to_text())
        b, eps = _largest_drop(levels, p, e.beta)
        assert e.b_order == b and (eps is INF and e.epsilon is INF or e.epsilon == eps)
        assert e.epsilon_for(e.beta) == (e.b_order, e.epsilon)
        assert e.epsilon_for(INF) == (levels[0][0], INF)
        if e.beta is not INF:
            later = e.beta + ring.descriptor.from_rational(Fraction(1, 3))
            assert e.epsilon_for(later) == _largest_drop(levels, p, later)


# -- values read at the stage the degree selects ------------------------------------------

# problem text, term budget, whether the chain re-pins a polynomial
STAGES = {
    "as-f2": ("char 2\npoly y^2 + t*y + t\n", 24, True),
    "cube-q": ("char 0\npoly y^3 - t - t^2\n", 12, True),  # moves into Q(w)
    "sq-f3": ("char 3\npoly y^2 - 2*t - t^2\n", 16, True),  # moves into F9
    "p5": ("p 5\nwitt_prec 16\npoly y^2 - 1 - p\n", 16, False),
    "r2-q": ("char 0\nweights 1 0+1*sqrt(2)\nsqrt_disc 2\nlower_vars u2\n"
             "poly y^2 - t - u2\n", 16, True),
}


def _one_stage_val(f, chain, i):
    """The truncated value through stages <= i, passed down one stage at a time."""
    if f.is_zero():
        return INF
    if f.degree() == 0:
        return f.coeffs[0].val()
    beta = chain.entry(i).beta
    best = None
    for j, c in enumerate(standard_expansion(f, chain.entry(i).poly)):
        cv = _one_stage_val(c, chain, i - 1)
        if cv is INF:
            continue
        total = cv if j == 0 else (INF if beta is INF else beta.scale_unchecked(j) + cv)
        if total is not INF and (best is None or cmp(total, best) < 0):
            best = total
    return INF if best is None else best


@pytest.mark.parametrize("name", sorted(STAGES))
def test_stage_selected_values_match_one_stage_recursion(name):
    text, budget, repins = STAGES[name]
    spec = cli.parse_problem(text)
    ring = cli.build_ring(spec)
    F = cli.build_valpoly(spec, ring)
    res = expand(F, ring, max_terms=budget)
    chain, F = res.chain, res.state.F
    p = ring.char_exponent
    entries = chain.entries
    assert any(b.poly == a.poly for a, b in zip(entries, entries[1:])) == repins
    for i, e in enumerate(entries, start=1):
        d = e.poly.degree()
        orders = [1] if p == 1 else [p ** b for b in range(d) if p ** b <= d]
        levels = []
        for b, m in enumerate(orders):
            v = _one_stage_val(e.poly.hasse_derivative(m), chain, i - 1)
            if v is not INF:
                levels.append((b, v))
        assert list(e.levels) == levels, (i, e.poly.to_text())
        b, eps = _largest_drop(levels, p, e.beta)
        assert e.b_order == b and (eps is INF and e.epsilon is INF or e.epsilon == eps)
        for h in [F] + [F.hasse_derivative(m) for m in range(1, F.degree() + 1)]:
            want = _one_stage_val(h, chain, i)
            got = truncated_val(h, chain, i)[0]
            assert got is INF and want is INF or got == want, (i, h.to_text())


# -- the expansion of F kept on a chain entry ---------------------------------------------

# problem text, term budget, residue tower height reached
KEPT = {
    "p5": ("p 5\nwitt_prec 16\npoly y^2 - 1 - p\n", 16, 0),  # a new polynomial each time
    "p3-2p": ("p 3\nwitt_prec 8\npoly y^2 - 2*p\n", 10, 1),  # moves into W(F9)
    "cube-q": ("char 0\npoly y^3 - t - t^2\n", 12, 1),  # moves into Q(w)
    "sq-f3": ("char 3\npoly y^2 - 2*t - t^2\n", 16, 1),  # moves into F9
    "r2-q": (CARRIED["r2-q"][0], 16, 0),  # rank 2
}
ENTRY_FIELDS = ("poly", "beta", "b_order", "epsilon", "alpha", "levels")


def _expand_spec(text, budget):
    spec = cli.parse_problem(text)
    ring = cli.build_ring(spec)
    return expand(cli.build_valpoly(spec, ring), ring, max_terms=budget)


@pytest.mark.parametrize("name", sorted(KEPT))
def test_kept_expansion_extends_as_a_fresh_one(name, monkeypatch):
    extend = embed.extend_chain
    reads = []

    def both(chain, F, at):
        last = chain.entries[-1]
        fresh = KeyPolyChain(chain.ring, chain.entries[:-1]
                             + (replace(last, expansion=None),))
        try:
            want = extend(fresh, F, at)
        except (ChainComplete, ValuationIndeterminate) as exc:
            with pytest.raises(type(exc)):
                extend(chain, F, at)
            raise
        got = extend(chain, F, at)
        reads.append((last.poly != F, last.expansion is not None and last.expansion[0] is F))
        a, b = got.entries[-1], want.entries[-1]
        for field in ENTRY_FIELDS:
            assert getattr(a, field) == getattr(b, field), field
        return got

    monkeypatch.setattr(embed, "extend_chain", both)
    text, budget, height = KEPT[name]
    res = _expand_spec(text, budget)
    # every extension after the first that forms a new polynomial reads the
    # expansion the one before it kept; a re-pinned F expands nothing
    assert reads[0] == (True, False) and reads[1] == (True, True)
    assert all(forms == read for forms, read in reads[1:])
    assert res.chain.ring.tower.height == height


def _is_constant_refinement(last, new, F):
    """Whether the new entry's polynomial is the last one's plus a constant."""
    return (last.poly != F and new.poly != F and new.poly.degree() == last.poly.degree()
            and (new.poly - last.poly).degree() == 0)


def test_an_extension_expands_F_only_for_a_non_constant_refinement(monkeypatch):
    expand_in = keypoly.standard_expansion
    counts = []

    def counted(f, q):
        if f is F:
            counts[-1][1] += 1
        return expand_in(f, q)

    def extend(chain, *args):
        counts.append([None, 0])
        out = extend_chain(chain, *args)
        counts[-1][0] = _is_constant_refinement(chain.entries[-1], out.entries[-1], F)
        return out

    text, budget, _ = KEPT["p5"]
    spec = cli.parse_problem(text)
    ring = cli.build_ring(spec)
    F = cli.build_valpoly(spec, ring)
    monkeypatch.setattr(keypoly, "standard_expansion", counted)
    monkeypatch.setattr(embed, "extend_chain", extend)
    expand(F, ring, max_terms=budget)
    # the first extension expands F in Q_1 and in the new polynomial; a later
    # one reads the expansion in Q_i that the extension before it kept, and
    # expands F in the new polynomial only when it is not Q_i plus a constant,
    # whose expansion (D_i - c*r, 1) it writes down
    assert len(counts) > 8 and counts[0] == [False, 2]
    assert sum(constant for constant, _ in counts) >= 8
    assert all(n == (0 if constant else 1) for constant, n in counts[1:])


def _raw(s):
    return s._raw, s._raw_prec, s._raw_closed


CONSTANT_REFINEMENTS = {
    "p5@3": ("p 5\nwitt_prec 3\npoly y^2 - 1 - p\n", 16),
    "p5@8": ("p 5\nwitt_prec 8\npoly y^2 - 1 - p\n", 16),
    "p5@16": ("p 5\nwitt_prec 16\npoly y^2 - 1 - p\n", 16),
    "p3-2p": ("p 3\nwitt_prec 8\npoly y^2 - 2*p\n", 10),
    "p5-4": ("p 5\npoly y^2 - 4 - p\n", 16),
    "p3-cube": ("p 3\nwitt_prec 12\npoly y^3 - p - p^2\n", 16),
}


@pytest.mark.parametrize("name", sorted(CONSTANT_REFINEMENTS))
def test_constant_refinement_closed_forms_equal_the_generic_path(name, monkeypatch):
    """Oracle for the F = D + Q rule: at every extension whose new polynomial
    is the last one plus a constant, the readings F(partial) - D of Q_i and of
    q_new have the raw terms and precision of evaluating them, the written
    expansion (D_i - c*r, 1) has those of dividing F by q_new, the shared
    level table is the one the Hasse derivatives give, and the chain a fresh
    (unkept) entry extends to has the same q_new."""
    seen = []

    def checked(chain, F, at):
        out = extend_chain(chain, F, at)
        last, new = chain.entries[-1], out.entries[-1]
        if not _is_constant_refinement(last, new, F):
            return out
        partial, f_at_partial = at.__self__.partial, at(F)
        assert partial.raw_exact() and f_at_partial.raw_exact()
        gap = last.kept_constant(F)
        assert gap is not None
        assert _raw(at(last.poly, last)) == _raw(f_at_partial - gap)
        assert _raw(f_at_partial - gap) == _raw(last.poly.eval(partial))
        new_gap = new.kept_constant(F)
        assert new_gap is not None
        assert _raw(f_at_partial - new_gap) == _raw(new.poly.eval(partial))
        kept, divided = new.expansion[1], standard_expansion(F, new.poly)
        assert len(kept) == len(divided) == 2
        for a, b in zip(kept, divided):
            assert [_raw(c) for c in a.coeffs] == [_raw(c) for c in b.coeffs]
        p = out.ring.char_exponent
        assert p > 1  # mixed characteristic: the orders p^b <= deg are b < deg
        levels = [(b, truncated_val(new.poly.hasse_derivative(p ** b), chain, len(chain))[0])
                  for b in range(new.poly.degree()) if p ** b <= new.poly.degree()]
        assert new.levels == tuple((b, v) for b, v in levels if v is not INF)
        fresh = KeyPolyChain(chain.ring, chain.entries[:-1]
                             + (replace(last, expansion=None),))
        generic = extend_chain(fresh, F, at).entries[-1]
        assert [_raw(c) for c in new.poly.coeffs] == [_raw(c) for c in generic.poly.coeffs]
        assert new == generic
        seen.append(name)
        return out

    monkeypatch.setattr(embed, "extend_chain", checked)
    _expand_spec(*CONSTANT_REFINEMENTS[name])
    assert seen


# reducible F: a kept expansion (D, c_1) with c_1 of positive degree, as
# y^3 - t*y + t^5 = t^5 + y*(y^2 - t), must not be read as F = D + Q
REDUCIBLE = {
    "t-cubic": "char 0\npoly y^3 - t*y + t^5\n",
    "t-cubic-4": "char 0\npoly y^3 - 4*t*y + t^5\n",
    "p-cubic": "p 5\npoly y^3 - p*y + p^5\n",
}


@pytest.mark.parametrize("name", sorted(REDUCIBLE))
def test_reducible_input_expands_as_without_the_constant_gap_rule(name, monkeypatch):
    def outputs():
        res = _expand_spec(REDUCIBLE[name], 12)
        return res.series.to_text(), res.status, res.chain.report(), res.trace_lines()

    with_rule = outputs()
    monkeypatch.setattr(keypoly.ChainEntry, "kept_constant", lambda self, F: None)
    assert outputs() == with_rule


def test_eval_at_partial_reads_a_kept_key_polynomial_as_the_head_less_D(monkeypatch):
    R = tring()
    # F = t^5 + Q_2 with Q_2 = y^2 - 4t, read at the partial 2t^(1/2) + t^3
    F = ValPoly(R, [t_pow(R, 5) - 4 * t_pow(R, 1), R.zero(), R.one()])
    state = replace(init_state(F, R), partial=t_pow(R, Fraction(1, 2), 2) + t_pow(R, 3))
    entry = extend_chain(state.chain, F, state.eval_at_partial).entries[-1]
    D = entry.kept_constant(F)
    assert D == t_pow(R, 5)
    head = state.eval_at_partial(F)
    evaluated = []
    plain = ValPoly.eval

    def counted(self, s):
        evaluated.append(self)
        return plain(self, s)

    monkeypatch.setattr(ValPoly, "eval", counted)
    assert state.eval_at_partial(entry.poly, entry) == head - D
    assert not evaluated and (head - D).terms
    # without the entry, or at a partial of finite raw precision, Q_2 is evaluated
    assert state.eval_at_partial(entry.poly) == head - D
    assert evaluated == [entry.poly]
    cut = replace(state, partial=GenSeries(R, state.partial.terms, g(R, 9)))
    assert not cut.partial.raw_exact()
    assert cut.eval_at_partial(entry.poly, entry) == plain(entry.poly, cut.partial)
    assert evaluated[-2:] == [entry.poly, entry.poly]


def test_coerced_chain_drops_the_kept_expansions():
    chain = _expand_spec(*KEPT["p5"][:2]).chain
    assert chain.entries[-1].expansion is not None
    ring = chain.ring.with_tower(chain.ring.tower.adjoin((3, 0, 1)))  # X^2 - 2 over F_5
    coerced = chain.coerce(ring)
    assert coerced.ring is ring and len(coerced) == len(chain)
    for a, b in zip(coerced.entries, chain.entries):
        assert a.expansion is None and a.poly.ring is ring
        assert all(getattr(a, field) == getattr(b, field) for field in ENTRY_FIELDS[1:])
