import random
from fractions import Fraction

import pytest

from genpuiseux.cli import parse_problem, run_expand
from genpuiseux.coeff import FieldTower
from genpuiseux.errors import ChainExhausted, PrecisionExceeded
from genpuiseux.groups import INF, GroupDescriptor, cmp, gmin
from genpuiseux.keypoly import ValPoly
from genpuiseux.series import GenSeries, SeriesRing
from genpuiseux.embed import expand
from genpuiseux.truncalg import (
    ProductTree,
    TruncLeaf,
    TruncationDecomposition,
    integral_dependence,
    _derivative_levels,
    multi_product_truncation,
    product_truncation,
    taylor_form,
)


def tring(char=0):
    desc = GroupDescriptor([1])
    tower = FieldTower.prime_field(char) if char else FieldTower.rationals()
    return SeriesRing(desc, tower)


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


def same_terms_below(a, b, lam):
    ta = [t for t in a.terms if cmp(t[0], lam) < 0]
    tb = [t for t in b.terms if cmp(t[0], lam) < 0]
    return ta == tb


# -- Prop caltron -------------------------------------------------------------------------


def test_product_truncation_example():
    R = tring()
    one = R.one()
    gg = one + t_pow(R, 1)
    h = one + t_pow(R, 1) + t_pow(R, 2)
    lam = g(R, 2)
    decomp = product_truncation(gg, h, lam)
    direct = (gg * h).truncate_open(lam)
    assert same_terms_below(decomp.evaluate(gg, h), direct, lam)
    # the example product is 1 + 2t + 2t^2 + ...; below 2 that is 1 + 2t
    assert [(e.rational_value(), _fraction(c)) for e, c in direct.terms] \
        == [(0, 1), (1, 2)]


def test_product_truncation_monomial_factor():
    R = tring()
    a = g(R, 2)
    gg = t_pow(R, 2)
    h = R.one() + t_pow(R, 1) + t_pow(R, 3)
    lam = g(R, 4)
    decomp = product_truncation(gg, h, lam)
    assert len(decomp.deltas) == 1
    assert decomp.deltas[0] == lam - a
    assert same_terms_below(decomp.evaluate(gg, h),
                            (gg * h).truncate_open(lam), lam)


def test_product_truncation_sweep_bounds():
    # the chosen sequences satisfy lambda_l <= lam - v(h), delta_1 <= lam - v(g)
    rng = random.Random(811)
    R = tring()
    for _ in range(1000):
        def rand_series():
            exps = rng.sample(range(0, 14), rng.randint(1, 6))
            return GenSeries(R, [(g(R, Fraction(e, 2)),
                                  R.coeffs.from_int(rng.randint(1, 9)))
                                 for e in exps])

        gg, h = rand_series(), rand_series()
        lam_q = Fraction(rng.randint(2, 18), 2)
        lam = g(R, lam_q)
        if cmp(gg.val() + h.val(), lam) >= 0:
            continue
        decomp = product_truncation(gg, h, lam)
        assert cmp(decomp.lambdas[-1], lam - h.val()) == 0
        assert cmp(decomp.deltas[0], lam - gg.val()) == 0
        for a, b in zip(decomp.lambdas, decomp.lambdas[1:]):
            assert cmp(a, b) < 0
        for a, b in zip(decomp.deltas, decomp.deltas[1:]):
            assert cmp(a, b) > 0
        lhs = decomp.evaluate(gg, h)
        rhs = (gg * h).truncate_open(lam)
        assert same_terms_below(lhs, rhs, lam)


def test_an_empty_slice_adds_nothing_to_a_tree():
    # g has no term in [1, 3): that piece is the exact zero times h(1)
    R = tring()
    gg, h = t_pow(R, 0) + t_pow(R, 3), t_pow(R, 0) + t_pow(R, 1) + t_pow(R, 2)
    pieces = [(g(R, 0), g(R, 1), TruncLeaf(1, g(R, 2))),
              (g(R, 1), g(R, 3), TruncLeaf(1, g(R, 1))),
              (g(R, 3), g(R, 4), TruncLeaf(1, g(R, 1)))]
    assert not gg.slice(g(R, 1), g(R, 3)).terms
    value = ProductTree(0, pieces).evaluate([gg, h])
    assert value == ProductTree(0, pieces[::2]).evaluate([gg, h])
    assert value == t_pow(R, 0) + t_pow(R, 1) + t_pow(R, 3) and value.prec is INF


def test_product_truncation_char2_series():
    rng = random.Random(813)
    R = tring(2)
    for _ in range(300):
        def rand_series():
            exps = rng.sample(range(0, 12), rng.randint(1, 5))
            return GenSeries(R, [(g(R, Fraction(e, 4)), R.coeffs.from_int(1))
                                 for e in exps])

        gg, h = rand_series(), rand_series()
        lam = g(R, Fraction(rng.randint(4, 16), 4))
        if cmp(gg.val() + h.val(), lam) >= 0:
            continue
        decomp = product_truncation(gg, h, lam)
        assert same_terms_below(decomp.evaluate(gg, h),
                                (gg * h).truncate_open(lam), lam)


def _quadratic_sweep(g, h, lam):
    """The sweep of Prop caltron straight from its definition: every
    (eps, theta) pair is tested at every step."""
    vg, vh = g.val(), h.val()
    supp_g = [e for e, _ in g.terms]
    supp_h = [e for e, _ in h.terms]
    bound = lam - vh
    lambdas = [vg]
    deltas = []
    while cmp(lambdas[-1], bound) < 0:
        lam_q = lambdas[-1]
        deltas.append(lam - lam_q)
        b_q = [eps for eps in supp_g
               if any(cmp(theta + lam_q, lam) < 0 and cmp(lam, theta + eps) <= 0
                      for theta in supp_h)]
        if not b_q:
            # final sweep slice up to the bound keeps the identity exact
            lambdas.append(bound)
            break
        lambdas.append(gmin(bound, *b_q))
    return TruncationDecomposition(lambdas, deltas)


def test_product_truncation_matches_the_quadratic_sweep():
    rng = random.Random(2107)
    R = tring()

    def rand_exponent():
        return g(R, Fraction(rng.randint(-3, 18), rng.randint(1, 3)))

    def rand_series():
        return GenSeries(R, [(rand_exponent(), R.coeffs.from_int(rng.randint(1, 9)))
                             for _ in range(rng.randint(1, 7))])

    checked = 0
    for _ in range(1500):
        gg, h, lam = rand_series(), rand_series(), rand_exponent()
        if cmp(gg.val() + h.val(), lam) >= 0:
            continue
        expected = _quadratic_sweep(gg, h, lam)
        got = product_truncation(gg, h, lam)
        assert got.lambdas == expected.lambdas
        assert got.deltas == expected.deltas
        checked += 1
    assert checked > 500


def test_multi_product_single_factor():
    R = tring()
    f = R.one() + t_pow(R, 1)
    tree = multi_product_truncation([f], g(R, 5))
    assert tree.evaluate([f]).terms == f.truncate_open(g(R, 5)).terms


def test_multi_product_three_factors():
    rng = random.Random(821)
    R = tring()
    for _ in range(60):
        factors = []
        for _ in range(3):
            exps = rng.sample(range(0, 8), rng.randint(1, 4))
            factors.append(GenSeries(R, [(g(R, Fraction(e, 2)),
                                          R.coeffs.from_int(rng.randint(1, 5)))
                                         for e in exps]))
        lam = g(R, Fraction(rng.randint(4, 14), 2))
        prod = factors[0] * factors[1] * factors[2]
        if cmp(prod.val(), lam) >= 0:
            continue
        tree = multi_product_truncation(factors, lam)
        lhs = tree.evaluate(factors)
        rhs = prod.truncate_open(lam)
        assert same_terms_below(lhs, rhs, lam)


def bounds_used(tree, out):
    """(factor index, bound, "open" or "slice") for every truncation the
    tree's evaluation forms, in the order it forms them."""
    if isinstance(tree, TruncLeaf):
        out.append((tree.index, tree.bound, "open"))
        return
    for lo, hi, child in tree.pieces:
        out.append((tree.index, hi, "slice"))
        bounds_used(child, out)


def test_multi_product_strictness_clause():
    # if some other factor has positive valuation, every bound stays below lam
    rng = random.Random(823)
    R = tring()
    for _ in range(60):
        factors = [
            GenSeries(R, [(g(R, 1), R.coeffs.from_int(rng.randint(1, 3))),
                          (g(R, 2), R.coeffs.from_int(1))]),
            GenSeries(R, [(g(R, 0), R.coeffs.from_int(1)),
                          (g(R, Fraction(3, 2)), R.coeffs.from_int(2))]),
            GenSeries(R, [(g(R, 1), R.coeffs.from_int(2))]),
        ]
        lam = g(R, Fraction(rng.randint(6, 12), 2))
        prod = factors[0] * factors[1] * factors[2]
        if cmp(prod.val(), lam) >= 0:
            continue
        tree = multi_product_truncation(factors, lam)
        used = []
        bounds_used(tree, used)
        positive = [j for j, f in enumerate(factors) if not f.val().is_zero()]
        for j, bound, kind in used:
            assert cmp(bound, lam) <= 0
            others_positive = any(j2 != j for j2 in positive)
            if others_positive:
                assert cmp(bound, lam) < 0
        assert same_terms_below(tree.evaluate(factors),
                                prod.truncate_open(lam), lam)


# -- stab: constructive membership --------------------------------------------------------


def test_stab_reexpression_of_truncated_monomials():
    # open truncations of monomials in the generators re-expressed through
    # truncations of the generators themselves, and re-evaluation matches
    R = tring()
    res = expand(classical_F(R), R, max_terms=4)
    root = res.series  # t^(3/2), exact
    tgen = R.uniformizer()
    rng = random.Random(831)
    for _ in range(40):
        e1, e2 = rng.randint(0, 2), rng.randint(1, 2)
        factors = [tgen] * e1 + [root] * e2
        prod = factors[0]
        for f in factors[1:]:
            prod = prod * f
        lam = g(R, Fraction(rng.randint(6, 16), 2))
        if cmp(prod.val(), lam) >= 0:
            continue
        tree = multi_product_truncation(factors, lam)
        assert same_terms_below(tree.evaluate(factors),
                                prod.truncate_open(lam), lam)


# -- lambda(f, beta), U, U0 ------------------------------------------------------------------


def test_lambda_and_U_key_polynomial():
    R = tring(2)
    F = artin_schreier_F(R)
    res = expand(F, R, max_terms=6)
    st = res.state
    beta = g(R, Fraction(7, 8))
    levels = _derivative_levels(F, beta, st)[0]
    # derivative data: d_1 F = t (value 1), d_2 F = 1 (value 0)
    # level = min(1 + 7/8, 0 + 7/4) = 7/4 attained at b = 2 only
    assert levels.lam == g(R, Fraction(7, 4))
    assert levels.U == [2]
    assert levels.U0 == [2]
    assert max(levels.U0) == F.degree()


def test_lambda_and_U_linear():
    R = tring()
    F = ValPoly(R, [-1 * t_pow(R, 1), R.one()])
    res = expand(F, R, max_terms=4)
    levels = _derivative_levels(F, g(R, 1), res.state)[0]
    assert levels.U == [1]


def test_lambda_and_U_square_char0():
    R = tring()
    res = expand(classical_F(R), R, max_terms=4)
    st = res.state
    beta = g(R, Fraction(3, 2))
    f = ValPoly(R, [R.zero(), R.zero(), R.one()])  # u^2
    levels = _derivative_levels(f, beta, st)[0]
    # min(nu(2u) + beta, nu(1) + 2 beta) = min(3, 3): both attain
    assert levels.lam == g(R, 3)
    assert levels.U == [1, 2]


# -- Prop taylor -------------------------------------------------------------------------------


def test_taylor_first_case_zero_center():
    R = tring()
    res = expand(classical_F(R), R, max_terms=4)
    st = res.state
    y = ValPoly.variable(R)
    beta = g(R, Fraction(3, 2))  # beta <= eps_1
    form = taylor_form(y, beta, st)
    assert form.center.is_exact_zero() or not form.center.terms
    assert form.constant.is_exact_zero() or not form.constant.terms


def test_taylor_key_polynomial_relation_is_zero():
    R = tring(2)
    F = artin_schreier_F(R)
    res = expand(F, R, max_terms=6)
    st = res.state
    for q in (Fraction(7, 8), Fraction(15, 16)):
        beta = g(R, q)
        form = taylor_form(F, beta, st)
        acc = form.constant
        for b, mono in form.monomials.items():
            acc = acc + mono * (form.center ** b)
        if not acc.is_exact_zero():
            v = acc.terms[0][0] if acc.terms else acc.prec
            assert cmp(v, form.lam) >= 0


def test_taylor_form_keeps_the_levels_of_its_one_vector():
    # the levels come with the one Taylor vector they read, and nothing else
    R = tring(2)
    F = artin_schreier_F(R)
    st = expand(F, R, max_terms=6).state
    beta = g(R, Fraction(7, 8))
    levels, vec = _derivative_levels(F, beta, st)
    assert taylor_form(F, beta, st).levels == levels
    assert len(vec.entries) == F.degree() + 1


# -- Prop ent ------------------------------------------------------------------------------------


def test_integral_dependence_classical():
    R = tring()
    res = expand(classical_F(R), R, max_terms=4)
    st = res.state
    form, residual = integral_dependence(INF, st)
    assert max(form.monomials) == 2  # monic of degree max U0 = deg of the stage polynomial
    assert residual is INF or cmp(residual, form.lam) >= 0


def test_integral_dependence_artin_schreier():
    R = tring(2)
    F = artin_schreier_F(R)
    res = expand(F, R, max_terms=8)
    st = res.state
    form, residual = integral_dependence(g(R, Fraction(7, 8)), st)
    assert max(form.monomials) == 2
    # residual beyond the working precision (indistinguishable from zero)
    assert residual is INF or cmp(residual, form.lam) >= 0


def test_integral_dependence_at_inf_reads_the_stage_of_beta():
    # a budget stop leaves a finite last threshold: the relation at INF is
    # the one at the state's beta (511/512), on the stage beta lies in
    R = tring(2)
    st = expand(artin_schreier_F(R), R, max_terms=8).state
    assert st.chain.entries[-1].epsilon is not INF and st.i_beta == len(st.chain)
    at_inf, at_beta = integral_dependence(INF, st), integral_dependence(st.beta, st)
    form, residual = at_inf
    assert at_inf == at_beta and max(form.monomials) == 2
    assert cmp(residual, form.lam) >= 0


def test_integral_dependence_monic_leading_unit():
    R = tring(2)
    F = artin_schreier_F(R)
    res = expand(F, R, max_terms=6)
    form, _ = integral_dependence(g(R, Fraction(7, 8)), res.state)
    lead = form.monomials[max(form.monomials)]
    (e, c), = lead.terms
    assert _fraction(c) in (1, -1) or not c.is_zero()


def test_a_reading_point_past_the_partial_precision_raises():
    # the partial is known below beta = 13/27, and epsilon_3 = 1 lies past
    # it: the form has no open truncation at 1 to center on
    st = run_expand(parse_problem("p 3\nwitt_prec 4\npoly y^3 - p*y - p\n"), 2).state
    assert [e.epsilon.rational_value() for e in st.chain.entries] == \
        [Fraction(1, 3), Fraction(4, 9), 1]
    assert st.beta.rational_value() == Fraction(13, 27)
    one = g(st.ring, 1)
    with pytest.raises(PrecisionExceeded):
        taylor_form(st.F, one, st)
    with pytest.raises(PrecisionExceeded):
        integral_dependence(one, st)


def test_a_reading_point_above_every_epsilon_exhausts_the_chain():
    st = run_expand(parse_problem("char 0\npoly y^2 - 1 - t\n"), 4).state
    assert [e.epsilon.rational_value() for e in st.chain.entries] == [0, 1, 2, 3, 4]
    five = g(st.ring, 5)
    with pytest.raises(ChainExhausted):
        taylor_form(st.F, five, st)
    with pytest.raises(ChainExhausted):
        integral_dependence(five, st)


def test_transcendence_sanity_bounded_search():
    # no low-degree relation with coefficients from the truncation subring
    # annihilates the computed embedding at working precision (sanity check,
    # not a proof)
    R = tring(2)
    F = artin_schreier_F(R)
    res = expand(F, R, max_terms=6)
    root = res.series
    tgen = R.uniformizer()
    full = res.state.partial_series()
    truncs = [full.truncate_open(g(R, Fraction(1, 2))),
              full.truncate_open(g(R, Fraction(3, 4))),
              full.truncate_open(g(R, Fraction(7, 8)))]
    rng = random.Random(839)
    checked = 0
    for _ in range(200):
        # search strictly below the defining degree: the presentation makes
        # the embedding algebraic of exactly that degree, so only lower
        # degrees witness the transcendence-style non-vanishing
        acc = R.zero()
        nonzero = False
        for b in range(0, F.degree()):
            if rng.random() < 0.5:
                continue
            tr = rng.choice(truncs)
            coeff = (tgen ** rng.randint(0, 2)) * \
                (GenSeries(R, list(tr.terms)) if tr.terms else R.one())
            acc = acc + coeff * (root ** b)
            nonzero = True
        if not nonzero:
            continue
        checked += 1
        # the relation must stay visibly nonzero at working precision
        assert acc.terms, "an annihilating relation appeared"
    assert checked >= 100
