import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from genpuiseux.coeff import CoeffElem, FieldTower, WittRing
from genpuiseux.errors import ChainComplete, EngineInvariantViolation
from genpuiseux.groups import INF, GroupDescriptor, cmp
from genpuiseux.keypoly import (
    ChainEntry,
    KeyPolyChain,
    ValPoly,
    chain_entry,
    derivative_min_check,
    extend_chain,
    first_exponent,
    geometric_limit,
    initial_chain,
    shift_taylor,
    standard_expansion,
    taylor_at,
    truncated_val,
)
from genpuiseux.series import GenSeries, SeriesRing


def tring(char=0):
    desc = GroupDescriptor([1])
    tower = FieldTower.prime_field(char) if char else FieldTower.rationals()
    return SeriesRing(desc, tower)


def g(R, q):
    return R.descriptor.from_rational(Fraction(q))


def t_pow(R, q, c=1):
    return R.monomial(g(R, q), c)


def poly(R, *coeffs):
    """Coefficients given innermost-first as series."""
    return ValPoly(R, list(coeffs))


def classical_F(R):
    return poly(R, -1 * t_pow(R, 3), R.zero(), R.one())  # y^2 - t^3


def artin_schreier_F(R):
    return poly(R, t_pow(R, 1), t_pow(R, 1), R.one())  # y^2 + t y + t


def reader(s):
    """A reader of values at the series s, as extend_chain takes one:
    every polynomial evaluated there."""
    return lambda q, entry=None: q.eval(s)


def explicit_chain(R, *spec):
    chain = KeyPolyChain(R)
    for q, beta in spec:
        alpha = q.degree() // chain.entries[-1].poly.degree() if chain.entries else 1
        chain = chain.appended(chain_entry(chain, q, beta, alpha))
    return chain


# -- Hasse derivatives ---------------------------------------------------------


def test_hasse_examples():
    R = tring()
    x3 = poly(R, R.zero(), R.zero(), R.zero(), R.one())
    d2 = x3.hasse_derivative(2)
    assert d2.degree() == 1
    assert d2.coeff(1) == R.const(3)

    R2 = tring(2)
    x2 = poly(R2, R2.zero(), R2.zero(), R2.one())
    assert x2.hasse_derivative(1).is_zero()  # 2x = 0
    assert x2.hasse_derivative(2) == poly(R2, R2.one())


def test_hasse_diagonal_is_one():
    for char in (0, 2, 3, 5):
        R = tring(char)
        for m in range(1, 7):
            xm = poly(R, *([R.zero()] * m + [R.one()]))
            assert xm.hasse_derivative(m) == poly(R, R.one())


def test_hasse_derivative_is_kept_per_order():
    R = tring(3)
    f = poly(R, t_pow(R, 1), R.one(), t_pow(R, 2), R.one())  # y^3 + t^2 y^2 + y + t
    assert f.hasse_derivative(0) is f
    d1 = f.hasse_derivative(1)
    assert d1 == poly(R, R.one(), t_pow(R, 2, 2))  # 3y^2 = 0 in characteristic 3
    assert f.hasse_derivative(1) is d1
    assert f.hasse_derivative(3) == poly(R, R.one()) and f.hasse_derivative(4).is_zero()
    with pytest.raises(ValueError):
        f.hasse_derivative(-1)


def test_each_hasse_derivative_is_formed_once_per_verify_op(monkeypatch):
    """Every reader takes D^m P from P's table: over one verify op, each
    (polynomial object, order) pair yields one derivative object."""
    from genpuiseux.cli import cmd_verify, parse_problem

    formed = {}  # (id(P), m) -> (P, D^m P); P is held, so its id stays its own
    calls = [0]
    original = ValPoly.hasse_derivative

    def recorded(P, m):
        calls[0] += 1
        d = original(P, m)
        assert formed.setdefault((id(P), m), (P, d))[1] is d
        return d

    monkeypatch.setattr(ValPoly, "hasse_derivative", recorded)
    spec = parse_problem("char 3\npoly y^3 - t*y - t\nbudget_terms 6\n"
                         "verify all\nseed 7\ntrials 4\n")
    assert cmd_verify(spec)[1].count("status=") == 6
    # the table is read again and again: far more reads than formations
    assert calls[0] > 2 * len(formed) > 0


def test_hasse_composition_law():
    rng = random.Random(77)
    for char in (0, 2, 3, 5):
        R = tring(char)
        for _ in range(40):
            deg = rng.randint(0, 6)
            f = poly(R, *[t_pow(R, rng.randint(0, 3), rng.randint(0, 6))
                          for _ in range(deg + 1)])
            for a in range(1, 4):
                for b in range(1, 4):
                    lhs = f.hasse_derivative(b)
                    lhs = lhs.hasse_derivative(a) if not lhs.is_zero() else lhs
                    h = f.hasse_derivative(a + b)
                    rhs = ValPoly(R, [c * math.comb(a + b, a) for c in h.coeffs], h.var)
                    if lhs.is_zero():
                        assert rhs.is_zero() or all(
                            c.is_exact_zero() or not c.terms for c in rhs.coeffs)
                    else:
                        assert lhs == rhs


# -- moving the Taylor vector -------------------------------------------------

# Q, F3 -> F9, W(F5) mod 25 and mod 5^4 (multi-digit coefficients carry, 25 is
# a zero divisor) and the rank-2 group with weights 1 and sqrt(2)
_SHIFT_RINGS = {
    "Q": tring(),
    "F9": SeriesRing(GroupDescriptor([1]),
                     FieldTower.prime_field(3).adjoin((1, 0, 1))),
    "W(F5)/25": SeriesRing(GroupDescriptor([1]),
                           WittRing(FieldTower.prime_field(5), 2)),
    "W(F5)/5^4": SeriesRing(GroupDescriptor([1]),
                            WittRing(FieldTower.prime_field(5), 4)),
    "sqrt2": SeriesRing(GroupDescriptor([(1, 0), (0, 1)], sqrt_disc=2),
                        FieldTower.rationals()),
}


def _shift_exponent(draw, R, low=0):
    if R.descriptor.rank == 2:
        return R.descriptor.element([Fraction(draw(st.integers(2 * low, 6)), 2),
                                     draw(st.integers(low, 2))])
    return g(R, Fraction(draw(st.integers(low, 8)), draw(st.sampled_from([1, 2, 3]))))


def _shift_coeff(draw, R):
    c = R.coeffs.from_int(draw(st.integers(-30, 30).filter(bool)))
    if R.tower.height:
        c = c + R.coeffs.lift(CoeffElem.generator(R.tower)) * R.coeffs.from_int(
            draw(st.integers(-2, 2)))
    return c


def _shift_series(draw, R, exact=True, size=3):
    terms = [(_shift_exponent(draw, R), _shift_coeff(draw, R))
             for _ in range(draw(st.integers(0, size)))]
    if exact or draw(st.booleans()):
        return GenSeries(R, terms)
    return GenSeries(R, terms, _shift_exponent(draw, R, 1), draw(st.booleans()))


def _completed(draw, R, c):
    """c with its O(.) bound replaced by drawn exact terms at or above it (above
    it when closed): one exact series that the finite data describe."""
    if c._raw_prec is INF:
        return c
    extra = [(c._raw_prec + _shift_exponent(draw, R, int(c._raw_closed)), _shift_coeff(draw, R))
             for _ in range(draw(st.integers(0, 2)))]
    return GenSeries(R, list(c._raw) + extra)


@st.composite
def _shift_cases(draw):
    """(exact, P, s, m, completion of P) for the shift property."""
    R = _SHIFT_RINGS[draw(st.sampled_from(sorted(_SHIFT_RINGS)))]
    exact = draw(st.booleans())
    P = ValPoly(R, [_shift_series(draw, R, exact)
                    for _ in range(draw(st.integers(1, 4)))] + [R.one()])
    s = _shift_series(draw, R)
    m = R.monomial(_shift_exponent(draw, R), _shift_coeff(draw, R))
    return exact, P, s, m, ValPoly(R, [_completed(draw, R, c) for c in P.coeffs])


def _agree_below(a, b, bound, closed):
    if bound is INF:
        return a == b
    cut = GenSeries.truncate_closed if closed else GenSeries.truncate_open
    return cut(a, bound) == cut(b, bound)


# over F9, P = y^3 + O(t) y^2 + O(t) with s = 1 and m = 2: at s + m = 0 evaluation
# reads the first Hasse derivative as an exact 0, where the shift keeps O(t)
_F9 = _SHIFT_RINGS["F9"]
_F9_CASE = (False, poly(_F9, _F9.zero(g(_F9, 1)), _F9.zero(), _F9.zero(g(_F9, 1)), _F9.one()),
            _F9.one(), _F9.const(_F9.coeffs.from_int(2)),
            poly(_F9, t_pow(_F9, 1), _F9.zero(), t_pow(_F9, 1), _F9.one()))


@settings(max_examples=200, deadline=None)
@given(_shift_cases())
@example(_F9_CASE)
def test_shift_taylor_matches_taylor_at_the_moved_point(case):
    """shift_taylor(taylor_at(P, s), m) against taylor_at(P, s + m).  Exact
    data give the same raw and text forms.  On finite-precision coefficients
    neither knows more in general: the shift's rounds of out[k] += out[k+1]*m
    keep in each entry the least precision of what it adds, moved by m's
    exponent, while evaluation keeps what its own Horner sums at s + m reach
    (at an exact point, say s + m = 0, a term can become exact).  So the two
    agree below the lesser of their precisions, and each agrees below its own
    with the Taylor vector of P completed to exact data, which the finite
    data describe."""
    exact, P, s, m, full = case
    shifted, evaluated = shift_taylor(taylor_at(P, s), m), taylor_at(P, s + m)
    assert len(shifted) == len(evaluated) == P.degree() + 1
    for sh, ev, want in zip(shifted, evaluated, taylor_at(full, s + m)):
        if exact:
            assert sh._raw == ev._raw and sh._raw_prec is ev._raw_prec is INF
            assert sh.to_text() == ev.to_text()
            continue
        low = ev if sh.knows(ev.prec, ev.closed) else sh
        assert _agree_below(sh, ev, low.prec, low.closed)
        for x in (sh, ev):
            assert _agree_below(x, want, x.prec, x.closed)


def test_negative_polynomial_power_raises():
    R = tring()
    y = ValPoly.variable(R)
    with pytest.raises(ValueError):
        y ** -1
    assert (y + ValPoly.const(R.one())) ** 0 == ValPoly.const(R.one())
    assert (y ** 3).degree() == 3


def test_is_monic_reads_the_lead_exactly():
    R = tring()
    one = R.one()
    assert poly(R, t_pow(R, 1), one).is_monic()
    for lead in (t_pow(R, 1), R.const(2),
                 GenSeries(R, [(g(R, 0), R.coeffs.one())], g(R, 3))):
        assert not poly(R, one, lead).is_monic(), lead
    # over Z_5 with 6 digits: 6 is 1 + 5, and 6 - p carries to 1 + O(p^6)
    desc = GroupDescriptor([1])
    P = SeriesRing(desc, WittRing(FieldTower.prime_field(5), 6))
    assert poly(P, P.const(6), P.const(1 + 5 ** 6)).is_monic()
    carried = GenSeries(P, [(g(P, 0), P.coeffs.from_int(6)), (g(P, 1), P.coeffs.from_int(-1))])
    for lead in (P.const(6), carried):
        assert not poly(P, P.one(), lead).is_monic(), lead


def _power_cases():
    """name -> (x, 1, x*y, x**n, the class and method that form each product,
    and the tower whose own products count: None counts them all)."""
    R = tring()
    f4 = FieldTower.prime_field(2).adjoin((1, 1, 1))  # w^2 + w + 1 = 0
    f16 = f4.adjoin(((0, 1), (1,), (1,)))  # X^2 + X + w over F4
    cases = {
        "valpoly": (poly(R, t_pow(R, 1), R.one()), ValPoly.const(R.one()),
                    ValPoly.__mul__, ValPoly.__pow__, ValPoly, "__mul__", None),
        "series": (R.one() + t_pow(R, Fraction(1, 2), 3), R.one(),
                   GenSeries.__mul__, GenSeries.__pow__, GenSeries, "__mul__", None),
    }
    for name, tower in (("rep_pow", f4), ("rep_pow_height2", f16)):
        cases[name] = (CoeffElem.generator(tower).rep, tower.rep_one(), tower.rep_mul,
                       tower.rep_pow, FieldTower, "rep_mul", tower)
    return cases


@pytest.mark.parametrize("name", ["valpoly", "series", "rep_pow", "rep_pow_height2"])
def test_binary_power_squares_only_while_bits_remain(name, monkeypatch):
    P, one, mul, power, cls, method, tower = _power_cases()[name]
    expected = [one]
    for _ in range(8):
        expected.append(mul(expected[-1], P))
    plain = getattr(cls, method)
    products = []

    def counted(self, *args):
        # a height-2 product multiplies over `below`, a tower object of its own
        if tower is None or self is tower:
            products.append(args)
        return plain(self, *args)

    monkeypatch.setattr(cls, method, counted)
    for n in range(9):
        products.clear()
        assert power(P, n) == expected[n], n
        # one product per set bit after the first and one squaring per bit
        # after the first; x^0 and x^1 form none
        expected_products = bin(n).count("1") - 1 + n.bit_length() - 1 if n else 0
        assert len(products) == expected_products, n
    assert power(P, 1) is P


# -- chains ------------------------------------------------------------------------


def test_chain_entries_are_numbered_from_one():
    R = tring(2)
    chain = explicit_chain(R, (ValPoly.variable(R), g(R, Fraction(1, 2))))
    chain = extend_chain(chain, artin_schreier_F(R), reader(t_pow(R, Fraction(1, 2))))
    assert chain.entry(1) is chain.entries[0]
    assert chain.entry(2) is chain.entries[1]
    for i in (0, -1, 3):
        with pytest.raises(IndexError):
            chain.entry(i)


def test_values_never_read_below_stage_one():
    # Q_1 of degree 2: a linear polynomial has no stage to be read at
    R = tring()
    q = poly(R, -1 * t_pow(R, 3), R.zero(), R.one())  # y^2 - t^3
    y_t = poly(R, t_pow(R, 1), R.one())  # y + t
    with pytest.raises(IndexError):
        chain_entry(KeyPolyChain(R), q, g(R, Fraction(3, 2)), 1)
    top = ChainEntry(q, g(R, 3), 0, g(R, 2), 1, ((0, g(R, 1)),))
    for n in (1, 2):  # Q_1 alone, and Q_1 re-pinned as Q_2
        chain = KeyPolyChain(R, [top] * n)
        with pytest.raises(IndexError):
            truncated_val(y_t, chain, n)


# -- standard expansions ----------------------------------------------------------


def test_standard_expansion_y4():
    R = tring()
    chain = explicit_chain(R, (ValPoly.variable(R), g(R, Fraction(3, 2))),
                           (classical_F(R), g(R, 3)))
    y4 = poly(R, R.zero(), R.zero(), R.zero(), R.zero(), R.one())
    cs = standard_expansion(y4, chain.entry(2).poly)
    # y^4 = Q^2 + 2 t^3 Q + t^6
    assert cs[0] == ValPoly.const(t_pow(R, 6))
    assert cs[1] == ValPoly.const(t_pow(R, 3, 2))
    assert cs[2] == ValPoly.const(R.one())


def test_standard_expansion_low_degree():
    R = tring()
    chain = explicit_chain(R, (ValPoly.variable(R), g(R, Fraction(3, 2))),
                           (classical_F(R), g(R, 3)))
    y = ValPoly.variable(R)
    cs = standard_expansion(y, chain.entry(2).poly)
    assert len(cs) == 1 and cs[0] == y


def test_standard_expansion_reassembly():
    rng = random.Random(55)
    R = tring(2)
    chain = explicit_chain(R, (ValPoly.variable(R), g(R, Fraction(1, 2))))
    chain = extend_chain(chain, artin_schreier_F(R), reader(t_pow(R, Fraction(1, 2))))
    for i in (1, 2):
        q = chain.entry(i).poly
        for _ in range(100):
            f = poly(R, *[t_pow(R, rng.randint(0, 4), rng.randint(0, 1))
                          for _ in range(rng.randint(1, 6))])
            if f.is_zero():
                continue
            cs = standard_expansion(f, q)
            acc = ValPoly(R, [])
            for j, c in enumerate(cs):
                assert c.degree() < q.degree() or c.is_zero()
                acc = acc + c * (q ** j)
            assert acc == f


# -- truncated valuations -----------------------------------------------------------


def test_truncated_val_classical():
    R = tring()
    chain = explicit_chain(R, (ValPoly.variable(R), g(R, Fraction(3, 2))))
    h = classical_F(R)
    v, s = truncated_val(h, chain, 1)
    assert v == g(R, 3)
    assert s == [0, 2]


def test_truncated_val_artin_schreier():
    R = tring(2)
    chain = explicit_chain(R, (ValPoly.variable(R), g(R, Fraction(1, 2))))
    h = artin_schreier_F(R)
    v, s = truncated_val(h, chain, 1)
    assert v == g(R, 1)
    assert s == [0, 2]


def test_truncated_val_below_true_valuation():
    rng = random.Random(91)
    R = tring()
    chain = explicit_chain(R, (ValPoly.variable(R), g(R, Fraction(3, 2))))
    root = t_pow(R, Fraction(3, 2))
    for _ in range(200):
        f = poly(R, *[t_pow(R, rng.randint(0, 5), rng.randint(-3, 3))
                      for _ in range(rng.randint(1, 5))])
        if f.is_zero():
            continue
        v, _ = truncated_val(f, chain, 1)
        ev = f.eval(root)
        if ev.is_exact_zero():
            continue
        assert cmp(v, ev.val()) <= 0


# -- epsilon invariants ----------------------------------------------------------------


def test_epsilon_char0_example():
    R = tring()
    chain = explicit_chain(R, (ValPoly.variable(R), g(R, Fraction(3, 2))),
                           (classical_F(R), g(R, 3)))
    e = chain.entry(2)
    assert e.b_order == 0
    assert e.epsilon == g(R, Fraction(3, 2))


def test_epsilon_char2_variable():
    R = tring(2)
    chain = explicit_chain(R, (ValPoly.variable(R), g(R, Fraction(1, 2))))
    e = chain.entry(1)
    assert e.b_order == 0
    assert e.epsilon == g(R, Fraction(1, 2))


def test_epsilon_monotone_on_computed_chain():
    R = tring(2)
    F = artin_schreier_F(R)
    chain = initial_chain(R, F)
    partial = t_pow(R, Fraction(1, 2))
    chain = extend_chain(chain, F, reader(partial))
    partial = partial + t_pow(R, Fraction(3, 4))
    chain = extend_chain(chain, F, reader(partial))
    eps = [e.epsilon for e in chain.entries]
    assert eps[0] == g(R, Fraction(1, 2))
    assert eps[1] == g(R, Fraction(3, 4))
    assert eps[2] == g(R, Fraction(7, 8))
    for a, b in zip(eps, eps[1:]):
        assert cmp(a, b) < 0


# -- chain extension ---------------------------------------------------------------------


def test_extend_chain_classical():
    R = tring()
    F = classical_F(R)
    chain = initial_chain(R, F)
    assert chain.entry(1).beta == g(R, Fraction(3, 2))
    chain = extend_chain(chain, F, reader(t_pow(R, Fraction(3, 2))))
    assert chain.entry(2).poly == F
    assert chain.entry(2).beta is INF
    assert chain.entry(2).alpha == 2
    with pytest.raises(ChainComplete):
        extend_chain(chain, F, reader(t_pow(R, Fraction(3, 2))))


def test_extend_chain_artin_schreier_sequence():
    R = tring(2)
    F = artin_schreier_F(R)
    chain = initial_chain(R, F)
    assert chain.entry(1).beta == g(R, Fraction(1, 2))
    chain = extend_chain(chain, F, reader(t_pow(R, Fraction(1, 2))))
    q2 = chain.entry(2).poly
    # the intermediate key polynomial is y^2 + t
    assert q2 == ValPoly(R, [t_pow(R, 1), R.zero(), R.one()])
    assert chain.entry(2).beta == g(R, Fraction(3, 2))
    partial = t_pow(R, Fraction(1, 2)) + t_pow(R, Fraction(3, 4))
    chain = extend_chain(chain, F, reader(partial))
    assert chain.entry(3).poly == F
    assert chain.entry(3).beta == g(R, Fraction(7, 4))
    assert chain.entry(3).epsilon == g(R, Fraction(7, 8))
    # re-pin against a longer partial
    partial = partial + t_pow(R, Fraction(7, 8))
    chain = extend_chain(chain, F, reader(partial))
    assert chain.entry(4).poly == F
    assert chain.entry(4).beta == g(R, Fraction(15, 8))
    assert chain.entry(4).epsilon == g(R, Fraction(15, 16))


def test_kept_constant_reads_only_F_as_a_constant_plus_the_key_polynomial():
    R = tring()
    partial = t_pow(R, Fraction(1, 2), 2)
    # y^2 - 4t + t^5 = t^5 + Q_2 and y^3 - 4t*y + t^5 = t^5 + y*Q_2 (reducible),
    # with Q_2 = y^2 - 4t: only in the first is Q_2 at the partial F there less t^5
    for F, c1, gap in [(poly(R, t_pow(R, 5) - 4 * t_pow(R, 1), R.zero(), R.one()),
                        "1", t_pow(R, 5)),
                       (poly(R, t_pow(R, 5), -4 * t_pow(R, 1), R.zero(), R.one()),
                        "y", None)]:
        entry = extend_chain(initial_chain(R, F), F, reader(partial)).entries[-1]
        assert entry.poly == poly(R, -4 * t_pow(R, 1), R.zero(), R.one())
        assert [c.to_text() for c in entry.expansion[1]] == ["t^5", c1]
        assert entry.kept_constant(F) == gap
        # the expansion is of this very F: an equal polynomial is another input
        assert entry.kept_constant(poly(R, *F.coeffs)) is None
        if gap is not None:
            assert F.eval(partial) - gap == entry.poly.eval(partial)
            # a D of finite raw precision is not read as a constant
            cut = ValPoly.const(GenSeries(R, gap.terms, g(R, 9)))
            inexact = replace(entry, expansion=(F, (cut,) + entry.expansion[1][1:],
                                                entry.expansion[2]))
            assert inexact.kept_constant(F) is None


def _multiply_out(mono, chain, i, var):
    """A leading standard monomial ({k: e_k}, (gamma, a)) as a ValPoly."""
    exps, (gamma, a) = mono
    out = ValPoly.const(chain.ring.monomial(gamma, a), var)
    for k in range(1, i + 1):
        out = out * (chain.entry(k).poly ** exps.get(k, 0))
    return out


def _trial_division_ratio(num, den, chain, i):
    """num / den as the trial-division algorithm forms it: multiply both
    monomials out, peel the stage powers off with divmod_monic from the top
    stage down, then divide the leading terms of what is left."""
    var = chain.entry(1).poly.var
    num_c = _multiply_out(num, chain, i, var)
    den_c = _multiply_out(den, chain, i, var)
    factors = []
    for k in range(i, 0, -1):
        qk = chain.entry(k).poly
        peeled = []
        for c in (num_c, den_c):
            e = 0
            while c.degree() >= qk.degree() >= 1:
                quot, rem = c.divmod_monic(qk)
                if not rem.is_zero():
                    break
                c, e = quot, e + 1
            peeled.append((c, e))
        (num_c, e_num), (den_c, e_den) = peeled
        assert e_num >= e_den
        factors.append((qk, e_num - e_den))
    ge_n, cn = num_c.coeffs[0].leading_term()
    ge_d, cd = den_c.coeffs[0].leading_term()
    out = ValPoly.const(chain.ring.monomial(ge_n - ge_d, cn * cd.inv()), var)
    for qk, e in factors:
        if e:
            out = out * (qk ** e)
    return out


@pytest.mark.parametrize("lines, budget", [
    (["char 2", "poly y^2 + t*y + t"], 24),
    (["char 3", "poly y^2 - 2*t - t^2"], 16),    # the residues reach F9
    (["char 0", "poly y^3 - t - t^2"], 12),      # the residues reach Q(w)
    (["p 5", "witt_prec 16", "poly y^2 - 1 - p"], 16),
    (["char 0", "weights 1 0+1*sqrt(2)", "sqrt_disc 2", "lower_vars u2",
      "poly y^2 - t - u2"], 16),
])
def test_monomial_ratio_matches_trial_division(monkeypatch, lines, budget):
    from genpuiseux import cli, keypoly

    seen = []
    ratio = keypoly._monomial_ratio

    def recording(num, den, chain, i):
        out = ratio(num, den, chain, i)
        seen.append((num, den, chain, i, out))
        return out

    monkeypatch.setattr(keypoly, "_monomial_ratio", recording)
    cli.cmd_expand(cli.parse_problem("\n".join(lines) + "\n"), budget=budget)
    assert seen
    for num, den, chain, i, out in seen:
        want = _trial_division_ratio(num, den, chain, i)
        assert out == want
        assert out.to_text() == want.to_text()


def test_monomial_ratio_subtracts_exponent_vectors():
    from genpuiseux.keypoly import _monomial_ratio

    R = tring(2)
    F = artin_schreier_F(R)
    chain = extend_chain(initial_chain(R, F), F, reader(t_pow(R, Fraction(1, 2))))
    one = R.coeffs.one()
    # (t^(1/2) Q_1 Q_2^2) / (t^(1/4) Q_2) = t^(1/4) Q_2 Q_1
    num = ({1: 1, 2: 2}, (g(R, Fraction(1, 2)), one))
    den = ({2: 1}, (g(R, Fraction(1, 4)), one))
    out = _monomial_ratio(num, den, chain, 2)
    want = _trial_division_ratio(num, den, chain, 2)
    assert out == want and out.to_text() == want.to_text()
    assert out == chain.entry(2).poly * chain.entry(1).poly * t_pow(R, Fraction(1, 4))
    with pytest.raises(EngineInvariantViolation):
        _monomial_ratio(den, num, chain, 2)


def test_extend_chain_linear():
    R = tring()
    F = poly(R, -1 * t_pow(R, 1), R.one())  # y - t
    chain = initial_chain(R, F)
    assert chain.entry(1).beta == g(R, 1)
    chain = extend_chain(chain, F, reader(t_pow(R, 1)))
    assert chain.entry(2).poly == F
    assert chain.entry(2).beta is INF


def test_degrees_multiply_along_chain():
    R = tring(2)
    F = artin_schreier_F(R)
    chain = initial_chain(R, F)
    chain = extend_chain(chain, F, reader(t_pow(R, Fraction(1, 2))))
    d_prev = 1
    for e in chain.entries:
        assert e.poly.degree() == d_prev * e.alpha
        d_prev = e.poly.degree()


def test_limit_detection_signature():
    R = tring(2)
    F = artin_schreier_F(R)
    chain = initial_chain(R, F)
    partial = t_pow(R, Fraction(1, 2))
    chain = extend_chain(chain, F, reader(partial))
    exps = [Fraction(3, 4), Fraction(7, 8), Fraction(15, 16), Fraction(31, 32)]
    for e in exps:
        partial = partial + t_pow(R, e)
        chain = extend_chain(chain, F, reader(partial))
    # the last three entries re-pin one polynomial while their thresholds
    # close in geometrically
    last = chain.entries[-3:]
    assert last[0].poly == last[1].poly == last[2].poly
    assert geometric_limit([e.epsilon for e in last], 2) is not None


def test_first_exponent_polygon():
    R = tring()
    assert first_exponent(classical_F(R)) == g(R, Fraction(3, 2))
    R2 = tring(2)
    assert first_exponent(artin_schreier_F(R2)) == g(R2, Fraction(1, 2))
    Rm = tring()
    F = poly(Rm, Rm.zero(), -1 * t_pow(Rm, 1), Rm.one())  # y^2 - t*y: root 0
    assert first_exponent(F) is INF


# -- the minimum identity and the inequality ----------------------------------------------


def _as_chain_with_root(budget=6):
    R = tring(2)
    F = artin_schreier_F(R)
    chain = initial_chain(R, F)
    partial = t_pow(R, Fraction(1, 2))
    chain = extend_chain(chain, F, reader(partial))
    exp = Fraction(3, 4)
    for _ in range(budget - 1):
        partial = partial + t_pow(R, exp)
        chain = extend_chain(chain, F, reader(partial))
        exp = 1 - (1 - exp) / 2
    return R, chain, partial


def rand_poly(R, rng, max_deg=4, char=2):
    coeffs = []
    for _ in range(rng.randint(1, max_deg + 1)):
        n = rng.randint(0, 3)
        c = rng.randint(0, char - 1) if char else rng.randint(-3, 3)
        coeffs.append(t_pow(R, n, c) if c else R.zero())
    return ValPoly(R, coeffs)


def test_prop_min_on_corpus():
    # with beta = eps_i the truncated value equals both derivative minima
    rng = random.Random(303)
    R, chain, root = _as_chain_with_root()
    checked = 0
    for i in (1, 2):
        trials = 0
        while trials < 100:
            h = rand_poly(R, rng)
            if h.is_zero():
                continue
            trials += 1
            rep = derivative_min_check(h, chain, i, taylor_at(h, root))
            if rep["nu_i"] is INF:
                continue
            assert rep["equal"], (i, h.to_text(), rep)
            checked += 1
    assert checked >= 150


def test_prop_min_trivial_cases():
    R, chain, root = _as_chain_with_root()
    q1 = chain.entry(1).poly
    rep = derivative_min_check(q1, chain, 1, taylor_at(q1, root))
    assert rep["equal"]
    assert rep["nu_i"] == chain.entry(1).beta
    const = ValPoly.const(t_pow(R, 2, 1))
    rep = derivative_min_check(const, chain, 1, taylor_at(const, root))
    assert rep["equal"]
    assert rep["nu_i"] == g(R, 2)


def test_prop_101_inequality():
    rng = random.Random(404)
    for char in (0, 2, 3, 5):
        R = tring(char)
        if char == 2:
            F = artin_schreier_F(R)
            chain = initial_chain(R, F)
            chain = extend_chain(chain, F, reader(t_pow(R, Fraction(1, 2))))
        else:
            chain = explicit_chain(R, (ValPoly.variable(R), g(R, Fraction(3, 2))))
        p = max(char, 1)
        for i in range(1, len(chain.entries) + 1):
            eps = chain.entry(i).epsilon
            if eps is INF:
                continue
            for _ in range(60):
                f = rand_poly(R, rng, char=char if char else 0)
                if f.is_zero():
                    continue
                vf, _ = truncated_val(f, chain, i)
                if vf is INF:
                    continue
                b = 0
                while p ** b <= f.degree():
                    df = f.hasse_derivative(p ** b)
                    if not df.is_zero():
                        vd, _ = truncated_val(df, chain, i)
                        if vd is not INF:
                            # nu_i(f) - nu_i(d f) <= p^b * eps_i
                            assert cmp(vf - vd, eps.scale_unchecked(p ** b)) <= 0
                    if p == 1:
                        break
                    b += 1


def test_cor_1015_attainment():
    rng = random.Random(505)
    R, chain, root = _as_chain_with_root()
    p = 2
    for i in (1, 2):
        entry = chain.entry(i)
        b_i = entry.b_order
        eps = entry.epsilon
        for _ in range(100):
            f = rand_poly(R, rng)
            if f.is_zero():
                continue
            vf, s_set = truncated_val(f, chain, i)
            if vf is INF or not s_set:
                continue
            # displayed minimum over j of nu_i(d_(j p^b_i) f) + j p^b_i eps
            best = None
            terms = {}
            for j in range(0, f.degree() + 1):
                order = j * p ** b_i
                dj = f if order == 0 else f.hasse_derivative(order)
                if dj.is_zero():
                    continue
                vd, _ = truncated_val(dj, chain, i)
                if vd is INF:
                    continue
                tot = vd + eps.scale_unchecked(order)
                terms[j] = tot
                if best is None or cmp(tot, best) < 0:
                    best = tot
            assert best is not None and cmp(vf, best) == 0
            # attainment at every j in S_i passing the divisibility filter
            for j in s_set:
                if j == 0:
                    continue
                e = 0
                jj = j
                while jj % p == 0:
                    jj //= p
                    e += 1
                smaller = [j2 for j2 in s_set if j2 < j]
                ok = all(j2 % p ** (e + 1) == 0 for j2 in smaller)
                if ok and j in terms:
                    assert cmp(terms[j], vf) == 0


def test_chain_report_format():
    R = tring(2)
    F = artin_schreier_F(R)
    chain = initial_chain(R, F)
    chain = extend_chain(chain, F, reader(t_pow(R, Fraction(1, 2))))
    lines = chain.report().splitlines()
    assert lines[0] == "1: Q_1=y beta=1/2 b=0 eps=1/2 alpha=1"
    assert lines[1] == "2: Q_2=y^2 + t beta=3/2 b=1 eps=3/4 alpha=2"
