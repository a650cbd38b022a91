import math
import random
import signal
import time
from contextlib import contextmanager
from dataclasses import replace
from fractions import Fraction
from functools import cmp_to_key

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from genpuiseux.coeff import CoeffElem, FieldTower, WittRing
from genpuiseux.errors import ChainComplete, EngineInvariantViolation, ValuationIndeterminate
from genpuiseux.groups import INF, GroupDescriptor, cmp
from genpuiseux.keypoly import (
    ChainEntry,
    KeyPolyChain,
    TaylorVector,
    ValPoly,
    chain_entry,
    derivative_min_check,
    extend_chain,
    first_exponent,
    geometric_limit,
    initial_chain,
    standard_expansion,
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
                    rhs = ValPoly(R, [c * math.comb(a + b, a) for c in h.coeffs])
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
def test_taylor_vector_shift_matches_the_vector_at_the_moved_point(case):
    """TaylorVector(P, s).shift(m) against TaylorVector(P, s + m).  Exact
    data give the same raw and text forms.  On finite-precision coefficients
    neither knows more in general: the shift's rounds of out[k] += out[k+1]*m
    keep in each entry the least precision of what it adds, moved by m's
    exponent, while evaluation keeps what its own Horner sums at s + m reach
    (at an exact point, say s + m = 0, a term can become exact).  So the two
    agree below the lesser of their precisions, and each agrees below its own
    with the Taylor vector of P completed to exact data, which the finite
    data describe."""
    exact, P, s, m, full = case
    moved = TaylorVector(P, s).shift(m)
    assert moved.poly is P and moved.point == s + m
    shifted, evaluated = moved.entries, TaylorVector(P, s + m).entries
    assert len(shifted) == len(evaluated) == P.degree() + 1
    for sh, ev, want in zip(shifted, evaluated, TaylorVector(full, s + m).entries):
        if exact:
            assert sh._raw == ev._raw and sh._raw_prec is ev._raw_prec is INF
            assert sh.to_text() == ev.to_text()
            continue
        low = ev if sh.knows(ev.prec, ev.closed) else sh
        assert _agree_below(sh, ev, low.prec, low.closed)
        for x in (sh, ev):
            assert _agree_below(x, want, x.prec, x.closed)


# over W(F5)/25, where p and t share a value, P = y + (p - t) at 0: the entry
# p - t is 0 up to its precision O(p^2), so its value is only bounded below
_W25 = _SHIFT_RINGS["W(F5)/25"]
_W25_P = poly(_W25, GenSeries(_W25, [(g(_W25, 0), _W25.coeffs.from_int(5)),
                                     (g(_W25, 1), _W25.coeffs.from_int(-1))]), _W25.one())
_W25_CASE = (True, _W25_P, _W25.zero(), _W25.zero(), _W25_P)


def _val_or_none(ev):
    try:
        return ev.val()
    except ValuationIndeterminate:
        return None


@settings(max_examples=100, deadline=None)
@given(_shift_cases())
@example(_W25_CASE)
def test_taylor_vector_derivative_is_the_vector_of_the_derivative(case):
    """derivative(b) reads C(b+k, k)*entry[b+k] where evaluation forms
    (D^k D^b P)(s): on the completed (exact) P the two are equal, where the
    read vector runs on in exact zeros past a degree that drops in
    characteristic p; b = 0 is the vector itself, and min_at reads the
    minimum over the non-zero entries.  Over a truncated Witt ring an entry
    can be 0 up to its precision with no determinate value; min_at then
    raises ValuationIndeterminate, as the entry's own val() does."""
    _, _, s, m, P = case
    vec = TaylorVector(P, s + m)
    assert vec.derivative(0).entries == vec.entries
    for b in range(P.degree() + 1):
        low = vec.derivative(b)
        assert low.poly is P.hasse_derivative(b) and low.point is vec.point
        want = TaylorVector(P.hasse_derivative(b), s + m).entries
        assert len(low.entries) == P.degree() + 1 - b
        assert low.entries[:len(want)] == want
        assert all(ev.is_exact_zero() for ev in low.entries[len(want):])
    beta = g(P.ring, 1) if P.ring.descriptor.rank == 1 else P.ring.descriptor.basis(0)
    if any(_val_or_none(ev) is None for ev in vec.entries if not ev.is_exact_zero()):
        with pytest.raises(ValuationIndeterminate):
            vec.min_at(beta)
        return
    level, ties = vec.min_at(beta)
    values = [ev.val() + beta.scale_unchecked(k) for k, ev in enumerate(vec.entries)
              if not ev.is_exact_zero()]
    assert values and all(cmp(level, v) <= 0 for v in values)
    assert [k for k, ev in enumerate(vec.entries) if not ev.is_exact_zero()
            and cmp(ev.val() + beta.scale_unchecked(k), level) == 0] == ties


def test_taylor_vector_knows_its_poly_and_point_and_moves_them_together():
    R = _SHIFT_RINGS["F9"]
    R3 = tring(3)
    P = poly(R3, t_pow(R3, 1, 2), R3.zero(), R3.one())  # y^2 + 2t
    s = t_pow(R3, 1, 1)
    vec = TaylorVector(P, s)
    assert vec.is_of(P, s)
    assert not vec.is_of(P, t_pow(R3, 1, 1)) and not vec.is_of(poly(*P.coeffs), s)
    assert TaylorVector(P, s, lowest=2).entries == [None, None, R3.one()]
    up = vec.coerce(R)
    assert up.poly == P.coerce(R) and up.point == s.coerce(R)
    assert up.entries == TaylorVector(P.coerce(R), s.coerce(R)).entries
    assert all(h.ring == R for h in up.entries)


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


def _linear_index(chain, beta):
    """index_for's reference: the first 1-based i with beta <= epsilon_i, by
    a scan, or len+1."""
    return next((i for i, e in enumerate(chain.entries, start=1) if cmp(beta, e.epsilon) <= 0),
                len(chain) + 1)


@st.composite
def _epsilon_chains(draw):
    """(chain, betas) over Q or the rank-2 group of weights 1 and sqrt(2): a
    chain whose entries differ only in epsilon (all that index_for reads), the
    epsilons non-decreasing with equal neighbours and INF possibly last; the
    betas below all, equal to each, between two neighbours, above all, and INF."""
    R = _SHIFT_RINGS[draw(st.sampled_from(["Q", "sqrt2"]))]
    distinct = sorted({_shift_exponent(draw, R) for _ in range(draw(st.integers(0, 6)))},
                      key=cmp_to_key(cmp))
    epsilons = [e for e in distinct for _ in range(draw(st.integers(1, 3)))]
    if draw(st.booleans()):
        epsilons.append(INF)
    y = ValPoly.variable(R)
    chain = KeyPolyChain(R, [ChainEntry(y, eps, 0, eps, 1, ()) for eps in epsilons])
    one = R.descriptor.basis(0)
    betas = epsilons + [INF] + [(a + b) / 2 for a, b in zip(distinct, distinct[1:])]
    betas += [distinct[0] - one, distinct[-1] + one] if distinct else [R.descriptor.zero()]
    return chain, betas


@settings(max_examples=150, deadline=None)
@given(_epsilon_chains())
def test_index_for_matches_a_linear_scan(case):
    chain, betas = case
    for beta in betas:
        assert chain.index_for(beta) == _linear_index(chain, beta)


def test_index_for_bisects_the_chain_of_a_long_run(monkeypatch):
    """Over the sq-q run at budget 64, whose chain grows to 65 entries, each
    index_for call on a chain of n entries makes at most ceil(log2(n + 1))
    epsilon comparisons, as do the calls at each epsilon of the final chain,
    below all, between two and at INF; a scan makes up to n."""
    from genpuiseux import cli, keypoly

    compares, calls = [0], []
    plain_cmp, plain_index = keypoly.cmp, KeyPolyChain.index_for

    def counted_cmp(a, b):
        compares[0] += 1
        return plain_cmp(a, b)

    def counted_index(chain, beta):
        before = compares[0]
        i = plain_index(chain, beta)
        calls.append((len(chain), compares[0] - before))
        assert i == _linear_index(chain, beta)
        return i

    monkeypatch.setattr(keypoly, "cmp", counted_cmp)
    monkeypatch.setattr(KeyPolyChain, "index_for", counted_index)
    chain = cli.run_expand(cli.parse_problem("char 0\npoly y^2 - 1 - t\n"), 64).chain
    eps = [e.epsilon for e in chain.entries]
    for beta in eps + [eps[0] - g(chain.ring, 1), (eps[30] + eps[31]) / 2, INF]:
        chain.index_for(beta)
    assert len(chain) == 65 and len(calls) > 2 * 65
    assert all(used <= math.ceil(math.log2(n + 1)) for n, used in calls)


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



@contextmanager
def _ends_within(seconds):
    """Fail the block when it runs past seconds: with SIGALRM where the
    platform has it, so that a loop that never ends fails instead of hanging,
    and by the clock after the block everywhere."""
    alarm = getattr(signal, "SIGALRM", None)

    def expired(signum, frame):
        raise AssertionError(f"did not end within {seconds} s")

    if alarm is not None:
        previous = signal.signal(alarm, expired)
        signal.setitimer(signal.ITIMER_REAL, seconds)
    start = time.perf_counter()
    try:
        yield
    finally:
        if alarm is not None:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(alarm, previous)
    assert time.perf_counter() - start < seconds


def test_standard_expansion_refuses_a_divisor_of_degree_zero():
    """A monic divisor of degree 0, the constant 1, leaves f as the quotient of
    every round, so an expansion in it never ends.  It is refused at once, as
    a non-monic divisor is: all three refusals end within 1 s."""
    R = tring()
    F = poly(R, -1 * (R.one() + t_pow(R, 1)), R.zero(), R.one())  # y^2 - 1 - t
    with _ends_within(1.0):
        for q in (ValPoly.const(R.one()), ValPoly.const(R.const(2)), poly(R, R.one(), R.const(2))):
            with pytest.raises(ValueError, match="monic key polynomial of degree >= 1"):
                standard_expansion(F, q)
    # division itself takes the constant 1: the quotient is f, the remainder 0
    quot, rem = F.divmod_monic(ValPoly.const(R.one()))
    assert quot == F and rem.is_zero()


@pytest.mark.parametrize("name", ["Q", "F9", "W(F5)/5^4"])
def test_a_raw_exact_monic_polynomial_is_read_with_no_one_built(monkeypatch, name):
    """is_monic meets the raw lead 1 of a raw-exact top coefficient with the
    int 1, so no coefficient one is built."""
    R = _SHIFT_RINGS[name]
    F = poly(R, t_pow(R, 1), t_pow(R, 2, 3), R.one())
    built, plain = [], FieldTower.one
    monkeypatch.setattr(FieldTower, "one", lambda tower: built.append(tower) or plain(tower))
    assert F.is_monic() and F.coeffs[-1].raw_exact()
    assert built == []


def _divmod_by_subtraction(f, q):
    """Division by the monic q as rounds of rem[k+i] = rem[k+i] - lead*q_i over
    every lower coefficient q_i, exact zeros included: the reference for
    ValPoly.divmod_monic."""
    d = q.degree()
    rem = list(f.coeffs)
    quot = [None] * max(0, len(rem) - d)
    while len(rem) > d:
        lead = rem.pop()
        k = len(rem) - d
        quot[k] = lead
        for i in range(d):
            rem[k + i] = rem[k + i] - lead * q.coeff(i)
    return ValPoly(f.ring, quot), ValPoly(f.ring, rem)


def _expansion_by_subtraction(f, q):
    cs = []
    while not f.is_zero():
        f, rem = _divmod_by_subtraction(f, q)
        cs.append(rem)
    return cs


# Q, F3, F9, W(F5) mod 5^4 and the rank-2 group with weights 1 and sqrt(2)
_DIVISION_RINGS = dict(((name, _SHIFT_RINGS[name]) for name in ("Q", "F9", "W(F5)/5^4", "sqrt2")),
                       F3=tring(3))


def _divisor_coeff(draw, R):
    """A lower coefficient of a key polynomial: the exact zero, one term,
    several terms, or a zero that carries a finite precision."""
    kind = draw(st.sampled_from(["zero", "one term", "terms", "zero with precision"]))
    if kind == "zero":
        return R.zero()
    if kind == "zero with precision":
        return R.zero(_shift_exponent(draw, R, 1), draw(st.booleans()))
    terms = [(_shift_exponent(draw, R), _shift_coeff(draw, R))
             for _ in range(1 if kind == "one term" else draw(st.integers(2, 3)))]
    return GenSeries(R, terms)


@st.composite
def _division_cases(draw):
    """(f, q): f of degree up to 6 with coefficients of finite precision among
    them, q monic of degree 1 to 3."""
    R = _DIVISION_RINGS[draw(st.sampled_from(sorted(_DIVISION_RINGS)))]
    f = ValPoly(R, [_shift_series(draw, R, exact=False) for _ in range(draw(st.integers(1, 7)))])
    q = ValPoly(R, [_divisor_coeff(draw, R) for _ in range(draw(st.integers(1, 3)))] + [R.one()])
    return f, q


def _value(c):
    try:
        return str(c.val())
    except ValuationIndeterminate as err:
        return f">= {err.bound}"


def _assert_same_coefficients(got, want):
    assert len(got.coeffs) == len(want.coeffs)
    for a, b in zip(got.coeffs, want.coeffs):
        assert a._raw == b._raw and a._raw_closed == b._raw_closed
        assert (a._raw_prec is INF) == (b._raw_prec is INF)
        assert a._raw_prec is INF or cmp(a._raw_prec, b._raw_prec) == 0
        assert _value(a) == _value(b)
        assert (a.prec is INF) == (b.prec is INF) and a.closed == b.closed
        assert a.prec is INF or cmp(a.prec, b.prec) == 0
        assert a.to_text() == b.to_text()


@settings(max_examples=200, deadline=None)
@given(_division_cases())
def test_division_matches_repeated_subtraction(case):
    """divmod_monic and standard_expansion, which skip q's exact-zero lower
    coefficients and update the remainder by one add_mul per lead and q_i,
    against rounds of rem - lead*q_i over every q_i: each coefficient has the
    same raw terms, value, precision, closedness and text.  The expansion's
    coefficients have degree below deg q, and sum c_j q^j gives back f below
    the precision of each side."""
    f, q = case
    for got, want in zip(f.divmod_monic(q), _divmod_by_subtraction(f, q)):
        _assert_same_coefficients(got, want)
    cs, want = standard_expansion(f, q), _expansion_by_subtraction(f, q)
    assert len(cs) == len(want)
    for c, w in zip(cs, want):
        _assert_same_coefficients(c, w)
        assert c.degree() < q.degree()
    back = ValPoly(f.ring, [])
    for j, c in enumerate(cs):
        back = back + c * q ** j
    assert len(back.coeffs) <= len(f.coeffs)
    for k, a in enumerate(f.coeffs):
        b = back.coeff(k)
        low = b if a.knows(b.prec, b.closed) else a
        assert _agree_below(a, b, low.prec, low.closed)


@contextmanager
def _counting_series_operations(monkeypatch):
    """Count the series products, sums, negations and add_mul calls made inside
    the block, by name."""
    counts = dict.fromkeys(("__mul__", "__add__", "__neg__", "add_mul"), 0)

    def counting(name, original):
        def counted(*args):
            counts[name] += 1
            return original(*args)
        return counted

    for name in counts:
        monkeypatch.setattr(GenSeries, name, counting(name, getattr(GenSeries, name)))
    yield counts
    monkeypatch.undo()


def test_expansions_in_key_polynomials_form_only_their_add_mul_steps(monkeypatch):
    """Where standard expansions save their series operations: in Q_1 = y,
    whose lower coefficient is the exact zero, the rounds form no product, sum,
    negation or add_mul; in y^2 + t, each lead popped from the remainder meets
    -t in exactly one add_mul, -t is formed once, and no product or sum is made
    outside add_mul."""
    R = tring()
    f = poly(R, R.const(3), R.const(2) + t_pow(R, 1), R.zero(),
             t_pow(R, Fraction(1, 2)), R.zero(), R.one() + t_pow(R, 1))
    y = ValPoly.variable(R)
    with _counting_series_operations(monkeypatch) as counts:
        cs = standard_expansion(f, y)
    assert counts == dict.fromkeys(counts, 0)
    assert [c.coeffs for c in cs] == [(c,) if not c.is_exact_zero() else () for c in f.coeffs]
    q = poly(R, t_pow(R, 1), R.zero(), R.one())  # y^2 + t
    with _counting_series_operations(monkeypatch) as counts:
        cs = standard_expansion(f, q)
    # degree 5 over degree 2: 4 leads, then 2 of the quotient's, then none
    assert counts == {"__mul__": 0, "__add__": 0, "__neg__": 1, "add_mul": 6}
    assert cs == _expansion_by_subtraction(f, q)


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


def _multiply_out(mono, chain, i):
    """A leading standard monomial ({k: e_k}, (gamma, a)) as a ValPoly."""
    exps, (gamma, a) = mono
    out = ValPoly.const(chain.ring.monomial(gamma, a))
    for k in range(1, i + 1):
        out = out * (chain.entry(k).poly ** exps.get(k, 0))
    return out


def _trial_division_ratio(num, den, chain, i):
    """num / den as the trial-division algorithm forms it: multiply both
    monomials out, peel the stage powers off with divmod_monic from the top
    stage down, then divide the leading terms of what is left."""
    num_c = _multiply_out(num, chain, i)
    den_c = _multiply_out(den, chain, i)
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
    out = ValPoly.const(chain.ring.monomial(ge_n - ge_d, cn * cd.inv()))
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
    # steps 1/16, 1/32 then 1/64, halving on: they accumulate at 63/64 + 1/64 = 1
    assert geometric_limit([e.epsilon for e in last], 2) == (g(R, Fraction(1, 64)), g(R, 1))


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
            rep = derivative_min_check(h, chain, i, root)
            if rep["nu_i"] is INF:
                continue
            assert rep["equal"], (i, h.to_text(), rep)
            checked += 1
    assert checked >= 150


def test_prop_min_trivial_cases():
    R, chain, root = _as_chain_with_root()
    q1 = chain.entry(1).poly
    rep = derivative_min_check(q1, chain, 1, root)
    assert rep["equal"]
    assert rep["nu_i"] == chain.entry(1).beta
    const = ValPoly.const(t_pow(R, 2, 1))
    rep = derivative_min_check(const, chain, 1, root)
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
