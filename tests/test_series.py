import random
import time
from contextlib import contextmanager
from fractions import Fraction
from functools import cmp_to_key

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from genpuiseux.coeff import CoeffElem, FieldTower, WittRing, _trim
from genpuiseux.errors import (
    DivisionByZero,
    NonUnit,
    ParseError,
    PrecisionExceeded,
    ValuationIndeterminate,
)
from genpuiseux.groups import INF, GroupDescriptor, GroupElement, cmp
from genpuiseux.series import GenSeries, SeriesRing, _cut, _prec_min, eval_poly, parse_series


def tring(char=0):
    desc = GroupDescriptor([1])
    tower = FieldTower.prime_field(char) if char else FieldTower.rationals()
    return SeriesRing(desc, tower)


def pring(p, prec=6):
    desc = GroupDescriptor([1])
    ring = WittRing(FieldTower.prime_field(p), prec)
    return SeriesRing(desc, ring)


def g(ring, q):
    return ring.descriptor.from_rational(Fraction(q))


def t_pow(ring, q, c=1):
    return ring.monomial(g(ring, q), c)


def _fraction(c):
    """The rational value of a base-constant coefficient, else None."""
    first, *rest = c.tower.leaves(c.rep)
    return None if any(rest) else Fraction(first)


@pytest.mark.parametrize("ring, p", [
    (tring(), 1),
    (tring(3), 3),
    (SeriesRing(GroupDescriptor([1]), FieldTower.prime_field(3).adjoin((1, 0, 1))), 3),
    (pring(5), 5),
], ids=["Q", "F3", "F9", "W(F5)"])
def test_char_exponent_is_read_from_the_coefficient_domain(ring, p):
    # the characteristic is held once, by the coefficient domain; the value
    # group's descriptor takes none
    assert ring.char_exponent == p
    with pytest.raises(TypeError):
        GroupDescriptor([1], char_exponent=p)


def test_val_simple():
    R = tring()
    f = t_pow(R, Fraction(3, 2)) + t_pow(R, 2)
    assert f.val() == g(R, Fraction(3, 2))


def test_val_zero_exact_is_inf():
    # v(0) = inf; the exact zero still has no leading term and no inverse
    R = tring()
    assert R.zero().val() is INF
    with pytest.raises(ValuationIndeterminate):
        R.zero().leading_term()
    for prec in ((), (g(R, 3),)):
        with pytest.raises(DivisionByZero):
            R.zero().inv(*prec)


def test_val_zero_bounded_raises_with_bound():
    R = tring()
    z = R.zero(prec=g(R, 3))
    with pytest.raises(ValuationIndeterminate) as err:
        z.val()
    assert err.value.bound == g(R, 3)


def test_val_after_carrying():
    # 5*p^(1/2) + p over Q_5: the coefficient 5 carries to p^(3/2), so v = 1
    R = pring(5)
    f = t_pow(R, Fraction(1, 2), 5) + t_pow(R, 1)
    assert f.val() == g(R, 1)
    assert dict(f.terms)[g(R, Fraction(3, 2))].residue() == R.tower.from_int(1)


def test_truncations_def_examples():
    R = tring()
    f = t_pow(R, Fraction(1, 2)) + t_pow(R, 1) + t_pow(R, Fraction(3, 2))
    open1 = f.truncate_open(g(R, 1))
    assert [e for e, _ in open1.terms] == [g(R, Fraction(1, 2))]
    closed1 = f.truncate_closed(g(R, 1))
    assert [e for e, _ in closed1.terms] == [g(R, Fraction(1, 2)), g(R, 1)]
    sl = f.slice(g(R, Fraction(1, 2)), g(R, Fraction(3, 2)))
    assert [e for e, _ in sl.terms] == [g(R, Fraction(1, 2)), g(R, 1)]
    sl2 = f.slice(g(R, 1), g(R, Fraction(3, 2)))
    assert [e for e, _ in sl2.terms] == [g(R, 1)]
    # the window [beta, beta) is empty and refused, as is one running backwards
    for lo, hi in ((1, 1), (Fraction(3, 2), 1)):
        with pytest.raises(ValueError, match="slice needs beta < beta2"):
            f.slice(g(R, lo), g(R, hi))


def test_truncation_composition_identity():
    rng = random.Random(3)
    R = tring()
    for _ in range(100):
        exps = sorted({Fraction(rng.randint(0, 20), rng.choice([1, 2, 4])) for _ in range(8)})
        f = R.zero()
        for e in exps:
            f = f + t_pow(R, e, rng.randint(1, 5))
        cuts = sorted({Fraction(rng.randint(1, 22), 2) for _ in range(2)})
        if len(cuts) < 2 or cuts[0] == cuts[1]:
            continue
        b1, b2 = g(R, cuts[0]), g(R, cuts[1])
        # Def identity: the open truncation at b1 plus the [b1, b2) window
        # carries exactly the terms of the open truncation at b2 (the sum's
        # stored precision is the weaker of the two, so compare term unions).
        lhs_terms = list(f.truncate_open(b1).terms + f.slice(b1, b2).terms)
        R.descriptor.sort_terms(lhs_terms)
        rhs = f.truncate_open(b2)
        assert lhs_terms == list(rhs.terms)
        summed = f.truncate_open(b1) + f.slice(b1, b2)
        assert list(summed.terms) == [t for t in rhs.terms
                                      if t[0] < summed.prec]


def test_precision_exceeded_on_truncation():
    R = tring()
    f = t_pow(R, 1).truncate_open(g(R, 2))
    with pytest.raises(PrecisionExceeded):
        f.truncate_open(g(R, 3))
    with pytest.raises(PrecisionExceeded):
        f.truncate_closed(g(R, 2))  # boundary term unknown for open prec


def test_mul_classic():
    R = tring()
    one = R.one()
    f = one + t_pow(R, 1)
    gg = one - t_pow(R, 1)
    prod = f * gg
    assert prod == one - t_pow(R, 2)


def test_negative_power_raises():
    # n >> 1 never reaches 0 for n < 0, so the square-and-multiply loop must refuse
    for R in (tring(), pring(5)):
        s = R.one() + R.uniformizer()
        with pytest.raises(ValueError):
            R.uniformizer() ** -1
        with pytest.raises(ValueError):
            s ** -3
        assert s ** 0 == R.one()
        assert s ** 2 == s * s


def test_inv_geometric():
    R = tring()
    f = R.one() + t_pow(R, 1)
    inv = f.inv(g(R, 3))
    expect = (R.one() - t_pow(R, 1) + t_pow(R, 2)).truncate_open(g(R, 3))
    assert inv == expect
    assert (f * inv).truncate_open(g(R, 3)) == R.one().truncate_open(g(R, 3))


def test_inv_nonunit():
    R = tring()
    with pytest.raises(NonUnit):
        t_pow(R, 1).inv(g(R, 3))


def test_padic_square_with_carrying():
    # p = 2: (1 + p^(1/2))^2 = 1 + p + 2 p^(1/2) -> 1 + p + p^(3/2)
    R = pring(2)
    f = R.one() + t_pow(R, Fraction(1, 2))
    sq = f * f
    exps = [e for e, _ in sq.terms]
    assert exps == [g(R, 0), g(R, 1), g(R, Fraction(3, 2))]
    assert all(c.digits()[0] == R.tower.from_int(1) for _, c in sq.terms)


def test_normalize_examples():
    # p = 2: 3*p^(1/2) -> p^(1/2) + p^(3/2)
    R = pring(2)
    f = t_pow(R, Fraction(1, 2), 3)
    assert [e for e, _ in f.terms] == [g(R, Fraction(1, 2)), g(R, Fraction(3, 2))]
    # p = 3: coefficient 5 at exponent 0 -> terms {0: 2, 1: 1}
    R3 = pring(3)
    f3 = t_pow(R3, 0, 5)
    assert [(e, c.residue()) for e, c in f3.terms] == [
        (g(R3, 0), R3.tower.from_int(2)),
        (g(R3, 1), R3.tower.from_int(1)),
    ]


def test_normalize_idempotent_random():
    rng = random.Random(17)
    R = pring(3, prec=5)
    for _ in range(500):
        terms = []
        for _ in range(rng.randint(0, 6)):
            e = Fraction(rng.randint(0, 12), rng.choice([1, 3]))
            terms.append((g(R, e), R.coeffs.from_int(rng.randrange(1, 3 ** 5))))
        f = GenSeries(R, terms)
        f2 = GenSeries(R, list(f.terms), f.prec, f.closed)
        assert f2 == f


def test_normalize_agrees_with_integer_arithmetic():
    # Each coefficient is a vector of integer leaves (one over F3, two over
    # F4 = F2[w]); carrying acts leaf by leaf, so every leaf of the carried
    # series must spell the integer sum of that leaf's column in base p.
    rng = random.Random(29)
    N = 6
    t4 = FieldTower.prime_field(2).adjoin((1, 1, 1))  # w^2 + w + 1 = 0
    w = CoeffElem.generator(t4)
    for p, R, rounds in ((3, pring(3, prec=N), 1000),
                         (2, SeriesRing(GroupDescriptor([1]),
                                              WittRing(t4, N)), 400)):
        basis = [R.coeffs.one()] if R.tower.height == 0 else [R.coeffs.one(), R.coeffs.lift(w)]
        width = len(basis)

        def leaves(rep):
            rep = rep if isinstance(rep, tuple) else (rep,)
            return list(rep) + [0] * (width - len(rep))

        for _ in range(rounds):
            # single-digit leaves too: a single-digit lowest term puts the
            # horizon more than N above it, so digits past N must survive
            pairs = [(rng.randint(0, 4), [rng.randrange(rng.choice((p, p ** N)))
                                          for _ in range(width)])
                     for _ in range(rng.randint(1, 4))]
            # duplicate exponents merge mod p^N before carrying, mirroring the ring
            merged = {}
            for n, cs in pairs:
                old = merged.get(n, [0] * width)
                merged[n] = [(a + b) % p ** N for a, b in zip(old, cs)]
            merged = {n: cs for n, cs in merged.items() if any(cs)}
            totals = [sum(cs[i] * p ** n for n, cs in merged.items()) for i in range(width)]
            terms = [(g(R, n), sum((R.coeffs.from_int(c) * b for c, b in zip(cs, basis)),
                                   R.coeffs.zero())) for n, cs in pairs]
            f = GenSeries(R, terms).normalize()
            rebuilt = [0] * width
            for e, c in f.terms:
                q = e.rational_value()
                assert q.denominator == 1
                digit = leaves(c.rep)
                assert all(0 <= d < p for d in digit) and any(digit)
                for i, d in enumerate(digit):
                    rebuilt[i] += d * p ** int(q)
            multi = [n for n, cs in merged.items() if max(cs) >= p]
            if multi:
                horizon = min(n + N for n in multi)
                assert f.prec is not INF and f.prec.rational_value() == horizon
                assert rebuilt == [t % p ** horizon for t in totals]
            else:
                assert f.prec is INF
                assert rebuilt == totals


def test_leading_term_law():
    rng = random.Random(41)
    R = tring(char=5)
    for _ in range(500):
        def rand_series():
            exps = rng.sample(range(0, 21), rng.randint(1, 5))
            terms = [(g(R, Fraction(e, 2)), R.tower.from_int(rng.randint(1, 4)))
                     for e in exps]
            return GenSeries(R, terms)

        f, h = rand_series(), rand_series()
        vf, cf = f.leading_term()
        vh, ch = h.leading_term()
        vp, cp = (f * h).leading_term()
        assert vp == vf + vh
        assert cp == cf * ch


def test_eval_poly_exact_root():
    R = tring()
    F = [(-1) * t_pow(R, 3), R.zero(), R.one()]  # y^2 - t^3
    s = t_pow(R, Fraction(3, 2))
    assert eval_poly(F, s).is_exact_zero()


def test_eval_poly_artin_schreier_residual():
    # F = y^2 + t y + t over F_2 at s = t^(1/2) + t^(3/4): residual value 7/4.
    # Oracle by direct expansion: s^2 = t + t^(3/2); t*s = t^(3/2) + t^(7/4);
    # sum with t leaves exactly t^(7/4).
    R = tring(char=2)
    F = [t_pow(R, 1), t_pow(R, 1), R.one()]
    s = t_pow(R, Fraction(1, 2)) + t_pow(R, Fraction(3, 4))
    r = eval_poly(F, s)
    assert r.val() == g(R, Fraction(7, 4))


def test_eval_poly_identity():
    R = tring()
    s = t_pow(R, 1) + t_pow(R, 2)
    assert eval_poly([R.zero(), R.one()], s) == s


def test_ring_axioms_with_precision():
    rng = random.Random(59)
    R = tring(char=3)
    for _ in range(200):
        def rand_series():
            terms = []
            for _ in range(rng.randint(0, 4)):
                e = Fraction(rng.randint(0, 8), rng.choice([1, 2]))
                terms.append((g(R, e), R.tower.from_int(rng.randint(0, 2))))
            prec = INF if rng.random() < 0.5 else g(R, Fraction(rng.randint(6, 14), 2))
            return GenSeries(R, terms, prec)

        f, h, k = rand_series(), rand_series(), rand_series()

        def overlap_equal(a, b):
            # laws hold on the shared precision; cancellation can make one
            # side's precision estimate sharper than the other's
            if a.prec is INF and b.prec is INF:
                return a == b
            cut = a.prec if b.prec is INF else (
                b.prec if a.prec is INF else min(a.prec, b.prec))
            return a.truncate_open(cut) == b.truncate_open(cut)

        assert overlap_equal((f + h) + k, f + (h + k))
        assert overlap_equal((f * h) * k, f * (h * k))
        assert overlap_equal(f * (h + k), f * h + f * k)


def test_val_additive_on_products():
    rng = random.Random(61)
    R = tring(char=0)
    for _ in range(200):
        def rand_series():
            terms = []
            for _ in range(rng.randint(1, 4)):
                e = Fraction(rng.randint(0, 8), rng.choice([1, 2]))
                terms.append((g(R, e), R.tower.from_int(rng.randint(1, 7))))
            return GenSeries(R, terms)

        f, h = rand_series(), rand_series()
        assert (f * h).val() == f.val() + h.val()
        s = f + h
        if s.terms:
            assert s.val() >= min(f.val(), h.val())
            if f.val() != h.val():
                assert s.val() == min(f.val(), h.val())


def test_text_form_examples():
    R = tring()
    f = R.one() - t_pow(R, 2)
    assert f.to_text() == "1 - t^2"
    s = t_pow(R, Fraction(3, 2))
    assert s.to_text() == "t^(3/2)"
    tr = (R.one() + t_pow(R, 1)).truncate_open(g(R, 3))
    assert tr.to_text() == "1 + t + O(t^3)"
    cl = (R.one() + t_pow(R, 1)).truncate_closed(g(R, 1))
    assert cl.to_text() == "1 + t + O[t]"


def test_text_roundtrip_random():
    rng = random.Random(71)
    R = tring(char=0)
    Rp = pring(2, 5)
    for ring, char in ((R, 0), (Rp, 2)):
        for _ in range(200):
            terms = []
            for _ in range(rng.randint(0, 5)):
                e = Fraction(rng.randint(0, 10), rng.choice([1, 2, 4]))
                c = rng.randint(-4, 4) if char == 0 else rng.randint(1, 1)
                if c:
                    terms.append((ring.descriptor.from_rational(e), ring.coeffs.from_int(c)))
            prec = INF if rng.random() < 0.5 else ring.descriptor.from_rational(
                Fraction(rng.randint(11, 15), 1))
            f = GenSeries(ring, terms, prec, closed=bool(rng.random() < 0.3 and prec is not INF))
            assert parse_series(ring, f.to_text()) == f


def test_text_roundtrip_tower_coefficients():
    t4 = FieldTower.prime_field(2).adjoin((1, 1, 1))  # w^2 + w + 1 = 0
    w = CoeffElem.generator(t4)
    desc = GroupDescriptor([1])
    R = SeriesRing(desc, t4)
    one = t4.one()
    f = GenSeries(R, [(g(R, Fraction(1, 2)), w),
                      (g(R, 2), w + one)])
    assert parse_series(R, f.to_text()) == f
    # a generator constant term, and negative exponents
    for terms, text in (
            ([(0, w), (1, one)], "w^1 + t"),
            ([(0, w), (1, w + one)], "w^1 + (w^1 + 1)*t"),
            ([(0, w), (Fraction(1, 2), w)], "w^1 + w^1*t^(1/2)"),
            ([(-2, one), (Fraction(-1, 2), w), (0, w + one)],
             "t^-2 + w^1*t^(-1/2) + (w^1 + 1)")):
        f = GenSeries(R, [(g(R, e), c) for e, c in terms])
        assert f.to_text() == text
        assert parse_series(R, text) == f
    # a constant term with a negative rational part over Q(sqrt 2)
    q2 = FieldTower.rationals().adjoin(((-2, 1), (), (1, 1)))  # w^2 - 2 = 0
    r = CoeffElem.generator(q2)
    R2 = SeriesRing(GroupDescriptor([1]), q2)
    minus3 = q2.from_int(-3)
    f = GenSeries(R2, [(g(R2, -1), r + minus3), (g(R2, 0), r + minus3),
                       (g(R2, 1), minus3)], g(R2, 2), closed=True)
    text = f.to_text()
    assert text == "(w^1 + -3)*t^-1 + (w^1 + -3) - 3*t + O[t^2]"
    assert parse_series(R2, text) == f


def test_text_roundtrip_height_three():
    # Q(sqrt 2, sqrt 3, sqrt 5): each generator prints under its own stage name
    tower = FieldTower.rationals()
    for d in (2, 3, 5):
        tower = tower.adjoin((tower.rep_from_int(-d), tower.rep_zero(), tower.rep_one()))
    gens = [CoeffElem.generator(tower, k) for k in range(3)]
    assert [c.to_text() for c in gens] == ["w^1", "w2^1", "w3^1"]
    assert (gens[0] * gens[2] + gens[1]).to_text() == "w^1*w3^1 + w2^1"
    R = SeriesRing(GroupDescriptor([1]), tower)
    f = GenSeries(R, [(g(R, 1), gens[0]), (g(R, 2), gens[2])])
    assert f.to_text() == "w^1*t + w3^1*t^2"
    assert parse_series(R, f.to_text()) == f


def test_irrational_exponent_text_roundtrip():
    desc = GroupDescriptor([(1, 0), (0, 1)], sqrt_disc=2)
    R = SeriesRing(desc, FieldTower.rationals())
    e = desc.element([Fraction(1, 2), Fraction(1, 3)])
    f = GenSeries(R, [(e, R.coeffs.from_int(2))])
    text = f.to_text()
    assert "g1" in text and "g2" in text
    assert parse_series(R, text) == f


def test_generator_index_outside_rank_is_parse_error():
    desc = GroupDescriptor([(1, 0), (0, 1)], sqrt_disc=2)
    R = SeriesRing(desc, FieldTower.rationals())
    assert parse_series(R, "t^(1*g2)") == GenSeries(R, [(desc.element([0, 1]), R.coeffs.one())])
    for name in ("g0", "g-1", "g3"):
        with pytest.raises(ParseError) as err:
            parse_series(R, f"t^(1*{name})")
        assert f"bad generator name {name!r}" in str(err.value)


def test_parse_series_whitespace_and_bad_numbers():
    R = tring()
    f = R.one() + t_pow(R, Fraction(1, 2), 3)
    assert parse_series(R, "1 +\t3*t^(1/2)") == f
    assert parse_series(R, "1\u00a0+ 3*t^(1/2)") == f
    with pytest.raises(ParseError) as err:
        parse_series(R, "1 + 3/0*t")
    assert "bad number '3/0'" in str(err.value)


def test_parse_generator_powers():
    f4 = FieldTower.prime_field(2).adjoin((1, 1, 1))  # w^2 + w + 1 = 0
    w = CoeffElem.generator(f4)
    R = SeriesRing(GroupDescriptor([1]), f4)
    t = t_pow(R, 1)
    assert parse_series(R, "(w^0)*t") == t
    assert parse_series(R, "(w^1)*t") == t.scale(w)
    assert parse_series(R, "(w^2)*t") == t.scale(w + f4.one())
    assert parse_series(R, "(w^3)*t") == t
    for bad in ("(w^-1)*t", "(w^3/2)*t", "(w^-2/3)*t"):
        with pytest.raises(ParseError) as err:
            parse_series(R, bad)
        assert "generator powers must be non-negative integers" in str(err.value)


def test_padic_arithmetic_crosschecks_witt():
    # add/mul of normalized Z-supported series agree with WittElem arithmetic
    rng = random.Random(97)
    p, N = 3, 6
    R = pring(p, prec=N)
    def as_int(f, window):
        total = 0
        for e, c in f.terms:
            q = e.rational_value()
            total += int(_fraction(c.digits()[0])) * p ** int(q)
        return total % p ** window

    def digits_int(w):
        return sum(int(_fraction(d)) * p ** k for k, d in enumerate(w.digits()))

    for _ in range(300):
        a_i = rng.randrange(1, p ** 4)
        b_i = rng.randrange(1, p ** 4)
        fa = GenSeries(R, [(g(R, 0), R.coeffs.from_int(a_i))]).normalize()
        fb = GenSeries(R, [(g(R, 0), R.coeffs.from_int(b_i))]).normalize()
        wa, wb = R.coeffs.from_int(a_i), R.coeffs.from_int(b_i)
        s = fa + fb
        m = fa * fb
        window_s = N if s.prec is INF else int(s.prec.rational_value())
        window_m = N if m.prec is INF else int(m.prec.rational_value())
        ws = wa + wb
        wm = wa * wb
        assert as_int(s, window_s) == (a_i + b_i) % p ** window_s
        assert as_int(m, window_m) == (a_i * b_i) % p ** window_m
        assert digits_int(ws) == (a_i + b_i) % p ** N
        assert digits_int(wm) == (a_i * b_i) % p ** N


# -- the sorted-term fast paths against the general constructor -----------------------
#
# Every operation builds its raw terms without re-sorting them.  The oracle
# below is the general construction (merge equal exponents, drop zero
# coefficients, sort, keep what the precision knows) applied to the plain
# formulas of each operation on (raw, prec, closed) triples.


def _build(ring, terms, prec, closed):
    compare = ring.descriptor.compare
    keep = 1 if closed else 0
    merged = {}
    for e, c in terms:
        merged[e] = merged[e] + c if e in merged else c
    raw = [(e, c) for e, c in merged.items()
           if not c.is_zero() and (prec is INF or compare(e, prec) < keep)]
    raw.sort(key=cmp_to_key(lambda x, y: compare(x[0], y[0])))
    return tuple(raw), prec, bool(closed) and prec is not INF


def _triple(f):
    return f._raw, f._raw_prec, f._raw_closed


def _weaker(ring, p1, p2):
    """The weaker of two (bound, closed) precisions."""
    if p1[0] is INF or p2[0] is INF:
        return p2 if p1[0] is INF else p1
    s = ring.descriptor.compare(p1[0], p2[0])
    return p1 if s < 0 or (s == 0 and not p1[1]) else p2


def _o_add(ring, x, y):
    return _build(ring, x[0] + y[0], *_weaker(ring, x[1:], y[1:]))


def _o_neg(ring, x):
    return _build(ring, [(e, -c) for e, c in x[0]], *x[1:])


def _o_mul_prec(ring, x, y):
    def shifted(p, v):
        return (INF, False) if p[0] is INF or v is INF else (p[0] + v, p[1])

    vx = x[0][0][0] if x[0] else x[1]
    vy = y[0][0][0] if y[0] else y[1]
    return _weaker(ring, shifted(x[1:], vy), shifted(y[1:], vx))


def _o_mul(ring, x, y):
    if not x[0] and x[1] is INF or not y[0] and y[1] is INF:
        return (), INF, False
    products = [(e1 + e2, c1 * c2) for e1, c1 in x[0] for e2, c2 in y[0]]
    return _build(ring, products, *_o_mul_prec(ring, x, y))


def _assert_raw(f, expected):
    """f keeps the raw invariant and its raw triple equals expected."""
    compare = f.ring.descriptor.compare
    raw, prec, closed = _triple(f)
    assert isinstance(raw, tuple)
    assert all(compare(x[0], y[0]) < 0 for x, y in zip(raw, raw[1:]))
    assert not any(c.is_zero() for _, c in raw)
    keep = 1 if closed else 0
    assert prec is not INF or not closed
    assert prec is INF or all(compare(e, prec) < keep for e, _ in raw)
    eraw, eprec, eclosed = expected
    assert len(raw) == len(eraw)
    assert all(x[0] == y[0] and x[1] == y[1] for x, y in zip(raw, eraw))
    assert (prec is INF) == (eprec is INF)
    assert prec is INF or compare(prec, eprec) == 0
    assert closed == eclosed


def _qw_ring():
    return SeriesRing(GroupDescriptor([1]), FieldTower.rationals().adjoin(((-2, 1), (), (1, 1))))


def _sqrt2_ring():
    return SeriesRing(GroupDescriptor([(1, 0), (0, 1)], sqrt_disc=2), FieldTower.rationals())


# F2, Q, Q(w) with w^2 = 2, W(F5) mod 25 (so 5*5 wraps to zero), and the
# rank-2 group with weights 1 and sqrt(2).
_RINGS = {"F2": tring(2), "Q": tring(), "Q(w)": _qw_ring(), "W(F5)": pring(5, prec=2),
          "sqrt2": _sqrt2_ring()}


def _exponent(draw, ring, dens=st.sampled_from([1, 2, 3, 4, 9])):
    desc = ring.descriptor
    if desc.rank == 2:
        return desc.element([Fraction(draw(st.integers(-2, 6)), 2), draw(st.integers(-1, 2))])
    return desc.from_rational(Fraction(draw(st.integers(-2, 8)), draw(dens)))


def _coeff(draw, ring):
    cs = ring.coeffs
    c = cs.from_int(draw(st.sampled_from([1, -1, 2, 3, -4, 5, 10, -15])))
    if ring.tower.height:
        c = c + cs.lift(CoeffElem.generator(ring.tower)) * cs.from_int(draw(st.integers(-2, 2)))
    return c


def _terms(draw, ring, max_size=5):
    return [(_exponent(draw, ring), _coeff(draw, ring))
            for _ in range(draw(st.integers(0, max_size)))]


def _prec(draw, ring):
    if draw(st.booleans()):
        return INF, False
    # a denominator of its own, often one that no term has
    return _exponent(draw, ring, st.integers(1, 12)), draw(st.booleans())


def _series(draw, ring, terms=None):
    terms = _terms(draw, ring) if terms is None else terms
    return GenSeries(ring, terms, *_prec(draw, ring))


@st.composite
def _ring_and_pair(draw):
    """Two series over one ring; the second often cancels terms of the first."""
    ring = _RINGS[draw(st.sampled_from(sorted(_RINGS)))]
    first = _terms(draw, ring)
    second = _terms(draw, ring) + [(e, -c) for e, c in first if draw(st.booleans())]
    return ring, _series(draw, ring, first), _series(draw, ring, second)


@st.composite
def _ring_and_series(draw):
    ring = _RINGS[draw(st.sampled_from(sorted(_RINGS)))]
    return ring, _series(draw, ring)


@settings(max_examples=300, deadline=None)
@given(_ring_and_series())
def test_text_roundtrip_random_over_every_ring(case):
    """test_text_roundtrip_random's property over each ring above, the
    rank-2 group's g-coordinate exponents and bounds included."""
    ring, s = case
    assert parse_series(ring, s.to_text()) == s


def test_one_character_deletions_of_rank_2_text_parse_or_are_parse_errors():
    ring = _RINGS["sqrt2"]
    d, cs = ring.descriptor, ring.coeffs
    s = GenSeries(ring, [(d.element([Fraction(-1, 2), 1]), cs.from_int(3)),
                         (d.element([2, Fraction(-1, 3)]), cs.from_int(-1)),
                         (d.element([0, 2]), cs.one())], d.element([5, Fraction(1, 2)]), True)
    text = s.to_text()
    assert text.count("*g2") == 4 and text.endswith("]")
    parsed = 0
    for i in range(len(text)):
        try:
            parse_series(ring, text[:i] + text[i + 1:])
            parsed += 1
        except ParseError:
            pass
    assert 0 < parsed < len(text)


def test_series_text_powers_are_bounded_before_they_are_formed():
    # the rule arith applies at its ^, counted over every coordinate
    start = time.perf_counter()
    with pytest.raises(ParseError, match="a power of up to 3001 terms is above the limit 512"):
        parse_series(tring(), "(1 + t^(1/1000))^3000")
    assert time.perf_counter() - start < 1.0
    ring = _RINGS["sqrt2"]
    with pytest.raises(ParseError, match="a power of up to 601 terms"):
        parse_series(ring, "(1 + t^(1*g2))^600")
    assert len(parse_series(ring, "(1 + t^(1*g2))^511").terms) == 512


def test_series_text_products_are_bounded_before_they_are_formed():
    # the rule arith and poly lines apply at a *: 511 factors of (1 + t) make
    # 512 terms, the 512th would make 513
    start = time.perf_counter()
    with pytest.raises(ParseError, match="a product of up to 513 terms is above the limit 512"):
        parse_series(tring(), "*".join(["(1 + t)"] * 1600))
    assert time.perf_counter() - start < 2.0
    # sparse exponents: the count is the lesser of the ways to pick terms
    # and the exponents' lattice, whose spacing is the gcd of the differences
    with pytest.raises(ParseError, match="a product of up to 1024 terms is above the limit 512"):
        parse_series(tring(), "*".join(f"(1 + t^{100 * 2 ** i})" for i in range(10)))
    assert len(parse_series(tring(), "*".join(["(1 + t^100)"] * 8)).terms) == 9
    assert len(parse_series(tring(), "(1 + t^1000)*t^1000*(1 + t^1000)").terms) == 3
    assert len(parse_series(tring(), "(1 + t^1000)^2").terms) == 3
    assert len(parse_series(tring(), "(1 + t^2 + t^4)^128").terms) == 257
    # a one-term factor grows no product, whatever its exponent
    assert len(parse_series(tring(), "(1 + t^1000)*t^1000*3").terms) == 2


@contextmanager
def _counting_products(ring):
    """Count the coefficient products formed inside the block: each ``__mul__``
    and each fused ``add_mul``."""
    cls = type(ring.coeffs.one())
    originals = {name: getattr(cls, name) for name in ("__mul__", "add_mul")}
    count = [0]

    def counting(original):
        def counted(x, *args):
            count[0] += 1
            return original(x, *args)
        return counted

    for name, original in originals.items():
        setattr(cls, name, counting(original))
    try:
        yield count
    finally:
        for name, original in originals.items():
            setattr(cls, name, original)


@settings(max_examples=300, deadline=None)
@given(_ring_and_pair())
def test_merge_matches_the_general_constructor(case):
    ring, a, b = case
    x, y = _triple(a), _triple(b)
    _assert_raw(a + b, _o_add(ring, x, y))
    _assert_raw(a - b, _o_add(ring, x, _o_neg(ring, y)))
    _assert_raw(b + a, _o_add(ring, y, x))
    _assert_raw(-a, _o_neg(ring, x))
    # full cancellation leaves no term and keeps the precision
    _assert_raw(a - a, ((), *x[1:]))
    _assert_raw(a + (-a), ((), *x[1:]))


@settings(max_examples=300, deadline=None)
@given(_ring_and_pair(), st.sampled_from([0, 1, -1, 2, 5, 10]))
def test_product_and_scale_match_the_general_constructor(case, n):
    ring, a, b = case
    x, y = _triple(a), _triple(b)
    expected = _o_mul(ring, x, y)
    if a.is_exact_zero() or b.is_exact_zero():
        within = 0
    else:
        prec, closed = _o_mul_prec(ring, x, y)
        keep = 1 if closed else 0
        within = sum(1 for e1, _ in x[0] for e2, _ in y[0]
                     if prec is INF or ring.descriptor.compare(e1 + e2, prec) < keep)
    with _counting_products(ring) as count:
        product = a * b
    _assert_raw(product, expected)
    # rows are sorted, so no product beyond the precision is formed
    assert count[0] == within
    _assert_raw(b * a, _o_mul(ring, y, x))
    _assert_raw(a.scale(n), _build(ring, [(e, c * n) for e, c in x[0]], *x[1:]))


@settings(max_examples=400, deadline=None)
@given(_ring_and_pair(), st.data())
def test_add_mul_matches_the_sum_of_the_product(case, data):
    """a.add_mul(b, m) for a one-term m, exact or of finite precision, zero,
    negative or one: the raw terms, precision and closedness of a + b*m, with no
    coefficient product past the precision."""
    ring, a, b = case
    e, c = _exponent(data.draw, ring), _coeff(data.draw, ring)
    kind = data.draw(st.sampled_from(["exact", "negative", "finite", "zero", "one"]))
    if kind == "one":  # b's negated terms of a cancel
        m = ring.one()
    elif kind == "zero":
        m = ring.monomial(e, 0)
        assert m.is_exact_zero()
    elif kind == "finite":
        m = GenSeries(ring, [(e, c)], *_prec(data.draw, ring))
    else:
        m = ring.monomial(e, -c if kind == "negative" else c)
    x, y, z = _triple(a), _triple(b), _triple(m)
    expected = _o_add(ring, x, _o_mul(ring, y, z))
    _, prec, closed = expected
    keep = 1 if closed else 0
    within = sum(1 for e1, _ in y[0] for e2, _ in z[0]
                 if prec is INF or ring.descriptor.compare(e1 + e2, prec) < keep)
    with _counting_products(ring) as count:
        fused = a.add_mul(b, m)
    _assert_raw(fused, expected)
    _assert_raw(fused, _triple(a + b * m))
    assert count[0] == within



@settings(max_examples=300, deadline=None)
@given(_ring_and_pair(), st.data())
def test_add_mul_with_a_longer_m_is_the_sum_of_the_product(case, data):
    """a.add_mul(b, m) for an m of two or more raw terms, exact or of finite
    precision, over t-adic and p-adic rings, with a and b as drawn, either one
    the exact zero or a zero of finite precision: the raw terms, precision
    and closedness of a + b*m."""
    ring, a, b = case
    m = _series(data.draw, ring, _terms(data.draw, ring) + _terms(data.draw, ring))
    assume(len(m._raw) > 1)
    kind = data.draw(st.sampled_from(["drawn", "a zero", "b zero", "a bounded zero",
                                      "b bounded zero"]))
    if kind.endswith("zero"):
        zero = ring.zero(*(_exponent(data.draw, ring), data.draw(st.booleans()))
                         if kind.endswith("bounded zero") else ())
        a, b = (zero, b) if kind.startswith("a") else (a, zero)
    x, y, z = _triple(a), _triple(b), _triple(m)
    fused = a.add_mul(b, m)
    _assert_raw(fused, _o_add(ring, x, _o_mul(ring, y, z)))
    _assert_raw(fused, _triple(a + b * m))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_truncations_and_slice_match_the_general_constructor(data):
    ring = _RINGS[data.draw(st.sampled_from(sorted(_RINGS)))]
    f = _series(data.draw, ring)
    lo, hi = _exponent(data.draw, ring), _exponent(data.draw, ring)
    compare = ring.descriptor.compare
    terms, prec, closed = f.terms, f.prec, f.closed
    _assert_raw(f.normalize(), _build(ring, terms, prec, closed))
    open_ok = prec is INF or compare(hi, prec) <= 0
    if open_ok:
        _assert_raw(f.truncate_open(hi), _build(ring, terms, hi, False))
    else:
        with pytest.raises(PrecisionExceeded):
            f.truncate_open(hi)
    if prec is INF or compare(hi, prec) < 0 or (compare(hi, prec) == 0 and closed):
        _assert_raw(f.truncate_closed(hi), _build(ring, terms, hi, True))
    else:
        with pytest.raises(PrecisionExceeded):
            f.truncate_closed(hi)
    if compare(lo, hi) < 0 and open_ok:
        window = [(e, c) for e, c in terms if compare(e, lo) >= 0]
        _assert_raw(f.slice(lo, hi), _build(ring, window, hi, False))
    _assert_raw(f.exact(), _build(ring, terms, INF, False))


def _assert_exact_cut(s):
    """s.exact() keeps s's carried terms at precision INF, as the general
    constructor builds them."""
    cut = s.exact()
    assert cut.prec is INF and not cut.closed
    assert len(cut.terms) == len(s.terms)
    assert all(x[0] == y[0] and x[1] == y[1] for x, y in zip(cut.terms, s.terms))
    general = GenSeries(s.ring, list(s.terms))
    assert cut == general
    _assert_raw(cut, _triple(general))


def test_exact_cut_keeps_the_carried_terms():
    # W(F5) mod 25 with multi-digit raw terms: 7 = 2 + 1*5 and 13 = 3 + 2*5
    # carry, and the carry clamps the precision; the cut is exact
    w5 = pring(5, prec=2)
    s = GenSeries(w5, [(g(w5, 0), w5.coeffs.from_int(7)),
                       (g(w5, Fraction(1, 2)), w5.coeffs.from_int(13))])
    assert s.prec is not INF and len(s.terms) == 4
    _assert_exact_cut(s)
    # the rank-2 group with weights 1 and sqrt(2)
    r2 = _sqrt2_ring()
    d, one = r2.descriptor, r2.coeffs.one()
    _assert_exact_cut(GenSeries(r2, [(d.element([0, 1]), one), (d.element([1, 0]), -one),
                                     (d.element([Fraction(1, 2), 0]), one)]))
    # a finite precision is dropped
    q = tring()
    s = GenSeries(q, [(g(q, 1), q.coeffs.from_int(2)), (g(q, 2), q.coeffs.one())], g(q, 3), True)
    assert s.prec is not INF
    _assert_exact_cut(s)


# The rings above plus F3 -> F9 and W(F5) mod 5^4, where a coefficient drawn
# times 25 is a zero divisor (25*25 = 0) and a multi-digit one carries.
_EVAL_RINGS = dict(_RINGS, **{
    "F9": SeriesRing(GroupDescriptor([1]),
                     FieldTower.prime_field(3).adjoin((1, 0, 1))),
    "W(F5)/5^4": pring(5, prec=4)})


def _eval_series(draw, ring, exact):
    terms = [(e, c * ring.coeffs.from_int(draw(st.sampled_from([1, 5, 25]))))
             for e, c in _terms(draw, ring, 3)]
    return GenSeries(ring, terms, *((INF, False) if exact else _prec(draw, ring)))


# F9 under F81 = F9[v]/(v^2 - (1 + w)), 1 + w a generator of F9*, and W(F3)
# mod 27 under W(F9) of the same precision
_F9 = _EVAL_RINGS["F9"].tower
_F81 = _F9.adjoin(((-(_F9.one() + CoeffElem.generator(_F9))).rep, _F9.zero().rep,
                   _F9.one().rep))
_COERCIONS = {"F9 -> F81": (_EVAL_RINGS["F9"], _F81), "W(F3) -> W(F9)": (pring(3, prec=3), _F9)}


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(_COERCIONS)), st.data())
def test_coerce_matches_the_general_constructor(name, data):
    """Coercion into a taller tower is injective: coerce keeps the raw terms,
    precision and closedness that the general constructor builds from them."""
    ring, tall = _COERCIONS[name]
    up = ring.with_tower(tall)
    s = _series(data.draw, ring)
    general = GenSeries(up, [(e, up.coeffs.coerce(c)) for e, c in s._raw],
                        s._raw_prec, s._raw_closed)
    _assert_raw(s.coerce(up), _triple(general))
    assert s.coerce(up).ring is up and len(s.coerce(up)._raw) == len(s._raw)


@settings(max_examples=300, deadline=None)
@given(st.data(), st.booleans())
def test_eval_poly_matches_horner_from_zero(data, exact):
    ring = _EVAL_RINGS[data.draw(st.sampled_from(sorted(_EVAL_RINGS)))]
    coeffs = [_eval_series(data.draw, ring, exact)
              for _ in range(data.draw(st.integers(0, 5)))]
    s = _eval_series(data.draw, ring, exact)
    acc = ((), INF, False)
    for c in reversed(coeffs):
        acc = _o_add(ring, _o_mul(ring, acc, _triple(s)), _triple(c))
    _assert_raw(eval_poly(coeffs, s), acc)
    # a second evaluation reads the kept powers and gives the same bytes
    _assert_raw(eval_poly(coeffs, s), acc)
    if any(f._raw_prec is not INF for f in [s] + coeffs):
        assert s._powers is None  # finite precision: Horner, no power table
    elif len(coeffs) > 2:
        assert len(s._powers) == len(coeffs) - 1


@settings(max_examples=300, deadline=None)
@given(st.data(), st.booleans(), st.booleans())
def test_eval_poly_at_a_horizon_is_eval_poly_cut_there(data, exact, closed):
    """With a horizon, open or closed, eval_poly gives the full evaluation cut
    there: its carried terms known at the weaker of its precision and the
    horizon, in terms, precision and closedness.  Raw-exact points take the
    power table and finite-precision ones Horner's rule; a p-adic carry moves
    digits up only, so cutting the raw sum cuts the carried one."""
    ring = _EVAL_RINGS[data.draw(st.sampled_from(sorted(_EVAL_RINGS)))]
    coeffs = [_eval_series(data.draw, ring, exact)
              for _ in range(data.draw(st.integers(0, 5)))]
    s = _eval_series(data.draw, ring, exact)
    horizon = _exponent(data.draw, ring)
    got = eval_poly(coeffs, s, horizon, closed)  # first, so the full one reads its powers
    full = eval_poly(coeffs, s)
    prec, at = _prec_min((full.prec, full.closed), (horizon, closed))
    assert len(got.terms) == _cut(full.terms, prec, at)
    assert all(x[0] == y[0] and x[1] == y[1] for x, y in zip(got.terms, full.terms))
    assert got.prec is not INF and cmp(got.prec, prec) == 0 and got.closed == at


def test_eval_poly_forms_the_powers_of_a_point_once(monkeypatch):
    R = tring()
    s = t_pow(R, Fraction(1, 2)) + t_pow(R, 1, 3) + t_pow(R, 2, -1)
    # five polynomials of degree <= 4 with one-term coefficients, some zero
    polys = [[t_pow(R, j, j + k) if (j + k) % 3 else R.zero() for j in range(k + 1)]
             for k in (4, 2, 3, 4, 1)]
    expected = []
    for coeffs in polys:
        acc = ((), INF, False)
        for c in reversed(coeffs):
            acc = _o_add(R, _o_mul(R, acc, _triple(s)), _triple(c))
        expected.append(acc)
    original = GenSeries.__mul__
    general = []

    def counted(a, b):
        if len(a._raw) > 1 and len(b._raw) > 1:
            general.append((a, b))
        return original(a, b)

    monkeypatch.setattr(GenSeries, "__mul__", counted)
    for _ in range(2):
        for coeffs, acc in zip(polys, expected):
            _assert_raw(eval_poly(coeffs, s), acc)
    # s*s, s^2*s and s^3*s, once for all ten evaluations; the rest are shifts
    assert len(general) == 3 and all(b is s for _, b in general)


@st.composite
def _pseries(draw):
    """A p-mode series, often with classes whose multi-digit sums cancel:
    u*5^k at e next to -u at e + k carries to nothing below the horizon."""
    ring = pring(5, prec=draw(st.sampled_from([2, 4])))
    terms = _terms(draw, ring)
    for _ in range(draw(st.integers(0, 2))):
        e, k = _exponent(draw, ring), draw(st.integers(1, 2))
        u = draw(st.sampled_from([1, -1, 2, -4]))
        terms += [(e, ring.coeffs.from_int(u * 5 ** k)),
                  (e + ring.descriptor.from_rational(k), ring.coeffs.from_int(-u))]
    return ring, _series(draw, ring, terms)


@settings(max_examples=300, deadline=None)
@given(_pseries())
def test_exact_zero_is_read_from_the_raw_terms(case):
    ring, f = case
    for x in (f, f - f, f * f, f + ring.zero()):
        assert x.is_exact_zero() == (not x.terms and x.prec is INF)


# -- the precision rule ---------------------------------------------------------------
#
# The rule as the truncation algebra wrote it for itself before
# GenSeries.knows: the series is known at a bound below its precision, and at
# its precision when the series is closed there or the bound is open.


def _o_within(series, bound, closed):
    if series.prec is INF:
        return True
    s = cmp(bound, series.prec)
    return s < 0 or (s == 0 and (series.closed or not closed))


@st.composite
def _series_and_bounds(draw):
    """A series at precision INF, open or closed (or clamped by a carry) and two
    bounds drawn like its precision, so they often meet it; the first may be INF."""
    ring = _RINGS[draw(st.sampled_from(sorted(_RINGS)))]
    bound = INF if draw(st.integers(0, 5)) == 0 else _exponent(draw, ring)
    return _series(draw, ring), bound, _exponent(draw, ring)


def _raises_unless(known, cut, *bounds):
    if known:
        cut(*bounds)
    else:
        with pytest.raises(PrecisionExceeded):
            cut(*bounds)


@settings(max_examples=400, deadline=None)
@given(_series_and_bounds())
def test_truncations_raise_exactly_when_the_bound_is_not_known(case):
    f, bound, other = case
    for closed, cut in ((False, f.truncate_open), (True, f.truncate_closed)):
        assert f.knows(bound, closed) == _o_within(f, bound, closed)
        _raises_unless(f.knows(bound, closed), cut, bound)
    lo, hi = sorted((bound, other), key=cmp_to_key(cmp))
    if cmp(lo, hi) == 0:
        lo = lo - f.ring.descriptor.basis(0)
    _raises_unless(f.knows(hi), f.slice, lo, hi)


# -- the carried form against the residue-digit carry ---------------------------------
#
# The carry as it read coefficients before integer leaves: a residue() per
# term to tell multi-digit ones, map_leaves (kept here as it was written) per
# digit, every carried class sorted with the rest.  Two lines differ from that
# code: the exact-leaf view of the tower is built here, and the sort compares
# elements.


def map_leaves(rep, level, fn):
    """The rep with fn applied to each leaf, trailing zeros trimmed."""
    if level == 0:
        return fn(rep)
    return tuple(_trim([map_leaves(c, level - 1, fn) for c in rep]))


def _o_carry(s):
    classes = {}
    carries = False
    for g, c in s._raw:
        n = g.num[0] // g.den
        multi = c.residue().rep != c.rep
        carries = carries or multi
        # (num, den) of g - n*e0, still in lowest terms
        key = ((g.num[0] - n * g.den,) + g.num[1:], g.den)
        classes.setdefault(key, []).append((n, g, c, multi))
    if not carries:
        # every coefficient is a digit: the raw terms are the carried form
        return s._raw, s._raw_prec, s._raw_closed

    ring = s.ring
    desc = ring.descriptor
    e0 = desc.basis(0)
    witt = ring.coeffs
    n_digits = witt.precision
    p = witt.p
    tower = ring.tower
    exact = FieldTower(('Q',), tower.stages)  # the same stages over Z: exact integer leaves
    height = tower.height
    out = []
    prec, closed = s._raw_prec, s._raw_closed
    for key, entries in classes.items():
        multi = [n for n, _, _, m in entries if m]
        if not multi:
            out.extend((g, c) for _, g, c, _ in entries)
            continue
        rep_elem = GroupElement(desc, *key)
        n_min = min(n for n, _, _, _ in entries)
        horizon = min(multi) + n_digits
        # sum_i c_i p^(n_i - n_min) with exact integer leaves, then its digits
        acc = exact.rep_zero()
        for n, _, c, _ in entries:
            f = p ** (n - n_min)
            acc = exact.rep_add(acc, map_leaves(c.rep, height, lambda x: x * f))
        m = 0
        while acc and n_min + m < horizon:
            digit = map_leaves(acc, height, lambda x: x % p)
            if digit:
                out.append((rep_elem + e0.scale_unchecked(n_min + m),
                            witt.lift(CoeffElem(tower, digit))))
            acc = map_leaves(acc, height, lambda x: x // p)
            m += 1
        hbound = rep_elem + e0.scale_unchecked(horizon)
        prec, closed = _prec_min((prec, closed), (hbound, False))
    out.sort(key=cmp_to_key(lambda x, y: desc.compare(x[0], y[0])))
    return tuple(out[:_cut(out, prec, closed)]), prec, closed


_F4 = FieldTower.prime_field(2).adjoin((1, 1, 1))  # w^2 + w + 1 = 0
_F16 = _F4.adjoin(((0, 1), (1,), (1,)))  # X^2 + X + w over F4: height two
_F9 = FieldTower.prime_field(3).adjoin((1, 0, 1))  # w^2 + 1 = 0
# (residue tower, largest precision drawn): the bench's W(F5) mod 5^16 and
# W(F9) mod 3^8 among them
_CARRY_RINGS = [(FieldTower.prime_field(3), 4), (_F4, 4), (FieldTower.prime_field(5), 16),
                (_F9, 8), (_F16, 4)]


def _rational(draw, low, high):
    """A rational with denominator 1, 2 or 3, so one series has several classes."""
    return Fraction(draw(st.integers(low, high)), draw(st.sampled_from([1, 2, 3])))


@st.composite
def _carry_case(draw):
    """A series of up to 16 terms over W(F3), W(F4), W(F5), W(F9) or W(F16) mod p^N
    whose leaves are digits, multi-digit or zero divisors (u*p^k), at raw
    precision INF, finite open or finite closed."""
    tower, top = draw(st.sampled_from(_CARRY_RINGS))
    p, n_digits = tower.char, draw(st.integers(2, top))
    ring = SeriesRing(GroupDescriptor([1]), WittRing(tower, n_digits))
    basis = [ring.coeffs.one()] + [ring.coeffs.lift(CoeffElem.generator(tower, k))
                                   for k in range(tower.height)]
    leaf = st.one_of(st.integers(0, p - 1), st.integers(p, p ** n_digits - 1),
                     st.builds(lambda u, k: u * p ** k, st.integers(1, p - 1),
                               st.integers(1, n_digits - 1)))
    terms = [(ring.descriptor.from_rational(_rational(draw, -3, 9)),
              sum((ring.coeffs.from_int(draw(leaf)) * b for b in basis), ring.coeffs.zero()))
             for _ in range(draw(st.integers(0, 16)))]
    if draw(st.booleans()):
        return GenSeries(ring, terms)
    bound = ring.descriptor.from_rational(_rational(draw, -2, 12))
    return GenSeries(ring, terms, bound, draw(st.booleans()))


@settings(max_examples=400, deadline=None)
@given(_carry_case())
def test_carry_matches_the_residue_digit_carry(f):
    _assert_raw(f.normalize(), _o_carry(f))
    # the carried form is its own carried form, also when built anew from its terms
    once = f.normalize()
    _assert_raw(once.normalize(), _triple(once))
    _assert_raw(GenSeries(f.ring, once.terms, once.prec, once.closed).normalize(),
                _triple(once))
