import functools
import itertools
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genpuiseux.coeff import (
    CoeffElem,
    FieldTower,
    WittElem,
    WittRing,
    _rational_roots,
    _trim,
    _witness_candidates,
    binary_power,
    factor_poly,
    solve_in_closure,
)
from genpuiseux.errors import DivisionByZero, IrreducibleOverRationals, NonUnit


def fp(p):
    return FieldTower.prime_field(p)


def elems(tower, *ints):
    return [tower.from_int(n) for n in ints]


def from_digits(ring, digits):
    """The Witt element sum_m lift(d_m) p^m of a digit list."""
    acc = ring.zero()
    for m, d in enumerate(digits):
        acc = acc + ring.lift(d) * ring.from_int(ring.p ** m)
    return acc


def f4():
    """F4 = F2[w] with w^2 + w + 1 = 0, and its generator w."""
    t = fp(2).adjoin((1, 1, 1))
    return t, CoeffElem.generator(t)


def test_adjoin_f4():
    # X^2 + X + 1 over F_2: new degree-2 stage, its generator is the least root
    t = fp(2)
    t2, roots = solve_in_closure(t, elems(t, 1, 1, 1))
    assert t2 == f4()[0]
    assert t2.stage_degree(0) == 2
    root = roots[0][0]
    assert root == CoeffElem.generator(t2)
    val = root * root + root + t2.one()
    assert val.is_zero()


def test_adjoin_root_in_place():
    # X^2 - 1 over F_3 has the roots 1 and 2 already
    t = fp(3)
    t2, roots = solve_in_closure(t, elems(t, -1, 0, 1))
    assert t2 == t
    assert roots == [(t.from_int(1), 1), (t.from_int(2), 1)]


def test_adjoin_sqrt2_over_q():
    t = FieldTower.rationals()
    t2, roots = solve_in_closure(t, elems(t, -2, 0, 1))
    assert t2.height == 1
    assert [m for _, m in roots] == [1, 1]
    for root, _ in roots:
        assert (root * root) == t2.from_int(2)


@pytest.mark.parametrize("scaled, monic", [((-4, 0, 2), (-2, 0, 1)),
                                           ((2, 2, 2), (1, 1, 1))])
def test_q_shapes_read_on_the_monic_form(scaled, monic):
    # 2X^2 - 4 adjoins sqrt(2) as X^2 - 2 does; 2X^2 + 2X + 2 a cube root of 1
    t = FieldTower.rationals()
    assert solve_in_closure(t, elems(t, *scaled)) == solve_in_closure(t, elems(t, *monic))


# a float square root overshoots K, and 10**400 overflows a float
K = 248289021900363196427360330


@pytest.mark.parametrize("q,root", [
    (Fraction(K * K), K), (Fraction(10**400), 10**200),
    (Fraction(9, K * K), Fraction(3, K)), (Fraction(4, 9), Fraction(2, 3)),
    (Fraction(K * K + 1), None), (Fraction(10**400 + 1), None),
    (Fraction(2), None), (Fraction(-4), None)],
    ids=["overshoot", "huge", "overshoot-den", "small", "overshoot-non-square",
         "huge-non-square", "two", "negative"])
def test_rational_sqrt_exact(q, root):
    # the square roots of q are the rational roots of X^2 - q
    expected = [] if root is None else [-Fraction(root), Fraction(root)]
    assert sorted(_rational_roots([-q, Fraction(0), Fraction(1)])) == expected


def test_adjoin_determinism():
    t = fp(2)
    a = solve_in_closure(t, elems(t, 1, 1, 1))
    b = solve_in_closure(t, elems(t, 1, 1, 1))
    assert a[0] == b[0]
    assert a[1] == b[1]


def test_q_extension_forbidden():
    # X^3 - 2 has no root in Q and is outside the whitelisted shapes
    t = FieldTower.rationals()
    with pytest.raises(IrreducibleOverRationals):
        solve_in_closure(t, elems(t, -2, 0, 0, 1))


def test_f4_multiplication_table():
    t, w = f4()
    assert w * w == w + t.one()


def test_field_axioms_random():
    t, w = f4()
    universe = [CoeffElem(t, r) for r in t.enumerate_elements()]
    rng = random.Random(23)
    one = t.one()
    for _ in range(1000):
        a, b, c = (rng.choice(universe) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        if not a.is_zero():
            assert a * a.inv() == one


def test_solve_in_closure_f2_split():
    t = fp(2)
    _, roots = solve_in_closure(t, elems(t, 0, 1, 1))  # X^2 + X = X(X+1)
    assert [(coeff_to_int(r), m) for r, m in roots] == [(0, 1), (1, 1)]


def coeff_to_int(c):
    q = _fraction(c)
    return int(q) if q is not None else None


def _fraction(c):
    """The rational value of a base-constant coefficient, else None."""
    first, *rest = c.tower.leaves(c.rep)
    return None if any(rest) else Fraction(first)


def test_solve_in_closure_extends_to_f4():
    t = fp(2)
    t2, roots = solve_in_closure(t, elems(t, 1, 1, 1))
    assert t2.height == 1
    assert len(roots) == 2
    for r, m in roots:
        assert m == 1
        assert (r * r + r + t2.one()).is_zero()


def test_solve_in_closure_f3_brute_force_oracle():
    t = fp(3)
    _, roots = solve_in_closure(t, elems(t, 0, -1, 0, 1))  # X^3 - X
    got = sorted(coeff_to_int(r) for r, _ in roots)
    oracle = sorted(x for x in range(3) if (x ** 3 - x) % 3 == 0)
    assert got == oracle == [0, 1, 2]


def test_factor_canonical_and_multiplicity():
    t = fp(2)
    # (X^2+X+1)^2 * X over F_2
    sq = [1, 0, 1, 0, 1]  # (X^2+X+1)^2 = X^4+X^2+1 in char 2
    f = elems(t, 0, 1, 0, 1, 0, 1)
    unit, factors = factor_poly(t, f)
    degs = sorted((len(fac) - 1, m) for fac, m in factors)
    assert degs == [(1, 1), (2, 2)]


def test_residue_lift_roundtrip_examples():
    t = fp(3)
    ring = WittRing(t, 4)
    w = from_digits(ring, elems(t, 2, 1, 0, 0))
    assert coeff_to_int(ring.residue(w)) == 2
    lifted = ring.lift(t.from_int(2))
    assert [coeff_to_int(d) for d in lifted.digits()] == [2, 0, 0, 0]


def test_residue_lift_roundtrip_random():
    t, w = f4()
    ring = WittRing(t, 5)
    universe = [CoeffElem(t, r) for r in t.enumerate_elements()]
    rng = random.Random(5)
    for _ in range(100):
        c = rng.choice(universe)
        assert ring.residue(ring.lift(c)) == c


def test_witt_integer_carrying():
    # p = 2, N = 3: (1 + 2) + (1 + 2) = 6 = digits (0, 1, 1)
    ring = WittRing(fp(2), 3)
    x = ring.from_int(3)
    s = x + x
    assert [coeff_to_int(d) for d in s.digits()] == [0, 1, 1]


def test_witt_inverse_of_three_mod_16():
    # extended-Euclid oracle: 3 * 11 = 33 = 1 mod 16
    assert (3 * pow(3, -1, 16)) % 16 == 1
    assert pow(3, -1, 16) == 11
    ring = WittRing(fp(2), 4)
    x = ring.from_int(3).inv()
    assert [coeff_to_int(d) for d in x.digits()] == [1, 1, 0, 1]


def test_witt_nonunit_rejected():
    ring = WittRing(fp(3), 4)
    with pytest.raises(NonUnit):
        ring.from_int(3).inv()


@pytest.mark.parametrize("height", [0, 1])
def test_witt_p_times_a_unit_has_no_inverse(height):
    tower = fp(3).adjoin((1, 0, 1)) if height else fp(3)  # F9 = F3[w], w^2 = -1
    ring = WittRing(tower, 4)
    unit = ring.lift(CoeffElem.generator(tower)) + 1 if height else ring.from_int(2)
    assert unit * unit.inv() == ring.one()
    with pytest.raises(NonUnit, match="zero residue digit"):
        (unit * 3).inv()


def test_witt_ring_axioms_mod_pN():
    ring = WittRing(fp(3), 3)
    rng = random.Random(9)
    for _ in range(300):
        a, b, c = (ring.from_int(rng.randrange(27)) for _ in range(3))
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)


def test_p_times_unit_has_zero_digit0():
    ring = WittRing(fp(5), 4)
    rng = random.Random(11)
    for _ in range(50):
        u = ring.from_int(rng.randrange(1, 5 ** 4))
        if not u.is_unit():
            continue
        prod = u * ring.from_int(5)
        assert prod.digits()[0].is_zero()


def test_witt_over_extended_tower():
    t, w = f4()
    ring = WittRing(t, 3)
    lw = ring.lift(w)
    # the lifted generator satisfies the lifted minimal polynomial exactly
    val = lw * lw + lw + ring.one()
    assert val.is_zero()
    assert val.residue().is_zero()
    assert ring.residue(lw) == w


def test_witt_products_match_integers_mod_pN():
    # height 0: Witt arithmetic is Z/p^N, checked against Python ints
    rng = random.Random(41)
    for p, N in ((2, 5), (3, 4), (5, 3), (7, 2)):
        ring = WittRing(fp(p), N)
        mod = p ** N
        for _ in range(200):
            a, b = rng.randrange(-mod, 2 * mod), rng.randrange(-mod, 2 * mod)
            wa, wb = ring.from_int(a), ring.from_int(b)
            for got, want in ((wa * wb, a * b), (wa + wb, a + b), (wa - wb, a - b),
                              (-wa, -a)):
                assert got.rep == want % mod
                assert [coeff_to_int(d) for d in got.digits()] == [
                    (want % mod) // p ** m % p for m in range(N)]


def test_witt_residue_is_a_homomorphism_over_a_height_two_tower():
    # F2 < F4 = F2[w] < F16 = F4[w2]: residue maps Witt +, -, * onto the tower's own
    t4, w = f4()
    t16 = t4.adjoin((w.rep, (1,), (1,)))  # X^2 + X + w, irreducible over F4
    w2 = CoeffElem.generator(t16)
    assert t16.height == 2
    ring = WittRing(t16, 4)
    universe = [CoeffElem(t16, r) for r in t16.enumerate_elements()]
    assert len(universe) == 16
    rng = random.Random(43)

    def draw():
        return from_digits(ring, [rng.choice(universe) for _ in range(4)])

    for _ in range(60):
        x, y = draw(), draw()
        rx, ry = x.residue(), y.residue()
        assert (x + y).residue() == rx + ry
        assert (x - y).residue() == rx - ry
        assert (x * y).residue() == rx * ry
        assert (-x).residue() == -rx
        assert from_digits(ring, x.digits()) == x
        if x.is_unit():
            assert x * x.inv() == ring.one()
    # the lifted generators satisfy their lifted minimal polynomials exactly
    lw, lw2 = ring.lift(CoeffElem(t16, t16.coerce_rep(w.rep, t4))), ring.lift(w2)
    assert (lw * lw + lw + 1).is_zero()
    assert (lw2 * lw2 + lw2 + lw).is_zero()


def newton_inv(self):
    """The inverse of a Witt unit by Newton's iteration from the lifted
    residue inverse: the loop WittElem.inv runs over a residue extension."""
    x = self.ring.lift(self.residue().inv())
    # Newton iteration doubles correct digits each round
    steps = max(1, self.ring.precision).bit_length()
    two = self.ring.from_int(2)
    for _ in range(steps + 1):
        x = x * (two - self * x)
    return x


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("N", [1, 2, 4])
def test_witt_inverse_over_the_prime_field_is_newtons(p, N):
    ring = WittRing(fp(p), N)
    units = [ring.from_int(n) for n in range(p ** N) if n % p]
    assert len(units) == (p - 1) * p ** (N - 1)
    for x in units:
        inv = x.inv()
        assert inv.rep == newton_inv(x).rep
        assert x * inv == ring.one()
    with pytest.raises(NonUnit):
        ring.from_int(p).inv()


@pytest.mark.parametrize("tower", [fp(3), f4()[0]],
                         ids=["F3", "F4"])
def test_negative_powers_raise(tower):
    x = tower.from_int(2) if tower.char == 3 else CoeffElem.generator(tower)
    with pytest.raises(ValueError):
        x ** -1
    with pytest.raises(ValueError):
        tower.rep_pow(x.rep, -3)
    assert x ** 0 == tower.one()


def test_coeff_text_form():
    t, w = f4()
    assert (w + t.one()).to_text() == "w^1 + 1"
    ring = WittRing(fp(2), 3)
    assert ring.from_int(6).to_text() == "[0,1,1] (mod 2^3)"


def test_canonical_root_order_prefers_positive_one():
    t = FieldTower.rationals()
    t2, roots = solve_in_closure(t, elems(t, -1, 0, 1))
    assert _fraction(roots[0][0]) == 1
    assert _fraction(roots[1][0]) == -1


def _divisor_search_roots(coeffs):
    """The rational-root search the solver used before: every +-r/s with r | a_0 and
    s | a_n, found by trial division up to the square root of each."""
    f = [Fraction(c) for c in coeffs]
    den = math.lcm(*(c.denominator for c in f))
    zf = [c * den for c in f]
    roots = set()
    while zf[0] == 0:
        roots.add(Fraction(0))
        zf = zf[1:]

    def divisors(n):
        return {d for k in range(1, math.isqrt(n) + 1) if n % k == 0 for d in (k, n // k)}

    def value(c):
        acc = 0
        for co in reversed(zf):
            acc = acc * c + co
        return acc

    for r in divisors(abs(int(zf[0]))):
        for s in divisors(abs(int(zf[-1]))):
            roots.update(c for c in (Fraction(r, s), Fraction(-r, s)) if value(c) == 0)
    return roots


def _random_rational_poly(rng):
    f = [Fraction(1)]
    for _ in range(rng.randint(0, 3)):  # linear factors (s*X - r) with rational roots
        s, r = rng.randint(1, 6), rng.randint(-12, 12)
        f = [a - b for a, b in zip([Fraction(0)] + [s * c for c in f], [r * c for c in f] + [0])]
    extra = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(rng.randint(1, 3))]
    extra[-1] = extra[-1] or Fraction(1)
    out = [Fraction(0)] * (len(f) + len(extra) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(extra):
            out[i + j] += a * b
    return out


def test_rational_roots_match_divisor_search():
    rng = random.Random(8)
    checked = 0
    for _ in range(150):
        f = _random_rational_poly(rng)
        if len(f) < 2:
            continue
        got = _rational_roots(f)
        assert len(got) == len(set(got))
        assert set(got) == _divisor_search_roots(f), f
        checked += 1
    assert checked > 100


@pytest.mark.parametrize("coeffs, roots", [
    ([-2 ** 150, 0, 0, 1], {2 ** 50}),
    ([-1, 0, 2 ** 80], {Fraction(1, 2 ** 40), Fraction(-1, 2 ** 40)}),
    ([3 * 2 ** 60, 3 - 2 ** 100, -(2 ** 40)], {Fraction(3, 2 ** 40), -(2 ** 60)}),
    ([-(2 ** 100), 0, 1], {2 ** 50, -(2 ** 50)}),
    ([2 ** 100 + 1, 0, 1], set()),
], ids=["cube", "tiny", "mixed", "square", "none"])
def test_rational_roots_of_large_coefficients(coeffs, roots):
    start = time.monotonic()
    assert set(_rational_roots([Fraction(c) for c in coeffs])) == roots
    assert time.monotonic() - start < 1.0


def _sorted_elements(tower):
    """Every element of a finite tower built at once and sorted by its key."""
    def enum(level):
        if level == 0:
            return list(range(tower.base[1]))
        lower = enum(level - 1)
        outs = [()]
        for _ in range(tower.stage_degree(level - 1)):
            outs = [v + (c,) for v in outs for c in lower]
        return [v[:max([i + 1 for i, c in enumerate(v) if c], default=0)] for v in outs]

    return sorted(set(enum(tower.height)), key=tower.rep_key)


def _listed_witnesses(tower, degree):
    """Each degree's monic polys, then its other nonconstant ones, each by key."""
    elems, one = _sorted_elements(tower), tower.rep_one()
    for d in range(1, degree):
        heads = [[]]
        for _ in range(d):
            heads = [h + [c] for h in heads for c in elems]
        yield from (head + [one] for head in heads)
        for head in heads:
            for lead in elems:
                if lead and lead != one:
                    yield head + [lead]


F16_TOWER = f4()[0].adjoin(((0, 1), (1,), (1,)))  # X^2 + X + w over F4


@pytest.mark.parametrize("tower", [f4()[0], fp(3).adjoin((1, 0, 1)), F16_TOWER],
                         ids=["F4", "F9", "F16"])
def test_lazy_witnesses_match_the_sorted_lists(tower):
    assert list(tower.enumerate_elements()) == _sorted_elements(tower)
    degree = 4
    want = list(itertools.islice(_listed_witnesses(tower, degree), 400))
    got = list(itertools.islice(_witness_candidates(tower, degree, tower.height), 400))
    assert got == want


def _refactoring_solve(tower, coeffs):
    """The F_q solver before: factor the whole poly again after every extension."""
    cur_t, cur = tower, coeffs
    while True:
        _, factors = factor_poly(cur_t, cur)
        nonlinear = [fac for fac, _ in factors if len(fac) > 2]
        if not nonlinear:
            roots = [(-(fac[0] * fac[1].inv()), m) for fac, m in factors]
            return cur_t, sorted(roots, key=lambda rm: rm[0].sort_key())
        cur_t = cur_t.adjoin(tuple(c.rep for c in nonlinear[0]))
        cur = [CoeffElem(cur_t, cur_t.coerce_rep(c.rep, c.tower)) for c in cur]


@pytest.mark.parametrize("tower, ints", [
    (fp(2), (0, 1, 0, 1, 0, 1)),                # X (X^2 + X + 1)^2
    (fp(2), (1, 0, 0, 1, 1, 1, 1)),             # (X^2 + X + 1)(X^4 + X + 1): F4, then F16
    (fp(2), (0, 1, 0, 0, 0, 1, 1)),             # X (X^2 + X + 1)(X^3 + X + 1): F4, then F64
    (fp(2), (0, 1, 1, 0, 1, 1, 1)),             # X times an irreducible quintic
    (fp(3), (-1, 1, -2, 2, -1, 1)),             # (X - 1)(X^2 + 1)^2
    (fp(3), (1, 0, 0, 0, 1)),                   # X^4 + 1: two quadratics, then F9
    (f4()[0], (1, 0, 0, 1)),                    # X^3 + 1 splits over F4
    (f4()[0], (1, 1, 0, 0, 1)),                 # X^4 + X + 1: two quadratics over F4
], ids=["f2-sq", "f2-two-stages", "f2-deg3", "f2-quintic", "f3-sq", "f3-quartic",
        "f4-cube", "f4-quartic"])
def test_solve_in_closure_matches_refactoring_loop(tower, ints):
    got = solve_in_closure(tower, elems(tower, *ints))
    want = _refactoring_solve(tower, elems(tower, *ints))
    assert got[0] == want[0]
    assert [(r.rep, m) for r, m in got[1]] == [(r.rep, m) for r, m in want[1]]
    assert all(r.tower == got[0] for r, _ in got[1])


def test_solve_in_closure_linear_needs_no_factoring(monkeypatch):
    import genpuiseux.coeff as coeff

    def no_factoring(*args):
        raise AssertionError("a linear equation was factored")

    monkeypatch.setattr(coeff, "factor_poly", no_factoring)
    for t in (fp(5), f4()[0], FieldTower.rationals()):
        three = t.from_int(3)
        t2, roots = solve_in_closure(t, [t.one(), three])  # 3X + 1
        assert t2 == t
        (r, m), = roots
        assert m == 1 and (three * r + 1).is_zero()


def test_solve_in_closure_q_strips_then_extends():
    # (X - 1)^2 (X^2 - 8): strip 1 twice, adjoin w^2 = 8, then find +-w
    t = FieldTower.rationals()
    t2, roots = solve_in_closure(t, elems(t, -8, 16, -7, -2, 1))
    assert t2 == t.adjoin(((-8, 1), (), (1, 1)))  # numerator and denominator pairs
    w = CoeffElem.generator(t2)
    assert roots == sorted([(t2.one(), 2), (w, 1), (-w, 1)],
                           key=lambda rm: rm[0].sort_key())


def _counting_factor_poly(monkeypatch):
    """Count factor_poly calls from here on; returns the list that grows per call."""
    import genpuiseux.coeff as coeff

    calls, real = [], coeff.factor_poly
    monkeypatch.setattr(coeff, "factor_poly", lambda *args: calls.append(args) or real(*args))
    return calls


def test_solve_in_closure_is_kept_on_its_tower(monkeypatch):
    calls = _counting_factor_poly(monkeypatch)
    for ints in ((1, 0, 1), (1, 1, 1)):  # (X + 1)^2, the as-f2 tail's; X^2 + X + 1 adjoins w
        t, before = fp(2), len(calls)
        first = solve_in_closure(t, elems(t, *ints))
        n = len(calls) - before
        assert n >= 1
        again = solve_in_closure(t, elems(t, *ints))
        assert again == first and again[0] is first[0] and len(calls) == before + n
        fresh = fp(2)  # an equal tower, but not the one the result is kept on
        assert fresh == t and solve_in_closure(fresh, elems(fresh, *ints)) == first
        assert len(calls) == before + 2 * n


def test_solve_in_closure_returns_a_fresh_list(monkeypatch):
    calls = _counting_factor_poly(monkeypatch)
    t = fp(3)
    eq = elems(t, 0, -1, 0, 1)  # X^3 - X
    _, roots = solve_in_closure(t, eq)
    want = list(roots)
    roots.clear()
    _, again = solve_in_closure(t, eq)
    assert again == want and len(want) == 3 and len(calls) == 1
    again.append(None)
    assert solve_in_closure(t, eq)[1] == want


# F4, F9, F16 (height two), F25 = F5[X]/(X^2 - 2), F27 = F3[X]/(X^3 - X - 1)
_FACTOR_TOWERS = {"F4": f4()[0], "F9": fp(3).adjoin((1, 0, 1)), "F16": F16_TOWER,
                  "F25": fp(5).adjoin((3, 0, 1)), "F27": fp(3).adjoin((2, 2, 0, 1))}


@functools.cache
def _field_tables(name):
    """The elements of a finite tower and its +, * and - as tables over their indices
    (index 0 is zero): polynomials over it become lists of small ints."""
    tower = _FACTOR_TOWERS[name]
    els = list(tower.enumerate_elements())
    index = {r: i for i, r in enumerate(els)}
    add = [[index[tower.rep_add(a, b)] for b in els] for a in els]
    mul = [[index[tower.rep_mul(a, b)] for b in els] for a in els]
    return index, add, mul, [index[tower.rep_neg(a)] for a in els]


def _idx_mul(f, g, add, mul):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = add[out[i + j]][mul[a][b]]
    return out


def _idx_divides(g, f, add, mul, neg):
    """Whether the monic g divides f, by long division over the tables."""
    r, k = list(f), len(g) - 1
    for top in range(len(r) - 1, k - 1, -1):
        if c := r[top]:
            for i, gi in enumerate(g):
                r[top - k + i] = add[r[top - k + i]][neg[mul[c][gi]]]
    return not any(r[:k])


@st.composite
def _factor_case(draw):
    """A tower and a product of drawn powers of drawn polys, degree 1..6."""
    name = draw(st.sampled_from(sorted(_FACTOR_TOWERS)))
    q = _FACTOR_TOWERS[name].cardinality()
    _, add, mul, _ = _field_tables(name)
    f, room = [draw(st.integers(1, q - 1))], 6
    while room and (not f[1:] or draw(st.booleans())):
        d = draw(st.integers(1, room))
        piece = [draw(st.integers(0, q - 1)) for _ in range(d)] + [draw(st.integers(1, q - 1))]
        for _ in range(draw(st.integers(1, room // d))):
            f, room = _idx_mul(f, piece, add, mul), room - d
    return name, f


@settings(max_examples=100, deadline=None)
@given(_factor_case())
def test_factor_poly_factors_are_monic_irreducible_and_multiply_back(case):
    name, f = case
    tower = _FACTOR_TOWERS[name]
    index, add, mul, neg = _field_tables(name)
    els, one = list(tower.enumerate_elements()), index[tower.rep_one()]
    unit, factors = factor_poly(tower, [CoeffElem(tower, els[i]) for i in f])
    product = [index[unit.rep]]
    for fac, m in factors:
        g = [index[c.rep] for c in fac]
        assert g[-1] == one and len(g) > 1 and m >= 1
        for _ in range(m):
            product = _idx_mul(product, g, add, mul)
        for k in range(1, (len(g) - 1) // 2 + 1):
            for head in itertools.product(range(len(els)), repeat=k):
                assert not _idx_divides([*head, one], g, add, mul, neg), (fac, head)
    assert product == f


# -- Q-tower arithmetic against the nested Fraction arithmetic it replaced -----------
#
# _NestedFractions is FieldTower's arithmetic over Q as it was when every leaf was
# a Fraction, copied verbatim (with the polynomial helpers it calls and the text
# form), and kept here as the oracle.  Elements meet the engine only through the
# flat walk: FieldTower.from_leaves takes Fraction leaves and leaves gives them.


class _NestedFractions:
    def __init__(self, stages):
        self.base, self.leaf_mod = ('Q',), None
        self.stages = tuple(('w', mp) for mp in stages)
        self.height = len(self.stages)
        self._sizes = [1]
        for _, mp in self.stages:
            self._sizes.append(self._sizes[-1] * (len(mp) - 1))

    def stage_degree(self, k):
        return len(self.stages[k][1]) - 1

    def rep_zero(self, level=None):
        level = self.height if level is None else level
        if level == 0:
            return 0 if self.base[0] == 'F' else Fraction(0)
        return ()

    def rep_one(self, level=None):
        return self.rep_from_int(1, level)

    def rep_from_int(self, n, level=None):
        level = self.height if level is None else level
        if self.leaf_mod is not None:
            n %= self.leaf_mod
        elif self.base[0] == 'Q':
            n = Fraction(n)
        return self.rep_lift(n, 0, level)

    def rep_add(self, x, y, level=None):
        level = self.height if level is None else level
        if level == 0:
            m = self.leaf_mod
            return x + y if m is None else (x + y) % m
        if len(x) < len(y):
            x, y = y, x
        out = [self.rep_add(a, b, level - 1) for a, b in zip(x, y)]
        out.extend(x[len(y):])
        return tuple(_trim(out))

    def rep_neg(self, x, level=None):
        level = self.height if level is None else level
        if level == 0:
            m = self.leaf_mod
            return -x if m is None else -x % m
        return tuple(self.rep_neg(c, level - 1) for c in x)

    def rep_sub(self, x, y, level=None):
        level = self.height if level is None else level
        return self.rep_add(x, self.rep_neg(y, level), level)

    def rep_mul(self, x, y, level=None):
        level = self.height if level is None else level
        if level == 0:
            m = self.leaf_mod
            return x * y if m is None else x * y % m
        return self._reduce(_o_pmul(self, x, y, level - 1), level)

    def _reduce(self, coeffs, level):
        mp = self.stages[level - 1][1]
        d = len(mp) - 1
        below = level - 1
        while len(coeffs) > d:
            lead = coeffs.pop()
            if not lead:
                continue
            k = len(coeffs) - d
            for i in range(d):
                coeffs[k + i] = self.rep_sub(coeffs[k + i],
                                             self.rep_mul(lead, mp[i], below), below)
        return tuple(_trim(coeffs))

    def rep_inv(self, x, level=None):
        level = self.height if level is None else level
        if not x:
            raise DivisionByZero("inverse of zero")
        if level == 0:
            if self.leaf_mod is None:
                return Fraction(1) / x
            return pow(x, -1, self.leaf_mod)
        r0, r1 = self.stages[level - 1][1], x
        s0, s1 = (), (self.rep_one(level - 1),)
        while len(r1) > 1:
            q, r = _o_pdivmod(self, r0, r1, level - 1)
            r0, r1 = r1, r
            s0, s1 = s1, self.rep_sub(s0, _o_pmul(self, q, s1, level - 1), level)
        if not r1:
            raise DivisionByZero("element not invertible (non-trivial gcd)")
        c = self.rep_inv(r1[0], level - 1)
        out = [self.rep_mul(c, s, level - 1) for s in s1]
        return self._reduce(out, level)

    def rep_pow(self, x, n, level=None):
        if n < 0:
            raise ValueError("tower powers need a non-negative exponent")
        level = self.height if level is None else level
        return binary_power(x, n, self.rep_one(level),
                            lambda a, b: self.rep_mul(a, b, level))

    def leaves(self, rep, level=None):
        level = self.height if level is None else level
        if level == 0:
            return [rep]
        out = []
        for c in rep:
            out += self.leaves(c, level - 1)
        return out + [0] * (self._sizes[level] - len(out))

    def from_leaves(self, leaves, level=None, start=0):
        level = self.height if level is None else level
        if level == 0:
            return leaves[start]
        step = self._sizes[level - 1]
        return tuple(_trim([self.from_leaves(leaves, level - 1, start + i)
                            for i in range(0, self._sizes[level], step)]))

    def rep_lift(self, x, from_level, to_level):
        for lvl in range(from_level, to_level):
            x = (x,) if x else ()
        return x

    def rep_key(self, x):
        if self.base[0] == 'F':
            return tuple(self.leaves(x))
        return tuple((q < 0, abs(q.numerator), q.denominator) for q in self.leaves(x))


def _o_pmul(tower, f, g, level):
    if not f or not g:
        return []
    out = [tower.rep_zero(level)] * (len(f) + len(g) - 1)
    for i, fi in enumerate(f):
        if not fi:
            continue
        for j, gj in enumerate(g):
            out[i + j] = tower.rep_add(out[i + j], tower.rep_mul(fi, gj, level), level)
    return _trim(out)


def _o_pdivmod(tower, f, g, level):
    g = _trim(list(g))
    if not g:
        raise DivisionByZero("polynomial division by zero")
    inv_lead = tower.rep_inv(g[-1], level)
    q = [tower.rep_zero(level)] * max(0, len(f) - len(g) + 1)
    r = _trim(list(f))
    while len(r) >= len(g):
        c = tower.rep_mul(r[-1], inv_lead, level)
        k = len(r) - len(g)
        q[k] = tower.rep_add(q[k], c, level)
        for i, gi in enumerate(g):
            r[k + i] = tower.rep_sub(r[k + i], tower.rep_mul(c, gi, level), level)
        r.pop()
        _trim(r)
    return _trim(q), r


def _o_rep_text(tower, rep, level):
    terms = _o_rep_monomials(rep, level, ())
    if not terms:
        return "0"
    parts = []
    for exps, base in sorted(terms, key=lambda t: t[0], reverse=True):
        gens = [f"{tower.stages[k][0]}^{e}" for k, e in enumerate(exps) if e > 0]
        if not gens:
            parts.append(str(base))
        elif base == 1:
            parts.append("*".join(gens))
        else:
            parts.append("*".join([str(base)] + gens))
    return " + ".join(parts)


def _o_rep_monomials(rep, level, exps):
    if level == 0:
        return [] if rep == 0 else [(exps, rep)]
    return [m for i, c in enumerate(rep) for m in _o_rep_monomials(c, level - 1, (i,) + exps)]


_F = Fraction
# each tower by its stages in the nested Fraction form
_Q_TOWERS = {
    "Q": (),
    "Q(sqrt2)": ((_F(-2), _F(0), _F(1)),),
    "Q(w)": ((_F(1), _F(1), _F(1)),),
    "Q(sqrt2)(w)": ((_F(-2), _F(0), _F(1)), ((_F(1),), (_F(1),), (_F(1),))),
    "Q(sqrt(1/3))": ((_F(-1, 3), _F(0), _F(1)),),
}


def _q_tower_pair(stages):
    """The engine's tower and the oracle for the same stages, the engine's
    stages passed in through its own from_leaves."""
    tower = FieldTower.rationals()
    for k, mp in enumerate(stages):
        below = _NestedFractions(stages[:k])
        tower = tower.adjoin(tuple(tower.from_leaves(below.leaves(c)) for c in mp))
    oracle = _NestedFractions(stages)
    # the generator names are the engine's
    oracle.stages = tuple((name, mp) for (name, _), (_, mp) in zip(tower.stages, oracle.stages))
    return tower, oracle


# -- the one walk over the nested format against the walks it replaced ----------------
#
# map_leaves, the nested rep_key and the Witt digits and residue as they were
# written before FieldTower.leaves and from_leaves, kept here as the oracle.


def map_leaves(rep, level, fn):
    """The rep with fn applied to each leaf, trailing zeros trimmed."""
    if level == 0:
        return fn(rep)
    return tuple(_trim([map_leaves(c, level - 1, fn) for c in rep]))


def _o_rep_key(tower, x, level=None):
    level = tower.height if level is None else level
    if level == 0:
        if tower.base[0] == 'F':
            return (x,)
        return (x < 0, abs(x.numerator), x.denominator)
    d = tower.stage_degree(level - 1)
    z = tower.rep_zero(level - 1)
    return tuple(_o_rep_key(tower, x[i] if i < len(x) else z, level - 1)
                 for i in range(d))


def _o_digits(w):
    ring, p, height = w.ring, w.ring.p, w.ring.tower.height
    out, rep = [], w.rep
    for _ in range(ring.precision):
        out.append(CoeffElem(ring.tower, map_leaves(rep, height, lambda x: x % p)))
        rep = map_leaves(rep, height, lambda x: x // p)
    return out


def _o_residue(ring, w):
    p = ring.p
    return CoeffElem(ring.tower, map_leaves(w.rep, ring.tower.height, lambda x: x % p))


_LEAF_TOWERS = {
    "F2[w]": f4()[0], "F4[w2]": F16_TOWER, "F3[w]": fp(3).adjoin((1, 0, 1)),
    # w^2 = 2, then X^2 + X + 1 over Q(sqrt 2): a height-two tower over Q
    "Q(sqrt2)": _q_tower_pair(_Q_TOWERS["Q(sqrt2)"])[0],
    "Q(sqrt2)(w)": _q_tower_pair(_Q_TOWERS["Q(sqrt2)(w)"])[0],
}


def _rep(draw, tower, leaf, level):
    """A reduced rep: below the stage degree at every level, trailing zeros trimmed."""
    if level == 0:
        return draw(leaf)
    n = draw(st.integers(0, tower.stage_degree(level - 1)))
    return tuple(_trim([_rep(draw, tower, leaf, level - 1) for _ in range(n)]))


@st.composite
def _reps(draw, tower, leaf):
    return [_rep(draw, tower, leaf, tower.height) for _ in range(draw(st.integers(1, 6)))]


@st.composite
def _witt_case(draw):
    """W(F4) or W(F3) mod p^N and reps with integer leaves mod p^N."""
    ring = WittRing(draw(st.sampled_from([f4()[0], fp(3)])), draw(st.integers(1, 5)))
    return ring, draw(_reps(ring.tower, st.integers(0, ring.modulus - 1)))


@st.composite
def _tower_case(draw):
    """A tower, the walk of the oracle key, and reps with their nested forms: a
    Q rep is drawn in the nested Fraction form and goes in through from_leaves."""
    if draw(st.booleans()):
        ring, reps = draw(_witt_case())
        return ring.tower, ring.tower, [(x, x) for x in reps]
    name = draw(st.sampled_from(sorted(_LEAF_TOWERS)))
    tower = _LEAF_TOWERS[name]
    if tower.char:
        return tower, tower, [(x, x) for x in draw(_reps(tower, st.integers(0, tower.char - 1)))]
    walk = _NestedFractions(_Q_TOWERS[name])
    reps = draw(_reps(walk, st.fractions(min_value=-9, max_value=9, max_denominator=6)))
    return tower, walk, [(tower.from_leaves(walk.leaves(x)), x) for x in reps]


@settings(max_examples=300, deadline=None)
@given(_tower_case())
def test_leaves_round_trip_and_keys_sort_like_the_nested_walk(case):
    tower, walk, reps = case
    count = math.prod(tower.stage_degree(k) for k in range(tower.height))
    for x, nested in reps:
        assert len(tower.leaves(x)) == count
        assert tower.from_leaves(tower.leaves(x)) == x
        assert tower.leaves(x) == walk.leaves(nested)
    for x, nx in reps:
        for y, ny in reps:
            kx, ky = tower.rep_key(x), tower.rep_key(y)
            ox, oy = _o_rep_key(walk, nx), _o_rep_key(walk, ny)
            assert (kx < ky, kx == ky) == (ox < oy, ox == oy)


@settings(max_examples=300, deadline=None)
@given(_witt_case())
def test_witt_digits_and_residue_match_map_leaves(case):
    ring, reps = case
    for x in reps:
        w = WittElem(ring, x)
        assert [d.rep for d in w.digits()] == [d.rep for d in _o_digits(w)]
        assert ring.residue(w).rep == _o_residue(ring, w).rep


_QUADRATIC = {2: (1, 1, 1), 3: (1, 0, 1), 5: (2, 0, 1)}  # an irreducible X^2 + bX + c mod p


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.integers(-10 ** 12, 10 ** 12), st.integers(1, 16))
def test_height_zero_text_and_residue_match_the_leaf_list_path(p, n, N):
    # at height 0 the text and the residue read the integer rep; moved one
    # stage up, the same value goes through the leaf list
    f = fp(p)
    c = f.from_int(n)
    assert c.to_text() == f.adjoin(_QUADRATIC[p]).coerce(c).to_text() == str(n % p)
    witt, witt_up = WittRing(fp(5), N), WittRing(fp(5).adjoin(_QUADRATIC[5]), N)
    w = witt.from_int(n)
    assert w.to_text() == witt_up.coerce(w).to_text()
    r = witt.residue(w)
    assert r.tower is witt.tower and r.rep == _o_residue(witt, w).rep
    assert witt_up.tower.coerce(r) == witt_up.residue(witt_up.coerce(w))


@given(st.fractions(min_value=-10 ** 6, max_value=10 ** 6, max_denominator=10 ** 4))
def test_rational_text_at_height_zero_is_the_fraction(q):
    tower = FieldTower.rationals()
    assert CoeffElem(tower, tower.from_leaves([q])).to_text() == (str(q) if q else "0")


@st.composite
def _q_case(draw):
    name = draw(st.sampled_from(sorted(_Q_TOWERS)))
    tower, oracle = _q_tower_pair(_Q_TOWERS[name])
    leaf = st.fractions(min_value=-30, max_value=30, max_denominator=12)
    sparse = st.one_of(st.just(Fraction(0)), leaf)
    vectors = st.lists(sparse, min_size=oracle._sizes[-1], max_size=oracle._sizes[-1])
    return tower, oracle, draw(st.lists(vectors, min_size=2, max_size=4)), draw(
        st.integers(-6, 6))


@settings(max_examples=250, deadline=None)
@given(_q_case())
def test_q_tower_arithmetic_matches_nested_fractions(case):
    tower, o, vectors, n = case
    elems_ = [(CoeffElem(tower, tower.from_leaves(v)), o.from_leaves(v)) for v in vectors]

    def same(got, want):
        assert tower.leaves(got.rep) == o.leaves(want)
        assert got.to_text() == _o_rep_text(o, want, o.height)

    for a, oa in elems_:
        same(-a, o.rep_neg(oa))
        same(a + n, o.rep_add(oa, o.rep_from_int(n)))
        same(a * n, o.rep_mul(oa, o.rep_from_int(n)))
        for k in range(4):
            same(a ** k, o.rep_pow(oa, k))
        if oa:
            same(a.inv(), o.rep_inv(oa))
        else:
            with pytest.raises(DivisionByZero):
                a.inv()
        for b, ob in elems_:
            same(a + b, o.rep_add(oa, ob))
            same(a - b, o.rep_sub(oa, ob))
            same(a * b, o.rep_mul(oa, ob))
            assert (a == b) == (oa == ob)
            ka, kb, oka, okb = a.sort_key(), b.sort_key(), o.rep_key(oa), o.rep_key(ob)
            assert (ka < kb, ka == kb) == (oka < okb, oka == okb)
