import math
import random
from fractions import Fraction
from functools import cmp_to_key

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from genpuiseux.coeff import FieldTower
from genpuiseux.groups import (
    INF,
    GroupDescriptor,
    _is_square,
    cmp,
    gmin,
)
from genpuiseux.series import SeriesRing, parse_series


def rational_line():
    return GroupDescriptor([1])


def sqrt2_plane():
    return GroupDescriptor([(1, 0), (0, 1)], sqrt_disc=2)


def test_cmp_identity_case():
    d = rational_line()
    a = d.element([Fraction(3, 2)])
    b = d.element([Fraction(3, 2)])
    assert cmp(a, b) == 0


def test_cmp_forced_by_order():
    d = sqrt2_plane()
    a = d.element([1, 0])
    b = d.element([0, 1])
    assert cmp(a, b) == -1  # 1 < sqrt(2)


def test_cmp_three_vs_two_sqrt2():
    # Oracle: sign of 3 - 2*sqrt(2) decided by squaring: 3^2 = 9 > 8 = (2*sqrt 2)^2.
    assert Fraction(9) > Fraction(8)
    d = sqrt2_plane()
    a = d.element([3, 0])
    b = d.element([0, 2])
    assert cmp(a, b) == 1


def test_group_add_halves():
    d = rational_line()
    h = d.element([Fraction(1, 2)])
    assert (h + h) == d.element([1])


def test_total_order_compatible_with_add():
    rng = random.Random(7)
    d = sqrt2_plane()

    def rand_elem():
        return d.element([Fraction(rng.randint(-8, 8), rng.randint(1, 6)),
                          Fraction(rng.randint(-8, 8), rng.randint(1, 6))])

    for _ in range(300):
        a, b, c = rand_elem(), rand_elem(), rand_elem()
        assert cmp(a, b) == -cmp(b, a)
        if cmp(a, b) < 0:
            assert cmp(a + c, b + c) < 0
        # transitivity spot check
        trio = sorted([a, b, c])
        assert trio[0] <= trio[1] <= trio[2]


def test_canonical_form_idempotent():
    rng = random.Random(13)
    d = GroupDescriptor([1])
    for _ in range(100):
        q = Fraction(rng.randint(-20, 20), 2 ** rng.randint(0, 5) * rng.choice([1, 3, 5]))
        a = d.element([q])
        assert d.element(list(a.coords)) == a


def test_weights_must_be_independent():
    with pytest.raises(ValueError):
        GroupDescriptor([1, 2])  # 2*w1 - w2 = 0
    with pytest.raises(ValueError):
        GroupDescriptor([(1, 0), (2, 0)], sqrt_disc=2)
    GroupDescriptor([(1, 0), (0, 1)], sqrt_disc=2)  # fine


def _rank(rows):
    """Rank of a rational matrix by Fraction row reduction."""
    mat = [list(map(Fraction, row)) for row in rows]
    rank = 0
    for col in range(len(mat[0])):
        piv = next((r for r in range(rank, len(mat)) if mat[r][col] != 0), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        for r in range(len(mat)):
            if r != rank:
                f = mat[r][col] / mat[rank][col]
                mat[r] = [x - f * y for x, y in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def _positive(a, b, d):
    """Whether a + b*sqrt(d) > 0, by squaring when the signs differ."""
    if a >= 0 and b >= 0:
        return a > 0 or b > 0
    if a <= 0 and b <= 0:
        return False
    return a * a > b * b * d if a > 0 else b * b * d > a * a


_PART = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 2, 3]))


@settings(max_examples=400, deadline=None)
@given(st.sampled_from([1, 4, 9, 2, 3, 5, 12]),
       st.lists(st.tuples(_PART, _PART), min_size=1, max_size=3))
def test_independence_matches_row_reduction(d, parts):
    # only positive weights reach the independence test: flip negative ones
    parts = [(a, b) if _positive(a, b, d) else (-a, -b) for a, b in parts]
    assume(all(_positive(a, b, d) for a, b in parts))
    root = math.isqrt(d) if _is_square(d) else None
    if root is not None:
        # sqrt(d) is rational: the weights are the rationals a + b*sqrt(d)
        rows = [[a + b * root for a, b in parts]]
    else:
        rows = [[a for a, _ in parts], [b for _, b in parts]]
    independent = _rank(rows) == len(parts)
    try:
        GroupDescriptor(parts, sqrt_disc=d)
        accepted = True
    except ValueError as exc:
        assert str(exc) == "weights are Z-linearly dependent"
        accepted = False
    assert accepted == independent


def test_weight_forms_equality_and_repr():
    # d = 1 folds an (a, b) pair to the rational a + b
    assert GroupDescriptor([(1, 1)]) == GroupDescriptor([2])
    assert repr(GroupDescriptor([(1, 1)])) == "GroupDescriptor(weights=[2], d=1)"
    assert GroupDescriptor([Fraction(1, 2), (0, Fraction(3, 4))], sqrt_disc=2) == \
        GroupDescriptor([(Fraction(2, 4), 0), (0, Fraction(3, 4))], sqrt_disc=2)
    assert GroupDescriptor([1, (0, 1)], sqrt_disc=2) != GroupDescriptor([1, (0, 2)], sqrt_disc=2)
    assert (repr(GroupDescriptor([1, (0, 1)], sqrt_disc=2))
            == "GroupDescriptor(weights=[1, 0+1*sqrt(2)], d=2)")
    assert (repr(GroupDescriptor([Fraction(1, 2), (2, Fraction(-1, 2))], sqrt_disc=5))
            == "GroupDescriptor(weights=[1/2, 2+-1/2*sqrt(5)], d=5)")


def test_is_square_exact_on_huge_discriminants():
    assert _is_square(10 ** 400)
    assert not _is_square(10 ** 400 + 1)
    d = GroupDescriptor([1, (0, 1)], sqrt_disc=10 ** 400 + 1)
    assert cmp(d.element([0, 1]), d.element([10 ** 200, 0])) == 1
    with pytest.raises(ValueError):
        GroupDescriptor([1, (0, 1)], sqrt_disc=10 ** 400)  # sqrt(d) = 10**200
    with pytest.raises(ValueError):
        GroupDescriptor([1, (0, 1)], sqrt_disc=9)
    with pytest.raises(ValueError):
        GroupDescriptor([1], sqrt_disc=-2)


def test_weights_must_be_positive():
    with pytest.raises(ValueError):
        GroupDescriptor([-1])


def test_infinity_ordering():
    # every comparison form reads INF through groups.cmp, at rank 1 and on
    # the sqrt(2) plane (3 - 2*sqrt(2) > 0); INF > a is a's own a < INF
    for d, coords in ((rational_line(), [100]), (sqrt2_plane(), [3, -2])):
        a = d.element(coords)
        assert a < INF and a <= INF
        assert not a > INF and not a >= INF
        assert cmp(a, INF) == -1 and cmp(INF, a) == 1
        assert INF > a
        assert not (INF < a)
        assert INF + a is INF
    assert cmp(INF, INF) == 0


def test_infinity_absorbs_and_refuses():
    # v(0) = inf: inf + x, x + inf and inf - x are inf, as is inf scaled by
    # q > 0 or divided by an int n > 0; inf - inf, x - inf, -inf, a scale by
    # q <= 0 and a division by an int n <= 0 have no value and raise, and a
    # division by a non-int is refused
    for d, coords in ((rational_line(), [Fraction(-7, 3)]), (sqrt2_plane(), [3, -2])):
        a = d.element(coords)
        assert INF + a is INF and a + INF is INF and INF - a is INF
        with pytest.raises(ArithmeticError):
            a - INF
        for x in (a, INF):
            for n in (0, -1):
                with pytest.raises(ArithmeticError):
                    x / n
            with pytest.raises(TypeError):
                x / 0.5
    assert INF + INF is INF
    for q in (Fraction(1, 3), 2):
        assert INF.scale_unchecked(q) is INF
    for n in (1, 2, 7):
        assert INF / n is INF
    with pytest.raises(ArithmeticError):
        INF - INF
    for q in (0, -1):
        with pytest.raises(ArithmeticError):
            INF.scale_unchecked(q)
    with pytest.raises(ArithmeticError):
        -INF
    assert str(INF) == f"{INF}" == "inf"


@pytest.mark.parametrize("weights, d, coords, text", [
    ([1], 1, [Fraction(3, 2)], "3/2"),
    ([Fraction(1, 2)], 1, [3], "3/2"),  # the value, not the coordinate
    ([1], 1, [0], "0"),
    ([(0, 1)], 2, [2], "2*g1"),  # an irrational first weight: coordinates
    ([(0, 1)], 2, [0], "0"),
    ([(1, 0), (0, 1)], 2, [Fraction(-5, 4), 0], "-5/4"),
    ([(1, 0), (0, 1)], 2, [3, -2], "3*g1 + -2*g2"),
    ([(1, 0), (0, 1)], 2, [0, Fraction(1, 2)], "0*g1 + 1/2*g2"),
])
def test_str_is_the_report_text(weights, d, coords, text):
    # rank 1 and rank 2: the rational value bare, else the coordinate form
    a = GroupDescriptor(weights, sqrt_disc=d).element(coords)
    assert str(a) == f"{a}" == text


def test_text_roundtrip():
    # an element's text is read back as the exponent of series text
    d = sqrt2_plane()
    ring = SeriesRing(d, FieldTower.rationals())
    for coords in ([Fraction(3, 2), Fraction(-1, 4)], [0, 1], [2, 0]):
        a = d.element(coords)
        assert parse_series(ring, f"t^({a.to_text()})") == ring.monomial(a)


# -- independent order oracle -------------------------------------------------
#
# The reference value of an element is sum(c_j * w_j) = A + B*sqrt(d), summed
# here from the coordinates and the weights as given, and its sign is decided
# here by squaring.  The reference never calls into the engine's order code.

ORACLE_CASES = [
    # (weights as (a, b) pairs meaning a + b*sqrt(d), p of the coordinate
    # denominators p^k (1: any denominator), d)
    ([(Fraction(3, 2), 0)], 1, 1),
    ([(Fraction(2, 3), 0)], 2, 1),
    ([(1, 0)], 3, 1),
    ([(0, 1)], 1, 2),  # sqrt(2) alone: rank 1 with an irrational weight
    ([(1, 0), (0, 1)], 1, 2),
    ([(1, 0), (Fraction(1, 2), Fraction(1, 2))], 1, 5),  # 1 and the golden ratio
]


def _reference(weights, d, coords):
    a = sum(Fraction(c) * Fraction(w[0]) for c, w in zip(coords, weights))
    b = sum(Fraction(c) * Fraction(w[1]) for c, w in zip(coords, weights))
    return a, b, d


def _reference_sign(a, b, d):
    sa, sb = (a > 0) - (a < 0), (b > 0) - (b < 0)
    if sb == 0 or sa == sb:
        return sa or sb
    if sa == 0:
        return sb
    # opposite signs: the term with the larger square decides
    diff = a * a - b * b * d
    return sa if diff > 0 else (sb if diff < 0 else 0)


def _reference_cmp(x, y):
    return _reference_sign(x[0] - y[0], x[1] - y[1], x[2])


@st.composite
def _oracle_descriptor(draw):
    weights, p, d = draw(st.sampled_from(ORACLE_CASES))
    desc = GroupDescriptor(weights, sqrt_disc=d)
    if p == 1:
        coord = st.fractions(min_value=-20, max_value=20, max_denominator=12)
    else:
        coord = st.builds(lambda n, k: Fraction(n, p ** k),
                          st.integers(-60, 60), st.integers(0, 4))
    vector = st.lists(coord, min_size=desc.rank, max_size=desc.rank)
    return desc, weights, vector


@st.composite
def _element_pairs(draw):
    desc, weights, vector = draw(_oracle_descriptor())
    ca = draw(vector)
    cb = list(ca) if draw(st.booleans()) else draw(vector)
    return desc, weights, ca, cb


@settings(max_examples=300, deadline=None)
@given(_element_pairs())
def test_order_matches_independent_oracle(case):
    desc, weights, ca, cb = case
    d = desc.sqrt_disc
    ra, rb = _reference(weights, d, ca), _reference(weights, d, cb)
    # a twin descriptor: equal to desc but a different object
    twin = GroupDescriptor(weights, sqrt_disc=d)
    a, b = desc.element(ca), twin.element(cb)
    want = _reference_cmp(ra, rb)
    assert cmp(a, b) == want
    assert cmp(b, a) == -want
    assert (a < b, a <= b, a > b, a >= b) == (want < 0, want <= 0, want > 0, want >= 0)
    assert (a == b) == (want == 0) == (ra == rb)
    if a == b:
        assert hash(a) == hash(b)
    # the stored coordinates carry the value: sum c_j * w_j from a.coords
    assert _reference(weights, d, a.coords) == ra
    # and so does the cached value pair (A, B): the value is (A + B*sqrt(d)) / (den * D)
    pair = a.value_pair()
    assert a.value_pair() is pair
    scale = a.den * desc._wden
    assert (Fraction(pair[0], scale), Fraction(pair[1], scale), d) == ra
    assert cmp(a, INF) == -1 and cmp(INF, a) == 1 and cmp(INF, INF) == 0
    assert gmin(a, b) is (a if want <= 0 else b)
    assert gmin(a, INF) is a and gmin(INF, b) is b
    assert gmin(INF) is INF and gmin(INF, INF) is INF


SORT_CASES = [
    # rank 1 (rational weights, and sqrt(2) alone) and the rank-2 sqrt(2) plane
    ([(Fraction(3, 2), 0)], 1, 1),
    ([(1, 0)], 3, 1),
    ([(0, 1)], 1, 2),
    ([(1, 0), (0, 1)], 1, 2),
]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_sort_key_matches_independent_oracle(data):
    # sort_terms against the squaring oracle, on lists that mix coordinate
    # denominators 1..12 and repeat values
    weights, p, d = data.draw(st.sampled_from(SORT_CASES))
    desc = GroupDescriptor(weights, sqrt_disc=d)
    coord = st.builds(Fraction, st.integers(-60, 60), st.integers(1, 12))
    pool = data.draw(st.lists(st.lists(coord, min_size=desc.rank, max_size=desc.rank),
                              min_size=1, max_size=6))
    picks = data.draw(st.lists(st.sampled_from(pool), max_size=14))
    elems = [desc.element(c) for c in picks]
    ref = {id(e): _reference(weights, d, e.coords) for e in elems}
    want = sorted(elems, key=cmp_to_key(
        lambda x, y: _reference_cmp(ref[id(x)], ref[id(y)])))
    terms = [(e, k) for k, e in enumerate(elems)]
    desc.sort_terms(terms)
    assert [e.coords for e, _ in terms] == [e.coords for e in want]
    # each element keeps its partner, and equal elements keep their order
    assert all(elems[k] is e for e, k in terms)
    assert all(k1 < k2 for (e1, k1), (e2, k2) in zip(terms, terms[1:]) if e1 == e2)


# -- independent text oracle ----------------------------------------------------
#
# The text of an element is rendered here from the drawn Fraction coordinates,
# str(Fraction) for each, and for str() the value c_1 * w_1 when only the first
# coordinate can be non-zero and the first weight is rational (or c_1 = 0).

@st.composite
def _text_cases(draw):
    weights, _, d = draw(st.sampled_from(ORACLE_CASES))
    desc = GroupDescriptor(weights, sqrt_disc=d)
    # one shared denominator, so that some coordinates reduce and some do not
    den = draw(st.integers(1, 72) | st.sampled_from([2 ** 64, 3 ** 33]))
    nums = draw(st.lists(st.integers(-90, 90) | st.just(0),
                         min_size=desc.rank, max_size=desc.rank))
    return desc, weights, [Fraction(n, den) for n in nums]


@settings(max_examples=300, deadline=None)
@given(_text_cases())
def test_text_matches_fraction_rendering(case):
    desc, weights, coords = case
    a = desc.element(coords)
    text = " + ".join(f"{c}*g{j + 1}" for j, c in enumerate(coords))
    assert a.to_text() == text
    w0 = Fraction(weights[0][0]) + (Fraction(weights[0][1]) if desc.sqrt_disc == 1 else 0)
    first_rational = desc.sqrt_disc == 1 or weights[0][1] == 0
    if not any(coords[1:]) and (first_rational or coords[0] == 0):
        assert str(a) == str(coords[0] * w0)
    else:
        assert str(a) == text


def test_floats_are_refused():
    # a float would enter every decision as its binary rational: 0.1 would be
    # the weight 3602879701896397/36028797018963968
    plane = sqrt2_plane()
    refusals = [
        lambda: GroupDescriptor([0.1]),
        lambda: GroupDescriptor([1, (0, 0.5)], sqrt_disc=2),
        lambda: GroupDescriptor([(0.5, 0)]),
        lambda: rational_line().element([0.1]),
        lambda: plane.element([1, 0.5]),
        lambda: rational_line().from_rational(0.1),
        lambda: GroupDescriptor([(0, 1)], sqrt_disc=2).from_rational(0.5),
        lambda: rational_line().basis(0).scale_unchecked(0.1),
        lambda: plane.element([1, 2]).scale_unchecked(2.0),
        lambda: INF.scale_unchecked(0.5),
    ]
    for refused in refusals:
        with pytest.raises(TypeError, match=r"not the float (0\.1|0\.5|2\.0)"):
            refused()
    # ints and Fractions read as before
    line = GroupDescriptor([Fraction(1, 10)])
    assert line.element([10]) == line.from_rational(1)
    assert str(line.basis(0).scale_unchecked(Fraction(1, 10))) == "1/100"
    assert plane.element([1, Fraction(1, 2)]).scale_unchecked(2) == plane.element([2, 1])


# -- independent arithmetic oracle ----------------------------------------------
#
# Elements store integer numerators over one common denominator.  The
# reference here is the plain tuple of Fraction coordinates, combined
# coordinate by coordinate in the test; its order is the squaring oracle
# above, and its p-part of the denominator is read off each coordinate.

ARITH_CASES = [
    # (weights as (a, b) pairs, p of the coordinate denominators, d)
    ([(Fraction(3, 2), 0)], 1, 1),
    ([(1, 0)], 2, 1),
    ([(Fraction(2, 3), 0)], 3, 1),
    ([(1, 0), (0, 1)], 1, 2),
]


def _assert_canonical(e, want):
    assert isinstance(e.den, int) and e.den > 0
    assert all(isinstance(n, int) for n in e.num)
    assert math.gcd(e.den, *e.num) == 1
    assert e.coords == tuple(want)
    assert all(isinstance(c, Fraction) for c in e.coords)


@st.composite
def _arith_cases(draw):
    weights, p, d = draw(st.sampled_from(ARITH_CASES))
    desc = GroupDescriptor(weights, sqrt_disc=d)
    if p == 1:
        coord = st.fractions(min_value=-20, max_value=20, max_denominator=12)
        scalar = st.fractions(min_value=-6, max_value=6, max_denominator=9)
    else:
        coord = st.builds(lambda n, k, u: Fraction(n, p ** k * u),
                          st.integers(-60, 60), st.integers(0, 4), st.sampled_from([1, 1, 5]))
        scalar = st.builds(lambda n, k: Fraction(n, p ** k),
                           st.integers(-9, 9), st.integers(0, 3))
    vector = st.lists(coord, min_size=desc.rank, max_size=desc.rank)
    ca = draw(vector)
    cb = list(ca) if draw(st.booleans()) else draw(vector)
    return (desc, weights, ca, cb, draw(st.integers(-7, 7)), draw(scalar),
            draw(st.fractions(min_value=-6, max_value=6, max_denominator=10)))


@settings(max_examples=400, deadline=None)
@given(_arith_cases())
def test_arithmetic_matches_fraction_reference(case):
    desc, weights, ca, cb, n, q, r = case
    d = desc.sqrt_disc
    ca, cb = [Fraction(c) for c in ca], [Fraction(c) for c in cb]
    a, b = desc.element(ca), desc.element(cb)
    _assert_canonical(a, ca)
    _assert_canonical(b, cb)
    _assert_canonical(a + b, [x + y for x, y in zip(ca, cb)])
    _assert_canonical(a - b, [x - y for x, y in zip(ca, cb)])
    _assert_canonical(-a, [-x for x in ca])
    _assert_canonical(a.scale_unchecked(n), [x * n for x in ca])
    _assert_canonical(a.scale_unchecked(q), [x * q for x in ca])
    _assert_canonical(a.scale_unchecked(r), [x * r for x in ca])
    for k in range(1, 8):
        _assert_canonical(a / k, [x / k for x in ca])
    # order, equality and zero against the reference
    want = _reference_cmp(_reference(weights, d, ca), _reference(weights, d, cb))
    assert cmp(a, b) == want and cmp(b, a) == -want
    assert (a == b) == (ca == cb) == (want == 0)
    assert (a - b).is_zero() == (ca == cb)
    assert a.is_zero() == all(x == 0 for x in ca)
    # one value, one hash, whatever the route that built it
    routes = [((a + b) - b, a), (a + b, b + a),
              (a.scale_unchecked(r) + a.scale_unchecked(1 - r), a),
              (a + b, desc.element([x + y for x, y in zip(ca, cb)]))]
    if n:
        routes.append((a.scale_unchecked(n).scale_unchecked(Fraction(1, n)), a))
    for x, y in routes:
        assert x == y and hash(x) == hash(y) and hash(x) == hash(x)
    if a == b:
        assert hash(a) == hash(b)


def test_equal_values_by_different_routes_hash_equal():
    d = rational_line()
    h = d.element([Fraction(1, 2)])
    one = d.element([1])
    assert h + h == one and hash(h + h) == hash(one)
    assert hash(one) == hash(one)  # the cached value is the one computed first
    d3 = GroupDescriptor([1])
    third = d3.element([Fraction(3, 2)]).scale_unchecked(Fraction(1, 3))
    assert third == d3.element([Fraction(1, 2)])
    assert hash(third) == hash(d3.element([Fraction(1, 2)]))
    assert (third.num, third.den) == ((1,), 2)
