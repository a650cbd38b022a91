"""Tower and Witt arithmetic against a dense oracle written in this file.

The oracle shares no code with ``coeff``: an element of a level-k tower is the
flat list of its leaves (Fractions over Q, integers mod the modulus otherwise),
constant coefficients first and each level padded to its stage degree; a
product is the schoolbook product of the top-level coefficient blocks,
reduced from the top by the stage polynomial written below.  Elements meet the
engine only through the flat walk, ``FieldTower.from_leaves`` and ``leaves``.
"""

from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from genpuiseux.coeff import CoeffElem, FieldTower, WittElem, WittRing


class Dense:
    """A tower as leaves mod `modulus` (None: exact Fractions) and monic stage
    polynomials, ascending, each coefficient the leaf list of a lower element."""

    def __init__(self, modulus, stages):
        self.modulus, self.stages = modulus, stages
        self.sizes = [1]
        for mp in stages:
            self.sizes.append(self.sizes[-1] * (len(mp) - 1))

    def norm(self, x):
        return list(x) if self.modulus is None else [c % self.modulus for c in x]

    def add(self, x, y):
        return self.norm(a + b for a, b in zip(x, y))

    def sub(self, x, y):
        return self.norm(a - b for a, b in zip(x, y))

    def mul(self, x, y, level=None):
        level = len(self.stages) if level is None else level
        if level == 0:
            return self.norm([x[0] * y[0]])
        mp, size = self.stages[level - 1], self.sizes[level - 1]
        d = len(mp) - 1
        xs = [x[i * size:(i + 1) * size] for i in range(d)]
        ys = [y[i * size:(i + 1) * size] for i in range(d)]
        prod = [[0] * size for _ in range(2 * d - 1)]
        for i, a in enumerate(xs):
            for j, b in enumerate(ys):
                prod[i + j] = self.add(prod[i + j], self.mul(a, b, level - 1))
        for k in range(2 * d - 2, d - 1, -1):  # X^k = X^(k-d) * (X^d - mp(X))
            for i in range(d):
                prod[k - d + i] = self.sub(prod[k - d + i], self.mul(prod[k], mp[i], level - 1))
        return [c for block in prod[:d] for c in block]


def _stage(*coeffs):
    """A stage polynomial from its coefficients, ascending, each a leaf list."""
    return tuple([F(c) if isinstance(c, str) else c for c in cs] for cs in coeffs)


# name -> (p or None for Q, Witt precision or None, stages)
_DOMAINS = {
    "Q": (None, None, ()),
    "Q(w)": (None, None, (_stage([1], [1], [1]),)),
    "Q(sqrt2)": (None, None, (_stage([-2], [0], [1]),)),
    "Q(sqrt(1/3))": (None, None, (_stage(["-1/3"], [0], [1]),)),
    # X^2 - (1 + sqrt2)/2 over Q(sqrt2): a norm of -1/4 is no square there
    "Q(sqrt2)(v)": (None, None, (_stage([-2], [0], [1]),
                                 _stage(["-1/2", "-1/2"], [0, 0], [1, 0]))),
    "F9": (3, None, (_stage([1], [0], [1]),)),
    "F27": (3, None, (_stage([2], [2], [0], [1]),)),  # X^3 - X - 1
    "F16 over F4": (2, None, (_stage([1], [1], [1]),
                              _stage([0, 1], [1, 0], [1, 0]))),  # X^2 + X + w
    "W(F5)": (5, 3, ()),
    "W(F9)": (3, 3, (_stage([1], [0], [1]),)),
    # the stages of "F16 over F4" mod 2^4: a product reduces mod 16 at both levels
    "W(F16 over F4)": (2, 4, (_stage([1], [1], [1]),
                              _stage([0, 1], [1, 0], [1, 0]))),
}


def _domain(name):
    """The engine's domain for a name, its oracle, and the two walks between
    an engine element and its leaf list."""
    p, precision, stages = _DOMAINS[name]
    tower = FieldTower.rationals() if p is None else FieldTower.prime_field(p)
    for k, mp in enumerate(stages):
        tower = tower.adjoin(tuple(tower.from_leaves(c) for c in mp))
    if precision is None:
        return (Dense(p, stages), lambda v: CoeffElem(tower, tower.from_leaves(v)),
                lambda x: list(tower.leaves(x.rep)))
    ring = WittRing(tower, precision)
    return (Dense(p ** precision, stages), lambda v: WittElem(ring, ring.from_leaves(v)),
            lambda x: list(ring.leaves(x.rep)))


@st.composite
def _case(draw):
    name = draw(st.sampled_from(sorted(_DOMAINS)))
    oracle, make, read = _domain(name)
    if oracle.modulus is None:
        leaf = st.one_of(st.just(F(0)), st.fractions(-9, 9, max_denominator=6))
    else:
        leaf = st.integers(0, oracle.modulus - 1)
    vectors = [draw(st.lists(leaf, min_size=oracle.sizes[-1], max_size=oracle.sizes[-1]))
               for _ in range(3)]
    return name, oracle, make, read, vectors


@settings(max_examples=300, deadline=None)
@given(_case())
def test_tower_and_witt_arithmetic_match_the_dense_oracle(case):
    _, o, make, read, (u, v, w) = case
    x, y, z = map(make, (u, v, w))
    assert read(x) == o.norm(u)
    assert read(x + y) == o.add(u, v)
    assert read(x - y) == o.sub(u, v)
    assert read(-x) == o.sub([0] * len(u), u)
    assert read(x * y) == o.mul(u, v)
    assert read(x.add_mul(y, z)) == o.add(u, o.mul(v, w))
    assert x.add_mul(y, z) == x + y * z


@settings(max_examples=300, deadline=None)
@given(_case())
def test_ring_laws_and_inverses(case):
    _, _, make, _, vectors = case
    x, y, z = map(make, vectors)
    assert (x * y) * z == x * (y * z)
    assert (x + y) + z == x + (y + z)
    assert x * (y + z) == x * y + x * z
    assert x * y == y * x
    assert x.add_mul(y, z).add_mul(y, -z) == x
    # over a tower every non-zero element is a unit; over W(k) those with a
    # non-zero residue
    if x.is_unit():
        assert x * x.inv() == 1
