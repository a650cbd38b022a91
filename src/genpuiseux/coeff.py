"""Coefficient domains: residue-field towers and finite-precision p-adics.

A FieldTower is a prime field F_p or Q extended by a finite chain of simple
algebraic extensions, each given by a monic minimal polynomial over the
previous stage.  Elements are nested coefficient tuples with integer leaves,
kept in reduced canonical form (degree in each generator below the degree of
its minimal polynomial, trailing zeros trimmed); over Q (a RationalTower) over
one positive denominator.

A WittRing, the coefficient ring in mixed characteristic (Cohen), is the
complete local ring with residue field a finite tower at working precision
N: the residue tower's stages over Z/p^N (its char).  residue/lift are exact.

One nested arithmetic serves all three, FieldTower and its two subclasses:
it reduces leaves mod leaf_mod, which is p over F_p, None over Q and p^N in
a WittRing, whose elements are WittElems, a subclass of CoeffElem.
FieldTower.leaves and from_leaves are the one walk between a rep and its
flat list of leaves, which are Fractions over Q.  At height 0, where a rep is
one integer, WittRing.carry, multi_digit, residue and F_p text read it as it is.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache, partial, reduce
from itertools import zip_longest

from .errors import (
    DivisionByZero,
    EngineInvariantViolation,
    IrreducibleOverRationals,
    NonUnit,
)


def binary_power(x, n, one, mul):
    """x^n for n >= 0 by square-and-multiply: a product per set bit of n
    after the first and a squaring only while higher bits remain, so x^1
    is x itself and x^0 is ``one``."""
    out = None
    while n:
        if n & 1:
            out = x if out is None else mul(out, x)
        n >>= 1
        if n:
            x = mul(x, x)
    return one if out is None else out


class FieldTower:
    """Immutable tower of simple extensions over F_p or Q."""

    def __init__(self, base, stages=()):
        # base: ('F', p) or ('Q',)
        self.base = base
        self.stages = tuple(stages)  # (name, minpoly full tuple incl leading 1)
        self.leaf_mod = base[1] if base[0] == 'F' else None
        self.height = len(self.stages)
        # _sizes[k]: the padded leaf count of a level-k rep; _exps[j]: the stage
        # exponents of leaf j, lowest stage first
        self._sizes, self._exps = [1], [()]
        for _, mp in self.stages:
            self._sizes.append(self._sizes[-1] * (len(mp) - 1))
            self._exps = [e + (i,) for i in range(len(mp) - 1) for e in self._exps]
        self._solved = {}  # solve_in_closure's results over this tower, by equation

    @classmethod
    def prime_field(cls, p):
        return cls(('F', int(p)))

    @staticmethod
    def rationals():
        return RationalTower(('Q',))

    @property
    def char(self):
        return self.leaf_mod or 0

    def stage_degree(self, k):
        return len(self.stages[k][1]) - 1

    def cardinality(self):
        return None if self.leaf_mod is None else self.leaf_mod ** self._sizes[-1]

    def extends(self, other):
        """True if other's stages are a prefix of ours (same kind, base and leaf_mod)."""
        return (type(other) is type(self) and self.base == other.base
                and self.leaf_mod == other.leaf_mod and self.stages[:other.height] == other.stages)

    def __eq__(self, other):
        # the type check keeps WittRing(F_p, 1), whose leaf_mod is also p, apart from F_p
        return (type(other) is type(self) and self.base == other.base
                and self.stages == other.stages and self.leaf_mod == other.leaf_mod)

    def __repr__(self):
        name = f"F{self.base[1]}" if self.base[0] == 'F' else "Q"
        for nm, mp in self.stages:
            name += f"[{nm}]"
        return f"<tower {name}>"

    # -- representations -------------------------------------------------------
    #
    # A rep at level L > 0 is the coefficient tuple, over level L - 1, of a
    # polynomial in the stage-L generator; a polynomial over level L is thus a
    # rep at level L + 1 before reduction, and rep_add / rep_sub at level
    # L + 1 are polynomial sum and difference (they never read a stage).

    def rep_zero(self, level=None):
        level = self.height if level is None else level
        return 0 if level == 0 else ()

    def rep_one(self, level=None):
        return self.rep_from_int(1, level)

    def rep_from_int(self, n, level=None):
        level = self.height if level is None else level
        if self.leaf_mod is not None:
            n %= self.leaf_mod
        return self.rep_lift(n, 0, level)

    def rep_add(self, x, y, level=None):
        level = self.height if level is None else level
        if level == 0:
            m = self.leaf_mod
            return x + y if m is None else (x + y) % m
        if level == 1:
            return self._flat([a + b for a, b in zip_longest(x, y, fillvalue=0)])
        pairs = zip_longest(x, y, fillvalue=self.rep_zero(level - 1))
        return tuple(_trim([self.rep_add(a, b, level - 1) for a, b in pairs]))

    def rep_neg(self, x, level=None):
        level = self.height if level is None else level
        if level == 0:
            m = self.leaf_mod
            return -x if m is None else -x % m
        if level == 1:
            return self._flat([-c for c in x])
        return tuple(self.rep_neg(c, level - 1) for c in x)

    def rep_sub(self, x, y, level=None):
        level = self.height if level is None else level
        if level == 1:
            return self._flat([a - b for a, b in zip_longest(x, y, fillvalue=0)])
        return self.rep_add(x, self.rep_neg(y, level), level)

    def rep_mul(self, x, y, level=None):
        level = self.height if level is None else level
        if level == 0:
            m = self.leaf_mod
            return x * y if m is None else x * y % m
        if level > 1:
            return self._reduce(_pmul(self, x, y, level - 1), level)
        # one schoolbook product, reduced by the monic stage polynomial, then leaf_mod once
        out, mp = [0] * (len(x) + len(y) - 1), self.stages[0][1]
        for i, a in enumerate(x):
            for j, b in enumerate(y, i):
                out[j] += a * b
        for k in range(len(out) - len(mp), -1, -1):
            if lead := out.pop():
                for i, c in enumerate(mp[:-1], k):
                    out[i] -= lead * c
        return self._flat(out)

    def rep_add_mul(self, x, y, z, level=None):
        """x + y*z, the one fused operation."""
        return self.rep_add(x, self.rep_mul(y, z, level), level)

    def _flat(self, leaves):
        """The level-1 rep of a list of integer leaves (consumed): each mod leaf_mod, trimmed."""
        return tuple(_trim(leaves if (m := self.leaf_mod) is None else [c % m for c in leaves]))

    def _reduce(self, coeffs, level):
        """Reduce a coefficient list (consumed) modulo the stage-level minimal polynomial."""
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
            return pow(x, -1, self.leaf_mod)
        # extended Euclid of x against the stage minimal polynomial
        r0, r1 = self.stages[level - 1][1], x
        s0, s1 = (), (self.rep_one(level - 1),)
        while len(r1) > 1:
            q, r = _pdivmod(self, r0, r1, level - 1)
            r0, r1 = r1, r
            s0, s1 = s1, self.rep_sub(s0, _pmul(self, q, s1, level - 1), level)
        if not r1:
            raise DivisionByZero("element not invertible (non-trivial gcd)")
        c = self.rep_inv(r1[0], level - 1)
        return self.rep_mul(self.rep_lift(c, level - 1, level), s1, level)

    def rep_pow(self, x, n, level=None):
        if n < 0:
            raise ValueError("tower powers need a non-negative exponent")
        level = self.height if level is None else level
        return binary_power(x, n, self.rep_one(level),
                            lambda a, b: self.rep_mul(a, b, level))

    def leaves(self, rep, level=None):
        """The base-field leaves of a rep, constant coefficients first, each
        level zero-padded to its stage degree: the same count for every rep."""
        level = self.height if level is None else level
        if level == 0:
            return [rep]
        out = []
        for c in rep:
            out += self.leaves(c, level - 1)
        return out + [0] * (self._sizes[level] - len(out))

    def from_leaves(self, leaves, level=None, start=0):
        """The rep whose padded leaves from `start` on are `leaves`, trimmed."""
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

    def coerce_rep(self, x, from_tower):
        """Lift a rep from a prefix tower into this tower."""
        if from_tower == self:
            return x
        if not self.extends(from_tower):
            raise ValueError("incompatible towers")
        return self.rep_lift(x, from_tower.height, self.height)

    # -- as a series ring's coefficient domain (a WittRing overrides these) ---
    # The residue tower is the tower itself; residue and lift are the identity.

    @property
    def tower(self):
        return self

    def zero(self):
        return self.element(self, self.rep_zero())

    def one(self):
        return self.element(self, self.rep_one())

    def from_int(self, n):
        return self.element(self, self.rep_from_int(n))

    def residue(self, c):
        return c

    def lift(self, r):
        return r

    def coerce(self, c):
        """An element over a prefix of this tower, moved up into it."""
        return self.element(self, self.coerce_rep(c.rep, c.tower))

    def over(self, tower):
        return tower

    # -- canonical order and enumeration ---------------------------------------

    def rep_key(self, x):
        # every level is padded to its stage degree, so the flat leaves sort
        # as the coefficient vectors do, level by level
        return tuple((q < 0, abs(q.numerator), q.denominator) for q in self.leaves(x))

    def enumerate_elements(self, level=None):
        """Lazy stream of all elements of a finite tower in canonical key order.

        The key compares coefficient vectors lexicographically, constant term
        first, so the stream is the product of the level below taken with the
        constant coefficient slowest.
        """
        if self.leaf_mod != self.base[-1]:  # over Q, or Z/p^N with N > 1
            raise ValueError(f"cannot enumerate {self!r}: not a finite field")
        level = self.height if level is None else level
        if level == 0:
            return iter(range(self.base[1]))
        below = partial(self.enumerate_elements, level - 1)
        return (tuple(_trim(list(v)))
                for v in _vectors(below, self.stage_degree(level - 1)))

    # -- extension ---------------------------------------------------------------

    def next_gen_name(self):
        return "w" if not self.stages else f"w{self.height + 1}"

    def adjoin(self, minpoly_full, name=None):
        """New tower with a stage for the given monic minimal polynomial."""
        name = name or self.next_gen_name()
        return type(self)(self.base, self.stages + ((name, tuple(minpoly_full)),))


class RationalTower(FieldTower):
    """A tower over Q by quadratic stages.  A non-zero rep is (num, den): num a rep
    of `arith`, over Z with each generator scaled by the least D that makes its stage
    integral, and den > 0 prime to the leaves of num; zero is ().  So equality is
    structural.  leaves and from_leaves give and take Fractions, unscaled."""

    def __init__(self, base, stages=()):
        super().__init__(base, stages)
        self.arith, self._scales = FieldTower(base), [1]  # _scales: D^e per leaf
        for name, mp in self.stages:
            if len(mp) != 3:
                raise ValueError("the stages of a tower over Q are quadratic")
            D, below = math.lcm(*(c[1] for c in mp if c)), self.arith.height
            self.arith = self.arith.adjoin(tuple(
                _scale(c[0], D ** (2 - i) // c[1], below) if c else self.arith.rep_zero()
                for i, c in enumerate(mp)), name)
            self._scales += [s * D for s in self._scales]

    def rep_zero(self, level=None):
        return ()

    def rep_from_int(self, n, level=None):
        return (self.arith.rep_from_int(n, level), 1) if n else ()

    def rep_add(self, x, y, level=None):
        """x + y; for a non-zero x, y may be any (num, den) pair, not only one in lowest terms."""
        if not x or not y:
            return x or y
        (a, da), (b, db), level = x, y, self.height if level is None else level
        if da != db:  # each side scaled to the lcm, a side already there left as it is
            den = math.lcm(da, db)
            a, b, da = (a if den == da else _scale(a, den // da, level),
                        b if den == db else _scale(b, den // db, level), den)
        return _normal(self.arith.rep_add(a, b, level), da, level)

    def rep_add_mul(self, x, y, z, level=None):
        """x + y*z with one normalization: rep_add takes the product's pair unreduced."""
        if not x or not y or not z:
            return self.rep_add(x, self.rep_mul(y, z, level), level)
        return self.rep_add(x, (self.arith.rep_mul(y[0], z[0], level), y[1] * z[1]), level)

    def rep_neg(self, x, level=None):
        return (self.arith.rep_neg(x[0], level), x[1]) if x else ()

    def rep_sub(self, x, y, level=None):
        return self.rep_add(x, self.rep_neg(y, level), level)

    def rep_mul(self, x, y, level=None):
        if not x or not y:
            return ()
        level = self.height if level is None else level
        return _normal(self.arith.rep_mul(x[0], y[0], level), x[1] * y[1], level)

    def rep_inv(self, x, level=None):
        level = self.height if level is None else level
        if not x:
            raise DivisionByZero("inverse of zero")
        (num, den), ar, below = x, self.arith, level - 1
        if level == 0:
            return (den, num) if num > 0 else (-den, -num)
        # stage X^2 + bX + c: num + conj(num) = 2 a0 - b a1, and num conj(num) lies below
        a0, a1 = (num + (ar.rep_zero(below),))[:2]
        tr = ar.rep_sub(_scale(a0, 2, below), ar.rep_mul(a1, ar.stages[below][1][1], below), below)
        conj = (ar.rep_sub(ar.rep_lift(tr, below, level), num, level), 1)
        (norm,), n_den = self.rep_mul(x, conj, level)
        return self.rep_mul(conj, self.rep_lift(self.rep_inv((norm, n_den), below),
                                                below, level), level)

    def leaves(self, rep, level=None):
        num, den = rep or (self.arith.rep_zero(level), 1)
        return [Fraction(n * s, den) for n, s in zip(self.arith.leaves(num, level), self._scales)]

    def from_leaves(self, leaves, level=None):
        level = self.height if level is None else level
        vals = [Fraction(q) / s for q, s in zip(leaves, self._scales)]
        den = math.lcm(*(v.denominator for v in vals))
        return _normal(self.arith.from_leaves([int(v * den) for v in vals], level), den, level)

    def rep_lift(self, x, from_level, to_level):
        return (self.arith.rep_lift(x[0], from_level, to_level), x[1]) if x else ()


# -- polynomial helpers over a tower (coefficient lists of reps, ascending) ------


def _trim(coeffs):
    """Drop trailing zero reps (the falsy ones) from a list, in place; returns it."""
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def _scale(rep, c, level, exact=False):
    """An integer rep of `level` times c, or divided by c if `exact` (c divides every leaf)."""
    if level == 0:
        return rep // c if exact else rep * c
    if level == 1:
        return tuple([x // c for x in rep] if exact else [x * c for x in rep])
    return tuple([_scale(x, c, level - 1, exact) for x in rep])


def _content(rep, level):
    """The gcd of the integer leaves of a rep of `level`."""
    if level < 2:
        return math.gcd(*rep) if level else rep
    return math.gcd(*(_content(x, level - 1) for x in rep))


def _normal(num, den, level):
    """The Q rep of num / den: lowest terms by one gcd over den and the leaves of num."""
    if not num:
        return ()
    g = 1 if den == 1 else math.gcd(den, _content(num, level))
    return (num, den) if g == 1 else (_scale(num, g, level, exact=True), den // g)


def _vectors(stream, n):
    """All n-tuples over stream() (a fresh iterator per call), first entry slowest."""
    if n == 0:
        yield ()
        return
    for head in stream():
        for tail in _vectors(stream, n - 1):
            yield (head,) + tail


def _pmul(tower, f, g, level):
    """Product of polynomials over `level`: a level + 1 product before reduction."""
    if not f or not g:
        return []
    out = [tower.rep_zero(level)] * (len(f) + len(g) - 1)
    for i, fi in enumerate(f):
        if not fi:
            continue
        for j, gj in enumerate(g):
            out[i + j] = tower.rep_add(out[i + j], tower.rep_mul(fi, gj, level), level)
    return _trim(out)


def _pdivmod(tower, f, g, level):
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


def _pmonic(tower, f, level):
    f = _trim(list(f))
    if not f:
        return f
    inv = tower.rep_inv(f[-1], level)
    return [tower.rep_mul(c, inv, level) for c in f]


def _pgcd(tower, f, g, level):
    f, g = _trim(list(f)), _trim(list(g))
    while g:
        f, g = g, _pdivmod(tower, f, g, level)[1]
    return _pmonic(tower, f, level)


def _ppowmod(tower, f, n, mod, level):
    return binary_power(_pdivmod(tower, f, mod, level)[1], n, [tower.rep_one(level)],
                        lambda a, b: _pdivmod(tower, _pmul(tower, a, b, level), mod,
                                              level)[1])


def _pderiv(tower, f, level):
    return _trim([tower.rep_mul(c, tower.rep_from_int(i, level), level)
                  for i, c in enumerate(f)][1:])


def _poly_key(tower, f):
    return (len(f), tuple(tower.rep_key(c) for c in f))


# -- factorization over finite towers ------------------------------------------


def _squarefree_parts(tower, f, level):
    """[(g_i, i)] with f = prod g_i^i, g_i squarefree monic, char-p aware."""
    p = tower.base[1]
    f = _pmonic(tower, f, level)
    out = []

    def rec(f, mult):
        if len(f) <= 1:
            return
        df = _pderiv(tower, f, level)
        if not df:
            # f = g(x^p): take p-th roots of coefficients
            q = tower.cardinality()
            g = [tower.rep_pow(f[i], q // p, level) for i in range(0, len(f), p)]
            rec(g, mult * p)
            return
        c = _pgcd(tower, f, df, level)
        w = _pdivmod(tower, f, c, level)[0]
        i = 1
        while len(w) > 1:
            y = _pgcd(tower, w, c, level)
            z = _pdivmod(tower, w, y, level)[0]
            if len(z) > 1:
                out.append((z, mult * i))
            w = y
            c = _pdivmod(tower, c, y, level)[0]
            i += 1
        if len(c) > 1:
            rec(c, mult)

    rec(f, 1)
    # merge equal factors
    merged = {}
    for g, m in out:
        key = tuple(g)
        merged[key] = merged.get(key, 0) + m
    return [(list(k), m) for k, m in sorted(merged.items(),
                                            key=lambda km: _poly_key(tower, list(km[0])))]


def _distinct_degree(tower, f, level):
    """[(product-of-irreducibles-of-degree-d, d)] for squarefree f."""
    q = tower.cardinality()
    out = []
    x = [tower.rep_zero(level), tower.rep_one(level)]
    h = list(x)
    d = 0
    f = list(f)
    while len(f) - 1 >= 2 * (d + 1):
        d += 1
        h = _ppowmod(tower, h, q, f, level)
        g = _pgcd(tower, tower.rep_sub(h, x, level + 1), f, level)
        if len(g) > 1:
            out.append((g, d))
            f = _pdivmod(tower, f, g, level)[0]
            h = _pdivmod(tower, h, f, level)[1]
    if len(f) > 1:
        out.append((f, len(f) - 1))
    return out


def _witness_candidates(tower, degree, level):
    """Lazy stream of nonconstant polys of degree < degree, by degree; in each
    degree the monic ones first (X + a for degree 1), then the rest, each by key."""
    one, elements = tower.rep_one(level), partial(tower.enumerate_elements, level)
    for d in range(1, degree):
        yield from ([*v, one] for v in _vectors(elements, d))
        yield from (list(v) for v in _vectors(elements, d + 1) if v[-1] and v[-1] != one)


def _equal_degree_split(tower, f, d, level):
    """Factor squarefree f = product of irreducibles of equal degree d."""
    if len(f) - 1 == d:
        return [f]
    q = tower.cardinality()
    p = tower.base[1]
    for h in _witness_candidates(tower, len(f) - 1, level):
        if p == 2:
            # trace map sum h^(2^i) over the degree-d extension
            e = q.bit_length() - 1  # q = 2^e
            t = list(h)
            acc = list(h)
            for _ in range(e * d - 1):
                t = _ppowmod(tower, t, 2, f, level)
                acc = tower.rep_add(acc, t, level + 1)
            g = _pgcd(tower, acc, f, level)
        else:
            w = _ppowmod(tower, h, (q ** d - 1) // 2, f, level)
            g = _pgcd(tower, tower.rep_sub(w, [tower.rep_one(level)], level + 1), f, level)
        if 0 < len(g) - 1 < len(f) - 1:
            left = _equal_degree_split(tower, g, d, level)
            right = _equal_degree_split(tower, _pdivmod(tower, f, g, level)[0], d, level)
            return left + right
    raise RuntimeError("equal-degree split found no separating witness")


def factor_poly(tower, coeffs):
    """Full monic factorization over a finite tower.

    coeffs: list of CoeffElem (ascending).  Returns (unit, [(poly, mult)])
    with polys as CoeffElem lists, canonically sorted.
    """
    level = tower.height
    f = [c.rep for c in coeffs]
    f = _trim(f)
    if len(f) <= 1:
        raise ValueError("cannot factor a constant")
    unit = CoeffElem(tower, f[-1])
    out = []
    for g, m in _squarefree_parts(tower, f, level):
        for h, d in _distinct_degree(tower, g, level):
            for irr in _equal_degree_split(tower, h, d, level):
                out.append((irr, m))
    out.sort(key=lambda fm: _poly_key(tower, fm[0]))
    wrapped = [([CoeffElem(tower, c) for c in g], m) for g, m in out]
    return unit, wrapped


# -- element wrapper --------------------------------------------------------------


class CoeffElem:
    """Element of a FieldTower in reduced canonical form."""

    __slots__ = ("tower", "rep")

    def __init__(self, tower, rep):
        self.tower = tower
        self.rep = rep

    @classmethod
    def generator(cls, tower, k=None):
        k = tower.height - 1 if k is None else k
        leaves = [int(j == tower._sizes[k]) for j in range(tower._sizes[-1])]
        return cls(tower, tower.from_leaves(leaves))

    def _pair(self, other):
        """The rep of an int or of an element over this tower (or Witt ring);
        values over two never meet (a state moves all of its values up at once)."""
        if isinstance(other, CoeffElem) and (other.tower is self.tower
                                             or other.tower == self.tower):
            return other.rep
        if isinstance(other, int):
            return self.tower.rep_from_int(other)
        raise EngineInvariantViolation(
            f"coefficients over two towers: {self.tower!r} and "
            f"{getattr(other, 'tower', type(other).__name__)!r}")

    def is_zero(self):
        return not self.rep

    def is_unit(self):
        return not self.is_zero()

    def __add__(self, other):
        return type(self)(self.tower, self.tower.rep_add(self.rep, self._pair(other)))

    __radd__ = __add__

    def __sub__(self, other):
        return type(self)(self.tower, self.tower.rep_sub(self.rep, self._pair(other)))

    def __neg__(self):
        return type(self)(self.tower, self.tower.rep_neg(self.rep))

    def __mul__(self, other):
        return type(self)(self.tower, self.tower.rep_mul(self.rep, self._pair(other)))

    __rmul__ = __mul__

    def add_mul(self, b, c):
        """self + b*c as one operation (FieldTower.rep_add_mul)."""
        tower = self.tower
        return type(self)(tower, tower.rep_add_mul(self.rep, self._pair(b), self._pair(c)))

    def inv(self):
        return type(self)(self.tower, self.tower.rep_inv(self.rep))

    def __pow__(self, n):
        return type(self)(self.tower, self.tower.rep_pow(self.rep, n))

    def __eq__(self, other):
        return self.rep == self._pair(other)

    def sort_key(self):
        return self.tower.rep_key(self.rep)

    def __repr__(self):
        return f"CoeffElem({self.to_text()})"

    def to_text(self):
        tower, parts = self.tower, []
        if not tower.height and tower.leaf_mod:  # over F_p the rep is the digit
            return str(self.rep)
        terms = [(exps, base) for exps, base in zip(tower._exps, tower.leaves(self.rep)) if base]
        for exps, base in sorted(terms, key=lambda t: t[0], reverse=True):
            gens = [f"{tower.stages[k][0]}^{e}" for k, e in enumerate(exps) if e > 0]
            parts.append("*".join(([str(base)] if base != 1 or not gens else []) + gens))
        return " + ".join(parts) or "0"


FieldTower.element = CoeffElem  # the class of a tower's elements; a WittRing's is WittElem


# -- roots -------------------------------------------------------------------------


def _rational_roots(coeffs):
    """The distinct rational roots of a poly with Fraction coefficients, degree >= 1.

    With the denominators cleared to integers a_0..a_n, the roots are u / (2 a_n)
    for the integer roots u of g(u) = (2 a_n)^n f(u / (2 a_n)) / a_n.  That g is
    monic with integer coefficients, so its rational roots are integers, and
    even ones: g never vanishes at an odd integer.  Sturm sign counts at odd
    integers isolate the roots by bisection, so the work grows with the bit
    length of the coefficients, not with their size.
    """
    den = math.lcm(*(c.denominator for c in coeffs))
    a = [int(c * den) for c in coeffs]
    n = len(a) - 1
    g = [c * 2 ** (n - i) * a[n] ** (n - 1 - i) for i, c in enumerate(a[:-1])] + [1]
    sturm = [g, [i * c for i, c in enumerate(g)][1:]]
    while True:
        # -(h[-1]^e r mod h) over its content, h's lead made positive: -rem, rescaled
        r, h = list(sturm[-2]), sturm[-1] if sturm[-1][-1] > 0 else [-x for x in sturm[-1]]
        while len(r) >= len(h):
            c, k = r[-1], len(r) - len(h)
            r = _trim([h[-1] * x - (c * h[i - k] if i >= k else 0) for i, x in enumerate(r)])
        if not r:
            break
        content = math.gcd(*r)
        sturm.append([-x // content for x in r])

    def value(poly, u):
        return reduce(lambda acc, c: acc * u + c, reversed(poly), 0)

    @cache
    def sign_changes(u):
        signs = [v > 0 for v in (value(s, u) for s in sturm) if v]
        return sum(x != y for x, y in zip(signs, signs[1:]))

    bound = 1 + max(abs(c) for c in g[:-1])  # Cauchy: every root has |u| < bound
    roots, cells = [], [(-bound, bound)]  # a cell [lo, hi] holds the roots 2*lo .. 2*hi
    while cells:
        lo, hi = cells.pop()
        if sign_changes(2 * lo - 1) == sign_changes(2 * hi + 1):
            continue
        if lo < hi:
            mid = (lo + hi) // 2
            cells += [(lo, mid), (mid + 1, hi)]
        elif not value(g, 2 * lo):
            roots.append(Fraction(lo, a[n]))
    return roots


def _q_const(tower, q):
    return CoeffElem(tower, tower.rep_lift(tower.from_leaves([q], 0), 0, tower.height))


def _rep_to_fraction(tower, rep):
    """The rational value of a rep if it is a base constant, else None."""
    first, *rest = tower.leaves(rep)
    return None if any(rest) else Fraction(first)


def _q_roots_in_tower(tower, f):
    """Candidate roots of f (reps, degree >= 2) over a Q tower, in key order:
    the roots found without extending it, among other elements."""
    fracs = [_rep_to_fraction(tower, c) for c in f]
    roots = [_q_const(tower, r) for r in _rational_roots(fracs)] if None not in fracs else []
    if len(f) == 3 and not f[1] and None not in fracs:
        # X^2 = -c/a, rational roots found above: at a stage X^2 + m0, whose
        # generator g has g^2 = -m0, the roots r*g with r^2 = (c/a)/m0
        for k, (_, (m0, m1, _)) in enumerate(tower.stages):
            q = None if m1 else _rep_to_fraction(tower, tower.rep_lift(m0, k, tower.height))
            if q:
                g = CoeffElem.generator(tower, k)
                roots += [_q_const(tower, r) * g
                          for r in _rational_roots([-fracs[0] / fracs[2] / q, 0, 1])]
    # stage generators g and their conjugates -b - g (stage X^2 + bX + c) are candidates too
    for k in range(tower.height):
        g = CoeffElem.generator(tower, k)
        b = CoeffElem(tower, tower.rep_lift(tower.stages[k][1][1], k, tower.height))
        roots.extend([g, -g, -b - g])
    return sorted(roots, key=lambda c: c.sort_key())


def _split_finite(tower, f):
    """One round over F_q: the roots of the linear factors of f, the product of
    the other factors, and the least of those as the next stage (None if none)."""
    _, factors = factor_poly(tower, [CoeffElem(tower, c) for c in f])
    roots, rest, stage = [], [tower.rep_one()], None
    for fac, m in factors:
        if len(fac) == 2:
            roots.append((-fac[0], m))
            continue
        if stage is None:
            stage = tuple(c.rep for c in fac)
        for _ in range(m):
            rest = _pmul(tower, rest, [c.rep for c in fac], tower.height)
    return roots, rest, stage


def _split_rational(tower, f):
    """One round over a Q tower: the roots it holds, divided out of f, or else
    the next stage if f is X^2 - c or X^2 + X + 1.  A candidate is a root
    when X - r divides what is left of f; once divided out, a repeated
    candidate no longer divides it."""
    roots = []
    for r in _q_roots_in_tower(tower, f):
        m = 0
        while True:
            q, rem = _pdivmod(tower, f, [tower.rep_neg(r.rep), tower.rep_one()], tower.height)
            if rem:
                break
            f, m = q, m + 1
        if m:
            roots.append((r, m))
    if roots:
        return roots, f, None
    a = [_rep_to_fraction(tower, c) for c in f]
    if len(a) == 3 and None not in a:
        a = [q / a[2] for q in a]  # the shapes are read on the monic form
        if a[1] == 0 or a[0] == a[1] == 1:
            return [], f, tuple(_q_const(tower, q).rep for q in a)
    raise IrreducibleOverRationals(
        "polynomial is outside the whitelisted extension shapes")


def solve_in_closure(tower, coeffs):
    """All roots (with multiplicity) after extending the tower as needed.

    Returns (new_tower, [(root, multiplicity)]), roots canonically ordered.
    Each round takes the roots the current tower holds and adjoins one stage
    for the rest: over F_q the least nonlinear irreducible factor, over Q a
    whitelisted shape (IrreducibleOverRationals for any other, unless an
    earlier round found roots: those are returned).  A root found in one round
    divides f over every later stage, so only the cofactor goes on.

    The result is kept on `tower`, keyed by the coefficient reps, since a
    t-adic tail meets one equation at every step; each call gets a fresh list.
    """
    f = _trim([c.rep for c in coeffs])
    if len(f) <= 1:
        raise ValueError("solve_in_closure needs a non-constant polynomial")
    key = tuple(f)
    if key not in tower._solved:
        tower._solved[key] = _solve(tower, f)
    tower2, roots = tower._solved[key]
    return tower2, list(roots)


def _solve(tower, f):
    split = _split_finite if tower.base[0] == 'F' else _split_rational
    found = []
    while len(f) > 1:
        if len(f) == 2:
            root = tower.rep_neg(tower.rep_mul(f[0], tower.rep_inv(f[1])))
            found.append((CoeffElem(tower, root), 1))
            break
        try:
            roots, f, stage = split(tower, f)
        except IrreducibleOverRationals:
            if not found:
                raise
            break
        found.extend(roots)
        if stage is not None:
            tower = tower.adjoin(stage)
            f = [tower.rep_lift(c, tower.height - 1, tower.height) for c in f]
    roots = [(CoeffElem(tower, tower.coerce_rep(r.rep, r.tower)), m) for r, m in found]
    return tower, sorted(roots, key=lambda rm: rm[0].sort_key())


# -- Witt-style finite-precision p-adics -------------------------------------------


class WittElem(CoeffElem):
    """Finite-precision p-adic element over a residue tower: a CoeffElem of its WittRing."""

    __slots__ = ()

    @property
    def ring(self):
        """The Witt ring: the tower of the element's reps."""
        return self.tower

    # bench/tracer.py hooks coeff:WittElem.__mul__ by qualname
    def __mul__(self, other):
        return WittElem(self.tower, self.tower.rep_mul(self.rep, self._pair(other)))

    __rmul__ = __mul__

    def residue(self):
        return self.tower.residue(self)

    def digits(self):
        """Canonical digit list [d0, ..., d_{N-1}] of residue-tower elements."""
        ring = self.tower
        out = [ring.tower.zero()] * ring.precision
        for k, d in ring.carry([(0, self)], ring.precision):
            out[k] = CoeffElem(ring.tower, d.rep)
        return out

    def is_unit(self):
        return not self.residue().is_zero()

    def to_text(self):
        ds = ",".join(d.to_text() for d in self.digits())
        return f"[{ds}] (mod {self.ring.p}^{self.ring.precision})"

    def __repr__(self):
        return f"WittElem({self.to_text()})"


class WittRing(FieldTower):
    """(Z/p^N)-realization of the complete local ring with a given residue tower:
    the tower's stages, read as lifted through the digit-0 section, with
    integer leaves mod p^N."""

    element = WittElem

    def __init__(self, tower, precision):
        if tower.base[0] != 'F':
            raise ValueError("Witt coefficients need a finite residue tower")
        super().__init__(tower.base, tower.stages)
        self._residue_tower, self.p, self.precision = tower, tower.base[1], int(precision)
        self.modulus = self.leaf_mod = self.p ** self.precision

    @property
    def tower(self):
        """The residue tower."""
        return self._residue_tower

    def rep_inv(self, x):
        """The inverse of a unit: modular at height 0, else Newton's iteration
        from the lifted residue inverse, which doubles the correct digits each round."""
        tower, residue = self.tower, self.residue(WittElem(self, x)).rep
        if not residue:
            raise NonUnit("Witt element with zero residue digit")
        if not self.height:
            return pow(x, -1, self.modulus)
        y, two = tower.rep_inv(residue), self.rep_from_int(2)
        for _ in range(max(1, self.precision).bit_length() + 1):
            y = self.rep_mul(y, self.rep_sub(two, self.rep_mul(x, y)))
        return y

    def lift(self, c):
        """Digit-0 section of the residue map (exact) of a residue over this tower."""
        if c.tower is not self.tower and c.tower != self.tower:
            raise EngineInvariantViolation(
                f"a residue over {c.tower!r} lifted into {self!r}")
        return WittElem(self, c.rep)

    def residue(self, w):
        if not self.height:
            return CoeffElem(self.tower, w.rep % self.p)
        return CoeffElem(self.tower, self.from_leaves([x % self.p for x in self.leaves(w.rep)]))

    def multi_digit(self, elems):
        """Whether each element has a leaf >= p, so is no digit-0 lift."""
        p = self.p
        if not self.height:
            return [c.rep >= p for c in elems]
        return [max(self.leaves(c.rep)) >= p for c in elems]

    def carry(self, terms, count):
        """The non-zero base-p digits at offsets k < count of the sum of c * p^k
        over the (k, c) in terms, as (k, digit) pairs; above height 0 the sum is
        a vector of integer leaves."""
        p, out = self.p, []
        if not self.height:
            acc = sum(c.rep * p ** k for k, c in terms)
            for k in range(count):
                if not acc:
                    break
                acc, d = divmod(acc, p)
                if d:
                    out.append((k, WittElem(self, d)))
            return out
        acc = [0] * self._sizes[-1]
        for k, c in terms:
            f = p ** k
            acc = [a + x * f for a, x in zip(acc, self.leaves(c.rep))]
        for k in range(count):
            if not any(acc):
                break
            digit = []
            for i, a in enumerate(acc):
                acc[i], d = divmod(a, p)
                digit.append(d)
            if any(digit):
                out.append((k, WittElem(self, self.from_leaves(digit))))
        return out

    def over(self, tower):
        """The ring of the same precision over a taller residue tower."""
        return WittRing(tower, self.precision)

    def adjoin(self, minpoly_full, name=None):
        """The ring of the same precision over the residue tower with one more stage."""
        return self.over(self.tower.adjoin(minpoly_full, name))

    def __repr__(self):
        return f"<Witt ring over {self.tower!r} mod {self.p}^{self.precision}>"
