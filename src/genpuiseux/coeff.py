"""Coefficient domains: residue-field towers and finite-precision p-adics.

A FieldTower is a prime field F_p or Q extended by a finite chain of simple
algebraic extensions, each given by a monic minimal polynomial over the
previous stage.  Elements are nested coefficient tuples with base-field
leaves, kept in reduced canonical form (degree in each generator below the
degree of its minimal polynomial, trailing zeros trimmed).

WittRing realizes the complete local ring with residue field a finite tower
at working precision N: the same nested representation with integer leaves
mod p^N, the stage minimal polynomials lifted coefficientwise through the
digit-0 section.  residue/lift are exact sections of each other.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import (
    DivisionByZero,
    IrreducibleOverRationals,
    NonUnit,
)


class FieldTower:
    """Immutable tower of simple extensions over F_p or Q."""

    def __init__(self, base, stages=(), allow_extensions=True):
        # base: ('F', p) or ('Q',)
        self.base = base
        self.stages = tuple(stages)  # (name, minpoly full tuple incl leading 1)
        self.allow_extensions = allow_extensions

    @classmethod
    def prime_field(cls, p):
        return cls(('F', int(p)))

    @classmethod
    def rationals(cls, allow_extensions=True):
        return cls(('Q',), allow_extensions=allow_extensions)

    @property
    def char(self):
        return self.base[1] if self.base[0] == 'F' else 0

    @property
    def height(self):
        return len(self.stages)

    def stage_degree(self, k):
        return len(self.stages[k][1]) - 1

    def cardinality(self):
        if self.base[0] != 'F':
            return None
        e = 1
        for k in range(self.height):
            e *= self.stage_degree(k)
        return self.base[1] ** e

    def extends(self, other):
        """True if other's stages are a prefix of ours (same base)."""
        return (self.base == other.base
                and self.stages[:other.height] == other.stages)

    def __eq__(self, other):
        return (isinstance(other, FieldTower) and self.base == other.base
                and self.stages == other.stages)

    def __hash__(self):
        return hash((self.base, self.stages))

    def __repr__(self):
        name = f"F{self.base[1]}" if self.base[0] == 'F' else "Q"
        for nm, mp in self.stages:
            name += f"[{nm}]"
        return f"<tower {name}>"

    def describe(self):
        base = f"F{self.base[1]}" if self.base[0] == 'F' else "Q"
        parts = [base]
        for k, (nm, mp) in enumerate(self.stages):
            sub = FieldTower(self.base, self.stages[:k], self.allow_extensions)
            parts.append(f"{nm}: " + _poly_text(sub, list(mp), "X"))
        return "; ".join(parts)

    # -- representations -------------------------------------------------------

    def rep_zero(self, level=None):
        level = self.height if level is None else level
        if level == 0:
            return 0 if self.base[0] == 'F' else Fraction(0)
        return ()

    def rep_one(self, level=None):
        level = self.height if level is None else level
        if level == 0:
            return 1 if self.base[0] == 'F' else Fraction(1)
        lower = self.rep_one(level - 1)
        return (lower,)

    def rep_from_int(self, n, level=None):
        level = self.height if level is None else level
        if level == 0:
            if self.base[0] == 'F':
                return n % self.base[1]
            return Fraction(n)
        lower = self.rep_from_int(n, level - 1)
        return (lower,) if not self.rep_is_zero(lower, level - 1) else ()

    def rep_is_zero(self, x, level=None):
        level = self.height if level is None else level
        return x == 0 if level == 0 else x == ()

    def _trim(self, coeffs, level):
        while coeffs and self.rep_is_zero(coeffs[-1], level):
            coeffs.pop()
        return tuple(coeffs)

    def rep_add(self, x, y, level=None):
        level = self.height if level is None else level
        if level == 0:
            if self.base[0] == 'F':
                return (x + y) % self.base[1]
            return x + y
        n = max(len(x), len(y))
        z = self.rep_zero(level - 1)
        out = [self.rep_add(x[i] if i < len(x) else z,
                            y[i] if i < len(y) else z, level - 1)
               for i in range(n)]
        return self._trim(out, level - 1)

    def rep_neg(self, x, level=None):
        level = self.height if level is None else level
        if level == 0:
            if self.base[0] == 'F':
                return (-x) % self.base[1]
            return -x
        return tuple(self.rep_neg(c, level - 1) for c in x)

    def rep_sub(self, x, y, level=None):
        level = self.height if level is None else level
        return self.rep_add(x, self.rep_neg(y, level), level)

    def rep_mul(self, x, y, level=None):
        level = self.height if level is None else level
        if level == 0:
            if self.base[0] == 'F':
                return (x * y) % self.base[1]
            return x * y
        if x == () or y == ():
            return ()
        z = self.rep_zero(level - 1)
        out = [z] * (len(x) + len(y) - 1)
        for i, xi in enumerate(x):
            for j, yj in enumerate(y):
                out[i + j] = self.rep_add(out[i + j],
                                          self.rep_mul(xi, yj, level - 1), level - 1)
        return self._reduce(out, level)

    def _reduce(self, coeffs, level):
        """Reduce a coefficient list modulo the stage-level minimal polynomial."""
        mp = list(self.stages[level - 1][1])
        d = len(mp) - 1
        coeffs = list(coeffs)
        while len(coeffs) > d:
            lead = coeffs.pop()
            if self.rep_is_zero(lead, level - 1):
                continue
            for i in range(d):
                t = self.rep_mul(lead, mp[i], level - 1)
                coeffs[len(coeffs) - d + i] = self.rep_sub(
                    coeffs[len(coeffs) - d + i], t, level - 1)
        return self._trim(coeffs, level - 1)

    def rep_scalar(self, x, n, level=None):
        """Multiply by an integer scalar."""
        level = self.height if level is None else level
        return self.rep_mul(x, self.rep_from_int(n, level), level)

    def rep_inv(self, x, level=None):
        level = self.height if level is None else level
        if self.rep_is_zero(x, level):
            raise DivisionByZero("inverse of zero")
        if level == 0:
            if self.base[0] == 'F':
                return pow(x, -1, self.base[1])
            return Fraction(1) / x
        # extended Euclid of x against the stage minimal polynomial
        mp = list(self.stages[level - 1][1])
        r0, r1 = mp, list(x)
        s0, s1 = [], [self.rep_one(level - 1)]
        while _pdeg(self, r1, level - 1) > 0:
            q, r = _pdivmod(self, r0, r1, level - 1)
            r0, r1 = r1, r
            s0, s1 = s1, _psub(self, s0, _pmul(self, q, s1, level - 1), level - 1)
        if not r1:
            raise DivisionByZero("element not invertible (non-trivial gcd)")
        c = self.rep_inv(r1[0], level - 1)
        out = [self.rep_mul(c, s, level - 1) for s in s1]
        return self._reduce(out, level)

    def rep_pow(self, x, n, level=None):
        level = self.height if level is None else level
        out = self.rep_one(level)
        base = x
        while n:
            if n & 1:
                out = self.rep_mul(out, base, level)
            n >>= 1
            if n:
                base = self.rep_mul(base, base, level)
        return out

    def rep_lift(self, x, from_level, to_level):
        for lvl in range(from_level, to_level):
            x = (x,) if not self.rep_is_zero(x, lvl) else ()
        return x

    def coerce_rep(self, x, from_tower):
        """Lift a rep from a prefix tower into this tower."""
        if from_tower == self:
            return x
        if not self.extends(from_tower):
            raise ValueError("incompatible towers")
        return self.rep_lift(x, from_tower.height, self.height)

    # -- canonical order and enumeration ---------------------------------------

    def rep_key(self, x, level=None):
        level = self.height if level is None else level
        if level == 0:
            if self.base[0] == 'F':
                return (x,)
            return (x < 0, abs(x.numerator), x.denominator)
        d = self.stage_degree(level - 1)
        z = self.rep_zero(level - 1)
        return tuple(self.rep_key(x[i] if i < len(x) else z, level - 1)
                     for i in range(d))

    def enumerate_elements(self):
        """All elements of a finite tower, sorted by the canonical key."""
        if self.base[0] != 'F':
            raise ValueError("cannot enumerate an infinite tower")

        def enum(level):
            if level == 0:
                return list(range(self.base[1]))
            lower = enum(level - 1)
            d = self.stage_degree(level - 1)
            outs = [()]
            for _ in range(d):
                outs = [t + (c,) for t in outs for c in lower]
            return [self._trim(list(t), level - 1) for t in outs]

        seen = sorted(set(enum(self.height)), key=lambda r: self.rep_key(r))
        return seen

    # -- extension ---------------------------------------------------------------

    def next_gen_name(self):
        return "w" if not self.stages else f"w{self.height + 1}"

    def adjoin(self, minpoly_full, name=None):
        """New tower with a stage for the given monic minimal polynomial."""
        name = name or self.next_gen_name()
        return FieldTower(self.base, self.stages + ((name, tuple(minpoly_full)),),
                          self.allow_extensions)


# -- polynomial helpers over a tower (coefficient lists of reps, ascending) ------

def _pdeg(tower, f, level):
    return len(f) - 1


def _ptrim(tower, f, level):
    f = list(f)
    while f and tower.rep_is_zero(f[-1], level):
        f.pop()
    return f


def _padd(tower, f, g, level):
    n = max(len(f), len(g))
    z = tower.rep_zero(level)
    out = [tower.rep_add(f[i] if i < len(f) else z,
                         g[i] if i < len(g) else z, level) for i in range(n)]
    return _ptrim(tower, out, level)


def _psub(tower, f, g, level):
    return _padd(tower, f, [tower.rep_neg(c, level) for c in g], level)


def _pmul(tower, f, g, level):
    if not f or not g:
        return []
    z = tower.rep_zero(level)
    out = [z] * (len(f) + len(g) - 1)
    for i, fi in enumerate(f):
        for j, gj in enumerate(g):
            out[i + j] = tower.rep_add(out[i + j], tower.rep_mul(fi, gj, level), level)
    return _ptrim(tower, out, level)


def _pdivmod(tower, f, g, level):
    g = _ptrim(tower, g, level)
    if not g:
        raise DivisionByZero("polynomial division by zero")
    inv_lead = tower.rep_inv(g[-1], level)
    q = [tower.rep_zero(level)] * max(0, len(f) - len(g) + 1)
    r = list(f)
    while len(r) >= len(g) and _ptrim(tower, r, level):
        r = _ptrim(tower, r, level)
        if len(r) < len(g):
            break
        c = tower.rep_mul(r[-1], inv_lead, level)
        k = len(r) - len(g)
        q[k] = tower.rep_add(q[k], c, level)
        for i, gi in enumerate(g):
            r[k + i] = tower.rep_sub(r[k + i], tower.rep_mul(c, gi, level), level)
        r.pop()
    return _ptrim(tower, q, level), _ptrim(tower, r, level)


def _pmonic(tower, f, level):
    f = _ptrim(tower, f, level)
    if not f:
        return f
    inv = tower.rep_inv(f[-1], level)
    return [tower.rep_mul(c, inv, level) for c in f]


def _pgcd(tower, f, g, level):
    f, g = _ptrim(tower, f, level), _ptrim(tower, g, level)
    while g:
        f, g = g, _pdivmod(tower, f, g, level)[1]
    return _pmonic(tower, f, level)


def _ppowmod(tower, f, n, mod, level):
    out = [tower.rep_one(level)]
    base = _pdivmod(tower, f, mod, level)[1]
    while n:
        if n & 1:
            out = _pdivmod(tower, _pmul(tower, out, base, level), mod, level)[1]
        base = _pdivmod(tower, _pmul(tower, base, base, level), mod, level)[1]
        n >>= 1
    return out


def _pderiv(tower, f, level):
    out = [tower.rep_scalar(c, i, level) for i, c in enumerate(f)][1:]
    return _ptrim(tower, out, level)


def _peval(tower, f, x, level):
    acc = tower.rep_zero(level)
    for c in reversed(f):
        acc = tower.rep_add(tower.rep_mul(acc, x, level), c, level)
    return acc


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
        g = _pgcd(tower, _psub(tower, h, x, level), f, level)
        if len(g) > 1:
            out.append((g, d))
            f = _pdivmod(tower, f, g, level)[0]
            h = _pdivmod(tower, h, f, level)[1]
    if len(f) > 1:
        out.append((f, len(f) - 1))
    return out


def _witness_candidates(tower, degree, level):
    """Deterministic stream of nonconstant polys of degree < degree, by degree then key."""
    elems = tower.enumerate_elements()
    nonzero = [e for e in elems if not tower.rep_is_zero(e, level)]
    for d in range(1, degree):
        heads = [[]]
        for _ in range(d):
            heads = [pl + [c] for pl in heads for c in elems]
        for head in heads:
            for lead in nonzero:
                yield head + [lead]


def _equal_degree_split(tower, f, d, level):
    """Factor squarefree f = product of irreducibles of equal degree d."""
    if len(f) - 1 == d:
        return [f]
    q = tower.cardinality()
    p = tower.base[1]
    for h in _witness_candidates(tower, len(f) - 1, level):
        if p == 2:
            # trace map sum h^(2^i) over the degree-d extension
            e = 0
            qq = q
            while qq > 1:
                qq //= 2
                e += 1
            t = list(h)
            acc = list(h)
            for _ in range(e * d - 1):
                t = _ppowmod(tower, t, 2, f, level)
                acc = _padd(tower, acc, t, level)
            g = _pgcd(tower, acc, f, level)
        else:
            w = _ppowmod(tower, h, (q ** d - 1) // 2, f, level)
            g = _pgcd(tower, _psub(tower, w, [tower.rep_one(level)], level), f, level)
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
    f = _ptrim(tower, f, level)
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
    def from_int(cls, tower, n):
        return cls(tower, tower.rep_from_int(n))

    @classmethod
    def zero(cls, tower):
        return cls(tower, tower.rep_zero())

    @classmethod
    def one(cls, tower):
        return cls(tower, tower.rep_one())

    @classmethod
    def generator(cls, tower, k=None):
        k = tower.height - 1 if k is None else k
        rep = (tower.rep_zero(k), tower.rep_one(k))
        return cls(tower, tower.rep_lift(rep, k + 1, tower.height))

    def _pair(self, other):
        if isinstance(other, int):
            other = CoeffElem.from_int(self.tower, other)
        if self.tower == other.tower:
            return self, other
        if self.tower.extends(other.tower):
            return self, CoeffElem(self.tower, self.tower.coerce_rep(other.rep, other.tower))
        if other.tower.extends(self.tower):
            return CoeffElem(other.tower, other.tower.coerce_rep(self.rep, self.tower)), other
        raise ValueError("incompatible towers")

    def is_zero(self):
        return self.tower.rep_is_zero(self.rep)

    def __add__(self, other):
        a, b = self._pair(other)
        return CoeffElem(a.tower, a.tower.rep_add(a.rep, b.rep))

    __radd__ = __add__

    def __sub__(self, other):
        a, b = self._pair(other)
        return CoeffElem(a.tower, a.tower.rep_sub(a.rep, b.rep))

    def __neg__(self):
        return CoeffElem(self.tower, self.tower.rep_neg(self.rep))

    def __mul__(self, other):
        a, b = self._pair(other)
        return CoeffElem(a.tower, a.tower.rep_mul(a.rep, b.rep))

    __rmul__ = __mul__

    def inv(self):
        return CoeffElem(self.tower, self.tower.rep_inv(self.rep))

    def __truediv__(self, other):
        a, b = self._pair(other)
        return a * b.inv()

    def __pow__(self, n):
        return CoeffElem(self.tower, self.tower.rep_pow(self.rep, n))

    def __eq__(self, other):
        if isinstance(other, int):
            other = CoeffElem.from_int(self.tower, other)
        if not isinstance(other, CoeffElem):
            return NotImplemented
        try:
            a, b = self._pair(other)
        except ValueError:
            return False
        return a.rep == b.rep

    def __hash__(self):
        return hash((self.tower, self.rep))

    def sort_key(self):
        return self.tower.rep_key(self.rep)

    def __repr__(self):
        return f"CoeffElem({self.to_text()})"

    def to_text(self):
        return _rep_text(self.tower, self.rep, self.tower.height)


def _rep_text(tower, rep, level):
    terms = _rep_monomials(tower, rep, level, ())
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


def _rep_monomials(tower, rep, level, exps):
    if level == 0:
        return [] if rep == 0 else [((exps), rep)]
    out = []
    for i, c in enumerate(rep):
        out.extend(_rep_monomials(tower, c, level - 1, (i,) + exps))
    # exps accumulated innermost-last; reorder to stage order
    fixed = []
    for e, base in out:
        fixed.append((tuple(reversed(e)), base))
    return fixed


# -- roots -------------------------------------------------------------------------


def _rational_roots(coeffs):
    """All rational roots (with multiplicity) of a poly with Fraction coefficients."""
    from math import gcd

    f = [Fraction(c) for c in coeffs]
    while f and f[-1] == 0:
        f.pop()
    if len(f) <= 1:
        return []
    den = 1
    for c in f:
        den = den * c.denominator // gcd(den, c.denominator)
    zf = [c * den for c in f]
    roots = []
    while zf and zf[0] == 0:
        roots.append(Fraction(0))
        zf = zf[1:]
    if len(zf) <= 1:
        return roots

    def divisors(n):
        out = []
        d = 1
        while d * d <= n:
            if n % d == 0:
                out.extend([d, n // d])
            d += 1
        return sorted(set(out))

    def deflate(poly, c):
        # synthetic division by (x - c); caller guarantees c is a root
        out = []
        acc = Fraction(0)
        for co in reversed(poly[1:]):
            acc = co + acc * c
            out.append(acc)
        return list(reversed(out))

    cand = set()
    for r in divisors(abs(int(zf[0]))):
        for s in divisors(abs(int(zf[-1]))):
            cand.add(Fraction(r, s))
            cand.add(Fraction(-r, s))
    for c in sorted(cand, key=lambda q: (q < 0, abs(q.numerator), q.denominator)):
        while len(zf) > 1 and sum(co * c ** i for i, co in enumerate(zf)) == 0:
            roots.append(c)
            zf = deflate(zf, c)
    return roots


def _q_sqrt_in_tower(tower, c):
    """sqrt of rational c inside a Q tower with quadratic stages, or None."""

    def rat_sqrt(q):
        if q < 0:
            return None
        num, den = q.numerator, q.denominator
        rn, rd = math.isqrt(num), math.isqrt(den)
        if rn * rn == num and rd * rd == den:
            return Fraction(rn, rd)
        return None

    s = rat_sqrt(c)
    if s is not None:
        return _q_const(tower, s)
    for k, (_, mp) in enumerate(tower.stages):
        # quadratic stage X^2 - e: generator g with g^2 = e
        if len(mp) == 3 and tower.rep_is_zero(mp[1], k):
            sub = FieldTower(tower.base, tower.stages[:k], tower.allow_extensions)
            e = _rep_to_fraction(sub, mp[0], k)
            if e is None:
                continue
            e = -e
            ratio = rat_sqrt(c / e) if e != 0 else None
            if ratio is not None:
                g = CoeffElem.generator(tower, k)
                return _q_const(tower, ratio) * g
    return None


def _q_const(tower, q):
    rep = Fraction(q)
    return CoeffElem(tower, tower.rep_lift(rep, 0, tower.height))


def _rep_to_fraction(tower, rep, level):
    """The rational value of a rep if it is a base constant, else None."""
    while level > 0:
        if tower.rep_is_zero(rep, level):
            rep = tower.rep_zero(level - 1)
        elif len(rep) == 1:
            rep = rep[0]
        else:
            return None
        level -= 1
    return Fraction(rep)


def coeff_to_fraction(c):
    return _rep_to_fraction(c.tower, c.rep, c.tower.height)


def _q_roots_in_tower(tower, coeffs):
    """Roots of a poly over a Q tower found without extending it."""
    level = tower.height
    f = _ptrim(tower, [c.rep for c in coeffs], level)
    if len(f) == 2:
        root = tower.rep_neg(tower.rep_mul(f[0], tower.rep_inv(f[1], level), level), level)
        return [CoeffElem(tower, root)]
    fracs = [_rep_to_fraction(tower, c, level) for c in f]
    roots = []
    if all(q is not None for q in fracs):
        for r in _rational_roots(fracs):
            roots.append(_q_const(tower, r))
    if len(f) == 3 and tower.rep_is_zero(f[1], level):
        # X^2 = -c/a: look for a square root inside the tower
        cq = _rep_to_fraction(tower, f[0], level)
        aq = _rep_to_fraction(tower, f[2], level)
        if cq is not None and aq is not None:
            s = _q_sqrt_in_tower(tower, -cq / aq)
            if s is not None:
                roots.extend([s, -s] if not s.is_zero() else [s])
    # stage generators and their cheap conjugates are candidate roots too
    for k in range(tower.height):
        g = CoeffElem.generator(tower, k)
        mp = tower.stages[k][1]
        cands = [g, -g]
        if len(mp) == 3:
            # other root of X^2 + b X + c is -b - g
            b = CoeffElem(tower, tower.rep_lift(mp[1], k, tower.height))
            cands.append(-b - g)
        roots.extend(cands)
    uniq = []
    for r in sorted(roots, key=lambda c: c.sort_key()):
        if tower.rep_is_zero(_peval(tower, f, r.rep, level), level) \
                and not any(u == r for u in uniq):
            uniq.append(r)
    return uniq


_CYCLOTOMIC_SHAPES = ((1, 1, 1), (1, 0, 1))  # X^2+X+1, X^2+1


def adjoin_root(tower, coeffs):
    """Root of the polynomial after extending the tower if needed.

    coeffs: list of CoeffElem over `tower`, ascending, non-constant.
    Returns (new_tower, root).  Deterministic: roots already present are
    returned least-first in the canonical element order; otherwise the
    canonically least irreducible factor is adjoined.
    """
    level = tower.height
    f = _ptrim(tower, [c.rep for c in coeffs], level)
    if len(f) <= 1:
        raise ValueError("adjoin_root needs a non-constant polynomial")

    if tower.base[0] == 'F':
        unit, factors = factor_poly(tower, coeffs)
        linear = [fac for fac, _ in factors if len(fac) == 2]
        if linear:
            roots = sorted((-(fac[0] / fac[1]) for fac in linear),
                           key=lambda c: c.sort_key())
            return tower, roots[0]
        fac = factors[0][0]
        mono = [c.rep for c in fac]
        new = tower.adjoin(tuple(mono))
        return new, CoeffElem.generator(new)

    roots = _q_roots_in_tower(tower, coeffs)
    if roots:
        return tower, roots[0]
    if not tower.allow_extensions:
        raise IrreducibleOverRationals(
            "no root in the current Q tower and extensions are disabled")
    # whitelist: X^2 - c and small cyclotomic shapes
    fracs = [_rep_to_fraction(tower, c, level) for c in f]
    if len(f) == 3 and all(q is not None for q in fracs):
        a0, a1, a2 = fracs
        if a2 == 1 and a1 == 0:
            new = tower.adjoin((tower.rep_zero(level) if a0 == 0 else
                                tower.rep_lift(Fraction(a0), 0, level),
                                tower.rep_zero(level),
                                tower.rep_one(level)))
            return new, CoeffElem.generator(new)
        if a2 == 1 and (a0, a1) in ((Fraction(1), Fraction(1)),):
            new = tower.adjoin((tower.rep_lift(Fraction(1), 0, level),
                                tower.rep_lift(Fraction(1), 0, level),
                                tower.rep_one(level)))
            return new, CoeffElem.generator(new)
    raise IrreducibleOverRationals(
        "polynomial is outside the whitelisted extension shapes")


def solve_in_closure(tower, coeffs):
    """All roots (with multiplicity) after extending the tower as needed.

    Returns (new_tower, [(root, multiplicity)]), roots canonically ordered.
    """
    level = tower.height
    f = _ptrim(tower, [c.rep for c in coeffs], level)
    if len(f) <= 1:
        raise ValueError("solve_in_closure needs a non-constant polynomial")

    if tower.base[0] == 'Q':
        # strip known roots, then whitelist-extend for the remainder
        roots = []
        cur = [CoeffElem(tower, c) for c in f]
        cur_t = tower
        changed = True
        while changed and len(cur) > 2:
            changed = False
            for r in _q_roots_in_tower(cur_t, cur):
                while True:
                    q, rem = _pdivmod(cur_t, [c.rep for c in cur],
                                      [cur_t.rep_neg(r.rep), cur_t.rep_one()], cur_t.height)
                    if rem:
                        break
                    roots.append(r)
                    cur = [CoeffElem(cur_t, c) for c in q]
                    changed = True
                    if len(cur) <= 2:
                        break
        if len(cur) == 2:
            roots.append(-(cur[0] / cur[1]))
            cur = cur[:1]
        if len(cur) > 2:
            cur_t, g = adjoin_root(cur_t, cur)
            roots = [CoeffElem(cur_t, cur_t.coerce_rep(r.rep, r.tower)) for r in roots]
            sub_t, more = solve_in_closure(cur_t, [
                CoeffElem(cur_t, cur_t.coerce_rep(c.rep, c.tower)) for c in cur])
            cur_t = sub_t
            roots = [CoeffElem(cur_t, cur_t.coerce_rep(r.rep, r.tower)) for r in roots]
            roots.extend(r for r, m in more for _ in range(m))
        out = []
        for r in sorted(roots, key=lambda c: c.sort_key()):
            if out and out[-1][0] == r:
                out[-1] = (r, out[-1][1] + 1)
            else:
                out.append((r, 1))
        return cur_t, out

    cur_t = tower
    cur = coeffs
    while True:
        unit, factors = factor_poly(cur_t, cur)
        nonlinear = [fac for fac, _ in factors if len(fac) > 2]
        if not nonlinear:
            roots = []
            for fac, m in factors:
                roots.append((-(fac[0] / fac[1]), m))
            roots.sort(key=lambda rm: rm[0].sort_key())
            return cur_t, roots
        mono = [c.rep for c in nonlinear[0]]
        cur_t = cur_t.adjoin(tuple(mono))
        cur = [CoeffElem(cur_t, cur_t.coerce_rep(c.rep, c.tower)) for c in cur]


def _poly_text(tower, reps, var):
    terms = []
    for i in range(len(reps) - 1, -1, -1):
        c = reps[i]
        if tower.rep_is_zero(c, tower.height):
            continue
        ct = _rep_text(tower, c, tower.height)
        if i == 0:
            terms.append(ct)
        else:
            v = var if i == 1 else f"{var}^{i}"
            terms.append(v if ct == "1" else f"{ct}*{v}")
    return " + ".join(terms) if terms else "0"


# -- Witt-style finite-precision p-adics -------------------------------------------


class WittRing:
    """(Z/p^N)-realization of the complete local ring with a given residue tower."""

    def __init__(self, tower, precision):
        if tower.base[0] != 'F':
            raise ValueError("Witt coefficients need a finite residue tower")
        self.tower = tower
        self.p = tower.base[1]
        self.precision = int(precision)
        self.modulus = self.p ** self.precision

    def _map_leaves(self, rep, level, fn):
        if level == 0:
            return fn(rep)
        lst = [self._map_leaves(c, level - 1, fn) for c in rep]
        while lst and _witt_rep_is_zero(lst[-1], level - 1):
            lst.pop()
        return tuple(lst)

    def zero(self):
        return WittElem(self, self.tower.rep_zero())

    def one(self):
        return WittElem(self, self._from_int_rep(1))

    def _from_int_rep(self, n):
        n %= self.modulus
        rep = n
        for _ in range(self.tower.height):
            rep = (rep,) if not (rep == 0 or rep == ()) else ()
        return rep

    def from_int(self, n):
        return WittElem(self, self._from_int_rep(n))

    def lift(self, c):
        """Digit-0 section of the residue map (exact)."""
        if c.tower != self.tower:
            if self.tower.extends(c.tower):
                c = CoeffElem(self.tower, self.tower.coerce_rep(c.rep, c.tower))
            else:
                raise ValueError("residue element over an incompatible tower")
        return WittElem(self, c.rep)

    def residue(self, w):
        rep = self._map_leaves(w.rep, self.tower.height, lambda x: x % self.p)
        return CoeffElem(self.tower, rep)

    def coerce(self, w):
        if w.ring is self or w.ring == self:
            return w
        if self.tower.extends(w.ring.tower) and self.precision == w.ring.precision:
            return WittElem(self, self.tower.coerce_rep(w.rep, w.ring.tower))
        raise ValueError("incompatible Witt rings")

    def __eq__(self, other):
        return (isinstance(other, WittRing) and self.tower == other.tower
                and self.precision == other.precision)

    def __hash__(self):
        return hash((self.tower, self.precision))

    # modular nested arithmetic: same tower shape, integer leaves mod p^N

    def _add(self, x, y, level):
        if level == 0:
            return (x + y) % self.modulus
        n = max(len(x), len(y))
        z = 0 if level - 1 == 0 else ()
        out = [self._add(x[i] if i < len(x) else (0 if level == 1 else ()),
                         y[i] if i < len(y) else (0 if level == 1 else ()), level - 1)
               for i in range(n)]
        while out and _witt_rep_is_zero(out[-1], level - 1):
            out.pop()
        return tuple(out)

    def _neg(self, x, level):
        if level == 0:
            return (-x) % self.modulus
        return tuple(self._neg(c, level - 1) for c in x)

    def _mul(self, x, y, level):
        if level == 0:
            return (x * y) % self.modulus
        if x == () or y == ():
            return ()
        out = [0 if level == 1 else ()] * (len(x) + len(y) - 1)
        for i, xi in enumerate(x):
            for j, yj in enumerate(y):
                out[i + j] = self._add(out[i + j], self._mul(xi, yj, level - 1), level - 1)
        return self._reduce(out, level)

    def _reduce(self, coeffs, level):
        mp = self.tower.stages[level - 1][1]  # digit-0 lifted verbatim
        d = len(mp) - 1
        coeffs = list(coeffs)
        while len(coeffs) > d:
            lead = coeffs.pop()
            if _witt_rep_is_zero(lead, level - 1):
                continue
            for i in range(d):
                t = self._mul(lead, mp[i], level - 1)
                coeffs[len(coeffs) - d + i] = self._add(
                    coeffs[len(coeffs) - d + i], self._neg(t, level - 1), level - 1)
        while coeffs and _witt_rep_is_zero(coeffs[-1], level - 1):
            coeffs.pop()
        return tuple(coeffs)


def _witt_rep_is_zero(rep, level):
    return rep == 0 if level == 0 else rep == ()


class WittElem:
    """Finite-precision p-adic element over a residue tower."""

    __slots__ = ("ring", "rep")

    def __init__(self, ring, rep):
        self.ring = ring
        self.rep = rep

    def _pair(self, other):
        if isinstance(other, int):
            other = self.ring.from_int(other)
        if self.ring == other.ring:
            return self, other
        if self.ring.tower.extends(other.ring.tower):
            return self, self.ring.coerce(other)
        return other.ring.coerce(self), other

    def is_zero(self):
        return _witt_rep_is_zero(self.rep, self.ring.tower.height)

    def __add__(self, other):
        a, b = self._pair(other)
        return WittElem(a.ring, a.ring._add(a.rep, b.rep, a.ring.tower.height))

    __radd__ = __add__

    def __sub__(self, other):
        a, b = self._pair(other)
        return WittElem(a.ring, a.ring._add(a.rep, a.ring._neg(b.rep, a.ring.tower.height),
                                            a.ring.tower.height))

    def __neg__(self):
        return WittElem(self.ring, self.ring._neg(self.rep, self.ring.tower.height))

    def __mul__(self, other):
        a, b = self._pair(other)
        return WittElem(a.ring, a.ring._mul(a.rep, b.rep, a.ring.tower.height))

    __rmul__ = __mul__

    def residue(self):
        return self.ring.residue(self)

    def digits(self):
        """Canonical digit list [d0, ..., d_{N-1}] of residue-tower elements."""
        out = []
        for m in range(self.ring.precision):
            rep = self.ring._map_leaves(self.rep, self.ring.tower.height,
                                        lambda x, m=m: (x // self.ring.p ** m) % self.ring.p)
            out.append(CoeffElem(self.ring.tower, rep))
        return out

    @classmethod
    def from_digits(cls, ring, digits):
        acc = ring.zero()
        for m, d in enumerate(digits):
            acc = acc + ring.lift(d) * ring.from_int(ring.p ** m)
        return acc

    def is_unit(self):
        return not self.residue().is_zero()

    def inv(self):
        if not self.is_unit():
            raise NonUnit("Witt element with zero residue digit")
        x = self.ring.lift(self.residue().inv())
        # Newton iteration doubles correct digits each round
        steps = max(1, self.ring.precision).bit_length()
        two = self.ring.from_int(2)
        for _ in range(steps + 1):
            x = x * (two - self * x)
        return x

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.ring.from_int(other)
        if not isinstance(other, WittElem):
            return NotImplemented
        try:
            a, b = self._pair(other)
        except ValueError:
            return False
        return a.rep == b.rep

    def __hash__(self):
        return hash((self.ring, self.rep))

    def sort_key(self):
        return tuple(d.sort_key() for d in self.digits())

    def to_text(self):
        ds = ",".join(d.to_text() for d in self.digits())
        return f"[{ds}] (mod {self.ring.p}^{self.ring.precision})"

    def __repr__(self):
        return f"WittElem({self.to_text()})"
