"""Ordered value groups with exact arithmetic.

A group descriptor fixes r generator weights living in the real quadratic
field Q(sqrt(d)); elements are rational coordinate vectors over those
weights, stored as integer numerators over one common denominator.  All
order decisions are made exactly in Q(sqrt(d)), never through floats.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cmp_to_key
from operator import add, itemgetter, mul, neg, sub

from .errors import ParseError


def _quad_sign(a, b, d):
    """Exact sign of a + b*sqrt(d) for rationals a, b and a positive integer d."""
    if b == 0:
        return (a > 0) - (a < 0)
    if a == 0:
        return (b > 0) - (b < 0)
    if a > 0 and b > 0:
        return 1
    if a < 0 and b < 0:
        return -1
    # mixed signs: compare a^2 against b^2*d exactly; the larger square wins
    lhs, rhs = a * a, b * b * d
    if lhs == rhs:
        return 0
    if lhs > rhs:
        return 1 if a > 0 else -1
    return 1 if b > 0 else -1


def _exact(x):
    """x as an exact rational: an int or a Fraction as given, else Fraction(x).
    A float is refused, since its binary value would enter every decision."""
    if isinstance(x, (int, Fraction)):
        return x
    if isinstance(x, float):
        raise TypeError(f"value groups take exact rationals, not the float {x!r}")
    return Fraction(x)


class GroupDescriptor:
    """r independent positive weights in Q(sqrt(d))."""

    def __init__(self, weights, sqrt_disc=1):
        d = self.sqrt_disc = int(sqrt_disc)
        if d < 1:
            raise ValueError("sqrt_disc must be a positive integer")
        # a weight is a rational or an (a, b) pair for a + b*sqrt(d); d = 1 folds a + b
        ws = [(_exact(w[0]), _exact(w[1])) if isinstance(w, tuple) else (_exact(w), 0)
              for w in weights]
        if d == 1:
            ws = [(a + b, 0) for a, b in ws]
        # The weights, stored once over one positive common denominator _wden:
        # w_j is (_wa[j] + _wb[j]*sqrt(d)) / _wden with integers.
        self._wden = math.lcm(*(x.denominator for w in ws for x in w))
        self._wa = tuple(int(a * self._wden) for a, _ in ws)
        self._wb = tuple(int(b * self._wden) for _, b in ws)
        self.rank = len(ws)
        if self.rank < 1:
            raise ValueError("descriptor needs at least one weight")
        if any(_quad_sign(a, b, d) <= 0 for a, b in zip(self._wa, self._wb)):
            raise ValueError("weights must be positive")
        if not self._independent():
            raise ValueError("weights are Z-linearly dependent")

    def _independent(self):
        # Sum n_j (a_j + b_j sqrt d) = 0 forces the rational and sqrt parts to
        # vanish separately (d non-square), so dependence is a rational kernel
        # of the 2 x r matrix [[a_j], [b_j]].  That kernel is trivial only for
        # r <= 2: always for r = 1 (a weight is positive), and for r = 2
        # exactly when the determinant is non-zero.  A square d (d = 1 too)
        # makes every weight rational, and then only r = 1 is independent.
        if self.rank == 1:
            return True
        if self.rank > 2 or _is_square(self.sqrt_disc):
            return False
        (a1, a2), (b1, b2) = self._wa, self._wb
        return a1 * b2 != a2 * b1

    def _weight_text(self, j):
        return weight_text(Fraction(self._wa[j], self._wden), Fraction(self._wb[j], self._wden),
                           self.sqrt_disc)

    # -- element construction ------------------------------------------------

    def element(self, coords):
        if len(coords) != self.rank:
            raise ValueError(f"expected {self.rank} coordinates")
        fs = [_exact(c) for c in coords]
        # the lcm of lowest-terms denominators leaves gcd(den, *num) == 1
        den = math.lcm(*(f.denominator for f in fs))
        return GroupElement(self, tuple(f.numerator * (den // f.denominator) for f in fs),
                            den)

    def zero(self):
        return GroupElement(self, (0,) * self.rank, 1)

    def basis(self, j):
        num = [0] * self.rank
        num[j] = 1
        return GroupElement(self, tuple(num), 1)

    def from_rational(self, q):
        """The element of value q: q / (first weight) times the first basis
        element, so a rational exponent, as written in a spec, series text or
        a trial draw, is the value itself.  It needs a rational first weight:
        with an irrational one it is a ParseError."""
        q = _exact(q)
        if self._wb[0]:
            raise ParseError(f"the rational exponent {q} needs a rational first weight, "
                             f"not {self._weight_text(0)}; give full coordinates")
        return self.element([Fraction(q * self._wden, self._wa[0])] + [0] * (self.rank - 1))

    # -- order ----------------------------------------------------------------

    def compare(self, a, b):
        """Three-way order of two finite elements; groups.cmp orders INF."""
        da, db = a.den, b.den
        if self.rank == 1:
            # one positive weight: the order is that of num[0] / den
            x, y = a.num[0], b.num[0]
            if da != db:
                x, y = x * db, y * da
            return (x > y) - (x < y)
        # sign of the value of (a - b) * da * db * _wden from the value pairs
        xa, xb = a._pair or a.value_pair()
        ya, yb = b._pair or b.value_pair()
        return _quad_sign(xa * db - ya * da, xb * db - yb * da, self.sqrt_disc)

    def sort_terms(self, terms):
        """Sort a list of (element, value) pairs in place, in exact element order.

        At rank 1 the one weight is positive, so the order is that of
        num[0] / den: the key is the integer num[0] * (L // den) over the lcm L
        of the list's denominators.  At rank 2 the elements are compared.
        """
        if self.rank == 1:
            lcm = math.lcm(*{g.den for g, _ in terms})
            terms.sort(key=lambda t: t[0].num[0] * (lcm // t[0].den))
        else:
            key = cmp_to_key(self.compare)
            terms.sort(key=lambda t: key(t[0]))

    def product_keys(self, a, b, bound):
        """Keys that add and order as the exponents of the term lists a and b
        and the bound (INF allowed) do, and the lcm L they are over.

        At rank 1 the key is sort_terms' integer num[0] * (L // den), L the
        lcm of all the denominators; at rank 2 it is the element, L None.
        """
        if self.rank != 1:
            return [g for g, _ in a], [g for g, _ in b], bound, None
        (ka, kb, kc), lcm = self.integer_keys((a, b, () if bound is INF else ((bound, 0),)))
        return ka, kb, (kc[0] if kc else INF), lcm

    def integer_keys(self, lists, j=0):
        """Coordinate j of the exponents in each list of (element, value) pairs
        as the integers num[j] * (L // den), L the lcm of all the denominators;
        and L.  At rank 1 they add and order as the elements do."""
        lcm = math.lcm(*{g.den for terms in lists for g, _ in terms})
        return [[g.num[j] * (lcm // g.den) for g, _ in terms] for terms in lists], lcm

    def from_keys(self, items, lcm):
        """(element, value) pairs in element order from product_keys' (key,
        value) pairs, sorted here; an integer key k becomes k / lcm in
        lowest terms, with one gcd."""
        if lcm is None:
            self.sort_terms(items)
            return tuple(items)
        items.sort(key=itemgetter(0))
        return tuple((GroupElement(self, (k // (d := math.gcd(k, lcm)),), lcm // d), c)
                     for k, c in items)

    def integer_classes(self, terms):
        """The exponents of (element, value) pairs by class modulo the first
        basis element: [(class, [(i, n), ...]), ...] in order of appearance,
        terms[i]'s exponent class.shifts([n])[0], n an integer and the class
        in [0, 1) there.  num[0] - n*den keeps the class in lowest terms."""
        classes = {}
        for i, (g, _) in enumerate(terms):
            num, den = g.num, g.den
            n = num[0] // den
            classes.setdefault((num[0] - n * den, num[1:], den), []).append((i, n))
        return [(GroupElement(self, (head,) + rest, den), members)
                for (head, rest, den), members in classes.items()]

    def __eq__(self, other):
        if self is other:
            return True
        return (isinstance(other, GroupDescriptor)
                and (self._wa, self._wb, self._wden) == (other._wa, other._wb, other._wden)
                and self.sqrt_disc == other.sqrt_disc)

    def __repr__(self):
        texts = ", ".join(map(self._weight_text, range(self.rank)))
        return f"GroupDescriptor(weights=[{texts}], d={self.sqrt_disc})"


def weight_text(a, b, d):
    """The weight a + b*sqrt(d) as a spec writes it; d = 1 folds it to a + b."""
    if d == 1:
        a, b = a + b, 0
    return f"{a}+{b}*sqrt({d})" if b else f"{a}"


def _is_square(n):
    r = math.isqrt(n)
    return r * r == n


def _ratio_text(n, den):
    """str(Fraction(n, den)) for den > 0, with one gcd."""
    g = math.gcd(n, den)
    return f"{n // g}" if g == den else f"{n // g}/{den // g}"


def _lowest(descriptor, num, den):
    """The element with coordinates num[j] / den (den > 0), in lowest terms."""
    if len(num) == 1:
        return _lowest1(descriptor, num[0], den)
    if den != 1:
        g = math.gcd(den, *num)
        if g != 1:
            num = tuple(n // g for n in num)
            den //= g
    return GroupElement(descriptor, num, den)


def _lowest1(descriptor, n, den):
    """The rank-1 element n / den (den > 0) in lowest terms, with one
    two-argument gcd."""
    g = math.gcd(n, den)
    return GroupElement(descriptor, (n // g,), den // g)


def _check_divisor(n):
    """Refuse a divisor of a value other than a positive int."""
    if not isinstance(n, int):
        raise TypeError(f"values divide by a positive int, not {n!r}")
    if n <= 0:
        raise ArithmeticError(f"cannot divide a value by {n}")


class GroupElement:
    """Rational coordinates num[j] / den over a descriptor's weights, in lowest
    terms (den > 0, gcd(den, *num) == 1), so one value has one stored form.
    Build elements with GroupDescriptor.element."""

    __slots__ = ("descriptor", "num", "den", "_pair")

    def __init__(self, descriptor, num, den):
        self.descriptor = descriptor
        self.num = num
        self.den = den
        self._pair = None

    def value_pair(self):
        """The integers (A, B) of the value (A + B*sqrt(d)) / (den * D), D the
        weights' common denominator: sum(num[j] * a_j) and sum(num[j] * b_j)
        over the weights (a_j + b_j*sqrt(d)) / D, formed once."""
        pair = self._pair
        if pair is None:
            desc = self.descriptor
            pair = self._pair = (sum(map(mul, self.num, desc._wa)),
                                 sum(map(mul, self.num, desc._wb)))
        return pair

    @property
    def coords(self):
        return tuple(Fraction(n, self.den) for n in self.num)

    def is_zero(self):
        return not any(self.num)

    def _rational_pair(self):
        """The value as integers (n, den), den > 0, not in lowest terms: None
        off the first basis element, or on it with an irrational first weight
        (zero excepted)."""
        desc = self.descriptor
        if any(self.num[1:]) or self.num[0] and desc._wb[0]:
            return None
        return self.num[0] * desc._wa[0], self.den * desc._wden

    def rational_value(self):
        """The value as a Fraction, or None where _rational_pair is None."""
        pair = self._rational_pair()
        return None if pair is None else Fraction(*pair)

    # -- arithmetic ------------------------------------------------------------

    def _combine(self, other, op):
        if self.descriptor is not other.descriptor and self.descriptor != other.descriptor:
            raise ValueError("group elements over different descriptors")
        da, db = self.den, other.den
        if len(self.num) == 1:
            # rank 1: one sum over da * db (da when equal) and one gcd
            x, y = self.num[0], other.num[0]
            if da == db:
                return _lowest1(self.descriptor, op(x, y), da)
            return _lowest1(self.descriptor, op(x * db, y * da), da * db)
        if da == db:
            return _lowest(self.descriptor, tuple(map(op, self.num, other.num)), da)
        den = math.lcm(da, db)
        fa, fb = den // da, den // db
        return _lowest(self.descriptor,
                       tuple(op(x * fa, y * fb) for x, y in zip(self.num, other.num)), den)

    def __add__(self, other):
        if other is INF:
            return INF
        return self._combine(other, add)

    def __sub__(self, other):
        if other is INF:
            raise ArithmeticError("x - inf is undefined")
        return self._combine(other, sub)

    def __neg__(self):
        return GroupElement(self.descriptor, tuple(map(neg, self.num)), self.den)

    def scale_unchecked(self, q):
        if not isinstance(q, (int, Fraction)):
            q = _exact(q)
        if len(self.num) == 1:
            return _lowest1(self.descriptor, self.num[0] * q.numerator, self.den * q.denominator)
        return _lowest(self.descriptor, tuple(n * q.numerator for n in self.num),
                       self.den * q.denominator)

    def __truediv__(self, n):
        """self / n for a positive int n, in lowest terms; any other n raises."""
        _check_divisor(n)
        return _lowest(self.descriptor, self.num, self.den * n)

    def shifts(self, ns):
        """[self + n*(first basis element) for n in ns], integers n, each in
        lowest terms as self is."""
        head, rest, den = self.num[0], self.num[1:], self.den
        return [GroupElement(self.descriptor, (head + n * den,) + rest, den) for n in ns]

    # -- order -----------------------------------------------------------------

    def __lt__(self, other):
        return cmp(self, other) < 0

    def __le__(self, other):
        return cmp(self, other) <= 0

    def __gt__(self, other):
        return cmp(self, other) > 0

    def __ge__(self, other):
        return cmp(self, other) >= 0

    def __eq__(self, other):
        # GroupDescriptor rejects Q-linearly dependent weights, so the value
        # sum(c_j * w_j) determines the coordinates, and the lowest-terms form
        # determines (num, den): two elements over one descriptor are equal
        # exactly when their (num, den) are, which also keeps equality
        # consistent with __hash__.
        return (isinstance(other, GroupElement) and self.num == other.num
                and self.den == other.den
                and (self.descriptor is other.descriptor
                     or self.descriptor == other.descriptor))

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return f"<{self.to_text()}>"

    # -- text form ---------------------------------------------------------------

    def to_text(self):
        """q1*g1 + q2*g2 + ...; series text reads it back as ``t^(...)``."""
        den = self.den
        return " + ".join(f"{_ratio_text(n, den)}*g{j + 1}" for j, n in enumerate(self.num))

    def __str__(self):
        """The short form of reports: the rational value bare, else to_text."""
        pair = self._rational_pair()
        return self.to_text() if pair is None else _ratio_text(*pair)


class _Infinity:
    """The top value: v(0), exact roots and unbounded precision.  It defines
    no comparison (groups.cmp orders it); it absorbs what is added to it or
    taken from it, a scale by q > 0 and a division by an int n > 0, while
    inf - inf, x - inf, -inf, a scale by q <= 0 and a division by anything
    else raise."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __add__(self, other):
        return INF

    __radd__ = __add__

    def __sub__(self, other):
        if other is INF:
            raise ArithmeticError("inf - inf is undefined")
        return INF

    def __neg__(self):
        raise ArithmeticError("cannot negate infinity")

    def scale_unchecked(self, q):
        if _exact(q) > 0:
            return INF
        raise ArithmeticError(f"cannot scale infinity by {q}")

    def __truediv__(self, n):
        _check_divisor(n)
        return INF

    def __repr__(self):
        return "inf"


INF = _Infinity()


def cmp(a, b):
    """Exact three-way comparison; returns -1, 0 or 1.  The one place INF is
    ordered: it is above every element and equal to itself."""
    if a is INF:
        return 0 if b is INF else 1
    if b is INF:
        return -1
    return a.descriptor.compare(a, b)


def gmin(best, *elems):
    """The least of the values (INF allowed), the first of equal ones."""
    for e in elems:
        if cmp(e, best) < 0:
            best = e
    return best
