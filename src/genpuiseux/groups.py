"""Ordered value groups with exact arithmetic.

A group descriptor fixes r generator weights living in the real quadratic
field Q(sqrt(d)); elements are rational coordinate vectors over those
weights, stored as integer numerators over one common denominator.  All
order decisions are made exactly in Q(sqrt(d)), never through floats.  The
char exponent p tags which p-power denominators are meaningful (the direct
limit of (1/p^i)-scaled copies of the base group).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cmp_to_key
from operator import add, itemgetter, mul, neg, sub

from .errors import ParseError


class QuadValue:
    """Exact element a + b*sqrt(d) of a fixed real quadratic field."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a, b=0, d=1):
        a = Fraction(a)
        b = Fraction(b)
        if d == 1:
            a, b = a + b, Fraction(0)
        self.a = a
        self.b = b
        self.d = int(d)

    def __sub__(self, other):
        return QuadValue(self.a - other.a, self.b - other.b, max(self.d, other.d))

    def sign(self):
        return _quad_sign(self.a, self.b, self.d)

    def is_zero(self):
        return self.a == 0 and self.b == 0

    def is_rational(self):
        return self.b == 0

    def __eq__(self, other):
        return isinstance(other, QuadValue) and (self - other).is_zero()

    def __repr__(self):
        if self.b == 0:
            return f"{self.a}"
        return f"{self.a}+{self.b}*sqrt({self.d})"


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


class GroupDescriptor:
    """r independent positive weights in Q(sqrt(d)) plus the char exponent p."""

    def __init__(self, weights, char_exponent=1, sqrt_disc=1):
        self.sqrt_disc = int(sqrt_disc)
        if self.sqrt_disc < 1:
            raise ValueError("sqrt_disc must be a positive integer")
        ws = []
        for w in weights:
            if isinstance(w, QuadValue):
                ws.append(QuadValue(w.a, w.b, self.sqrt_disc))
            elif isinstance(w, tuple):
                ws.append(QuadValue(w[0], w[1], self.sqrt_disc))
            else:
                ws.append(QuadValue(w, 0, self.sqrt_disc))
        self.weights = tuple(ws)
        self.rank = len(ws)
        self.char_exponent = int(char_exponent)
        if self.rank < 1:
            raise ValueError("descriptor needs at least one weight")
        if self.char_exponent < 1:
            raise ValueError("char exponent must be a positive integer")
        for w in ws:
            if w.sign() <= 0:
                raise ValueError("weights must be positive")
        if not self._independent():
            raise ValueError("weights are Z-linearly dependent")
        # The weights over one positive common denominator _wden: w_j is
        # (_wa[j] + _wb[j]*sqrt(d)) / _wden with integers; compare reads them
        # at rank 2.
        self._wden = math.lcm(*(x.denominator for w in ws for x in (w.a, w.b)))
        self._wa = tuple(int(w.a * self._wden) for w in ws)
        self._wb = tuple(int(w.b * self._wden) for w in ws)

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
        (a1, b1), (a2, b2) = ((w.a, w.b) for w in self.weights)
        return a1 * b2 != a2 * b1

    # -- element construction ------------------------------------------------

    def element(self, coords):
        if len(coords) != self.rank:
            raise ValueError(f"expected {self.rank} coordinates")
        fs = [Fraction(c) for c in coords]
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
        """The element q * (first weight).  A rational exponent, as written in a
        spec, series text or a trial draw, needs a rational first weight: with
        an irrational one it is a ParseError."""
        if not self.weights[0].is_rational():
            raise ParseError(f"the rational exponent {q} needs a rational first weight, "
                             f"not {self.weights[0]!r}; give full coordinates")
        return self.element([Fraction(q) / self.weights[0].a] + [0] * (self.rank - 1))

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
        # sign of the value of (a - b) * da * db * _wden, all in integers
        diff = [x * db - y * da for x, y in zip(a.num, b.num)]
        return _quad_sign(sum(map(mul, diff, self._wa)), sum(map(mul, diff, self._wb)),
                          self.sqrt_disc)

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
        lcm = math.lcm(*{g.den for g, _ in a + b}, 1 if bound is INF else bound.den)
        ka = [g.num[0] * (lcm // g.den) for g, _ in a]
        kb = [g.num[0] * (lcm // g.den) for g, _ in b]
        return ka, kb, (bound if bound is INF else bound.num[0] * (lcm // bound.den)), lcm

    def from_keys(self, items, lcm, ordered=False):
        """(element, value) pairs in element order from product_keys' (key,
        value) pairs, sorted unless ordered; an integer key k becomes k / lcm
        in lowest terms, with one gcd."""
        if lcm is None:
            if not ordered:
                self.sort_terms(items)
            return tuple(items)
        if not ordered:
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
                and self.weights == other.weights
                and self.char_exponent == other.char_exponent
                and self.sqrt_disc == other.sqrt_disc)

    def __repr__(self):
        return (f"GroupDescriptor(weights={list(self.weights)!r}, "
                f"p={self.char_exponent}, d={self.sqrt_disc})")


def _is_square(n):
    r = math.isqrt(n)
    return r * r == n


def _lowest(descriptor, num, den):
    """The element with coordinates num[j] / den (den > 0), in lowest terms."""
    if den != 1:
        g = math.gcd(den, *num)
        if g != 1:
            num = tuple(n // g for n in num)
            den //= g
    return GroupElement(descriptor, num, den)


class GroupElement:
    """Rational coordinates num[j] / den over a descriptor's weights, in lowest
    terms (den > 0, gcd(den, *num) == 1), so one value has one stored form.
    Build elements with GroupDescriptor.element."""

    __slots__ = ("descriptor", "num", "den", "_hash")

    def __init__(self, descriptor, num, den):
        self.descriptor = descriptor
        self.num = num
        self.den = den
        self._hash = None

    @property
    def coords(self):
        return tuple(Fraction(n, self.den) for n in self.num)

    def is_zero(self):
        return not any(self.num)

    def rational_value(self):
        """The value as a rational: None off the first basis element, or on it
        with an irrational first weight (zero excepted)."""
        if any(self.num[1:]):
            return None
        w0 = self.descriptor.weights[0]
        if self.num[0] and not w0.is_rational():
            return None
        return Fraction(self.num[0], self.den) * w0.a

    # -- arithmetic ------------------------------------------------------------

    def _combine(self, other, op):
        if self.descriptor is not other.descriptor and self.descriptor != other.descriptor:
            raise ValueError("group elements over different descriptors")
        da, db = self.den, other.den
        if da == db:
            return _lowest(self.descriptor, tuple(map(op, self.num, other.num)), da)
        den = math.lcm(da, db)
        fa, fb = den // da, den // db
        return _lowest(self.descriptor,
                       tuple(op(x * fa, y * fb) for x, y in zip(self.num, other.num)), den)

    def __add__(self, other):
        if other is INF:
            return INF
        if self.den == 1 == other.den and self.descriptor is other.descriptor:
            return GroupElement(self.descriptor, tuple(map(add, self.num, other.num)), 1)
        return self._combine(other, add)

    def __sub__(self, other):
        return self._combine(other, sub)

    def __neg__(self):
        return GroupElement(self.descriptor, tuple(map(neg, self.num)), self.den)

    def scale_unchecked(self, q):
        if not isinstance(q, int):
            q = Fraction(q)
        return _lowest(self.descriptor, tuple(n * q.numerator for n in self.num),
                       self.den * q.denominator)

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
        h = self._hash
        if h is None:
            h = self._hash = hash((self.num, self.den))
        return h

    def __repr__(self):
        return f"<{self.to_text()}>"

    # -- text form ---------------------------------------------------------------

    def to_text(self):
        return " + ".join(f"{c}*g{j + 1}" for j, c in enumerate(self.coords))

    @classmethod
    def parse(cls, descriptor, text):
        coords = [Fraction(0)] * descriptor.rank
        for part in text.split("+"):
            part = part.strip()
            if not part:
                raise ParseError("empty group term")
            if "*" not in part:
                raise ParseError(f"bad group term {part!r}")
            q, g = part.split("*", 1)
            g = g.strip()
            if not g.startswith("g"):
                raise ParseError(f"bad generator name {g!r}")
            try:
                j = int(g[1:]) - 1
                q = Fraction(q.strip())
            except (ValueError, ZeroDivisionError) as exc:
                raise ParseError(f"bad group term {part!r}") from exc
            if not 0 <= j < descriptor.rank:
                raise ParseError(f"bad generator name {g!r}")
            coords[j] += q
        return descriptor.element(coords)


class _Infinity:
    """Order-topped sentinel used for exact roots and unbounded precision.
    It defines no comparison: groups.cmp orders it."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __add__(self, other):
        return INF

    __radd__ = __add__

    def __neg__(self):
        raise ArithmeticError("cannot negate infinity")

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


def gmin(*elems):
    best = None
    for e in elems:
        if e is None:
            continue
        if best is None or cmp(e, best) < 0:
            best = e
    return best
