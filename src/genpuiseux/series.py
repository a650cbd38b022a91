"""Truncated generalized power series over (value group, coefficient domain).

A GenSeries is a finite sorted term list plus a precision bound: the series
is known exactly on exponents below the bound (open) or up to and including
it (closed).  T-mode series take residue-tower coefficients; P-mode series
take finite-precision p-adic coefficients and are kept in carried normal
form (each stored coefficient is a single-digit representative).
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left, bisect_right
from fractions import Fraction

from .coeff import CoeffElem, binary_power
from .errors import (
    DivisionByZero,
    EngineInvariantViolation,
    NonUnit,
    ParseError,
    PrecisionExceeded,
    ValuationIndeterminate,
)
from .groups import INF, cmp


class SeriesRing:
    """Bundles the exponent group and the coefficient domain.

    The domain is a FieldTower in equal characteristic and a WittRing over
    its residue tower in mixed characteristic; both answer zero, one,
    from_int, residue, lift, coerce and over.  The characteristic exponent
    is read from it: the residue characteristic p, or 1 over Q.
    """

    def __init__(self, descriptor, coeffs, var=None):
        self.descriptor = descriptor
        self.coeffs = coeffs
        self.tower = coeffs.tower  # the residue tower
        self.char_exponent = self.tower.char or 1
        self.mode = "t" if coeffs is self.tower else "p"  # read by the carried form
        self.var = var or self.mode

    def with_tower(self, tower):
        """The same ring over an extended residue tower."""
        return SeriesRing(self.descriptor, self.coeffs.over(tower), self.var)

    def __eq__(self, other):
        return (isinstance(other, SeriesRing) and self.descriptor == other.descriptor
                and self.coeffs == other.coeffs)

    # constructors

    def zero(self, prec=INF, closed=False):
        return GenSeries._sorted(self, (), prec, bool(closed) and prec is not INF)

    def one(self):
        return self.const(self.coeffs.one())

    def const(self, c):
        return self.monomial(self.descriptor.zero(), c)

    def monomial(self, gamma, c=1):
        if isinstance(c, int):
            c = self.coeffs.from_int(c)
        return GenSeries._sorted(self, () if c.is_zero() else ((gamma, c),))

    def uniformizer(self):
        return self.monomial(self.descriptor.basis(0), self.coeffs.one())


def _prec_lt(b1, c1, b2, c2):
    """Strictly weaker knowledge: open-at-b is weaker than closed-at-b."""
    if b1 is INF:
        return False
    if b2 is INF:
        return True
    s = cmp(b1, b2)
    return s < 0 or (s == 0 and not c1 and c2)


def _prec_min(p1, p2):
    return p1 if not _prec_lt(p2[0], p2[1], p1[0], p1[1]) else p2


def _prec_shift(p, gamma):
    bound, closed = p
    if bound is INF or gamma is INF:
        return (INF, False)
    return (bound + gamma, closed)


def _product_prec(a, b):
    """The raw precision and closedness of a*b: each factor's shifted by the
    other's least exponent, or by its precision when it has no terms."""
    if a._raw_prec is b._raw_prec is INF:
        return INF, False
    return _prec_min(
        _prec_shift((a._raw_prec, a._raw_closed), b._raw[0][0] if b._raw else b._raw_prec),
        _prec_shift((b._raw_prec, b._raw_closed), a._raw[0][0] if a._raw else a._raw_prec))


def _cut(terms, prec, closed):
    """How many of the sorted terms have exponents known at (prec, closed)."""
    n = len(terms)
    if prec is not INF:
        compare, keep = prec.descriptor.compare, (1 if closed else 0)
        while n and compare(terms[n - 1][0], prec) >= keep:
            n -= 1
    return n


class GenSeries:
    """Finite truncation of a generalized power series.

    Internally the raw term list is kept as written (p-adic coefficients may
    be multi-digit), which preserves exact cancellation in arithmetic; the
    public accessors (terms, prec, val, text, equality) present the carried
    normal form, computed lazily.

    Raw exponents strictly increase, raw coefficients are non-zero and every
    raw exponent is within the raw precision: this constructor establishes
    that for any term list, and the operations keep it through ``_sorted``.
    """

    __slots__ = ("ring", "_raw", "_raw_prec", "_raw_closed", "_norm", "_powers")

    def __init__(self, ring, terms, prec=INF, closed=False):
        merged = {}
        for g, c in terms:
            merged[g] = merged[g] + c if g in merged else c
        cleaned = [(g, c) for (g, c) in merged.items() if not c.is_zero()]
        ring.descriptor.sort_terms(cleaned)
        closed = bool(closed) and prec is not INF
        raw = tuple(cleaned[:_cut(cleaned, prec, closed)])
        self.ring, self._raw, self._raw_prec, self._raw_closed = ring, raw, prec, closed
        self._norm = self._powers = None

    @classmethod
    def _sorted(cls, ring, raw, prec=INF, closed=False):
        """A series from a raw tuple that already keeps the invariant."""
        s = cls.__new__(cls)
        s.ring, s._raw, s._raw_prec, s._raw_closed = ring, raw, prec, closed
        s._norm = s._powers = None
        return s

    def _normalized(self):
        if self._norm is None:
            if self.ring.mode == "p":
                self._norm = _carry_normalize(self)
            else:
                self._norm = (self._raw, self._raw_prec, self._raw_closed)
        return self._norm

    @property
    def terms(self):
        return self._normalized()[0]

    @property
    def prec(self):
        return self._normalized()[1]

    @property
    def closed(self):
        return self._normalized()[2]

    # -- inspectors -------------------------------------------------------------

    def is_exact_zero(self):
        # carrying keeps a raw term as a term or a finite precision
        return not self._raw and self._raw_prec is INF

    def is_exact_one(self):
        """Whether the series is exactly 1; a raw form written as 1 needs no
        carried normal form, and its lead meets the int 1 with no element built."""
        raw = self._raw
        if (self._raw_prec is INF and len(raw) == 1 and raw[0][0].is_zero()
                and raw[0][1] == 1):
            return True
        return self == self.ring.one()

    def raw_exact(self):
        """Whether the raw precision is INF: sums and products of such series
        are exact on the raw terms, before any carry."""
        return self._raw_prec is INF

    def knows(self, bound, closed=False):
        """Whether the series is known below bound (open) or up to and
        including it (closed)."""
        _, prec, prec_closed = self._normalized()
        return not _prec_lt(prec, prec_closed, bound, closed)

    def val(self):
        """Least exponent of the support, INF for the exact zero; raises when
        only bounded below."""
        terms, prec, _ = self._normalized()
        if terms:
            return terms[0][0]
        if prec is INF:
            return INF
        raise ValuationIndeterminate(
            "series is 0 up to precision; valuation only bounded below",
            bound=prec)

    def leading_term(self):
        """The least (exponent, coefficient) pair; the exact zero has none."""
        terms, _, _ = self._normalized()
        if not terms:
            if self.is_exact_zero():
                raise ValuationIndeterminate("the zero series has no leading term")
            self.val()  # raises with the precision bound
        return terms[0]

    # -- ring operations ---------------------------------------------------------

    def _same_ring(self, other):
        """Check that other is a series over this ring: series over two
        rings never meet (a state moves all of its values up at once)."""
        if other.ring is not self.ring and other.ring != self.ring:
            raise EngineInvariantViolation(
                f"series over two towers: {self.ring.tower!r} and {other.ring.tower!r}")

    def coerce(self, ring):
        # coercion is injective: the raw terms stay sorted and non-zero
        return GenSeries._sorted(ring, tuple((g, ring.coeffs.coerce(c)) for g, c in self._raw),
                                 self._raw_prec, self._raw_closed)

    def __add__(self, other):
        """One linear merge of the raw terms, dropping exact cancellations and
        cutting the tail past the precision."""
        self._same_ring(other)
        prec, closed = _prec_min((self._raw_prec, self._raw_closed),
                                 (other._raw_prec, other._raw_closed))
        compare = self.ring.descriptor.compare
        a, b = self._raw, other._raw
        if not a or not b or compare(a[-1][0], b[0][0]) < 0:
            out = a + b
        elif compare(b[-1][0], a[0][0]) < 0:
            out = b + a
        else:
            out, i, j = [], 0, 0
            while i < len(a) and j < len(b):
                s = compare(a[i][0], b[j][0])
                if s < 0:
                    out.append(a[i])
                elif s > 0:
                    out.append(b[j])
                elif not (c := a[i][1] + b[j][1]).is_zero():
                    out.append((a[i][0], c))
                i += s <= 0
                j += s >= 0
            out = tuple(out) + a[i:] + b[j:]
        return GenSeries._sorted(self.ring, out[:_cut(out, prec, closed)], prec, closed)

    def __neg__(self):
        return GenSeries._sorted(self.ring, tuple((g, -c) for g, c in self._raw),
                                 self._raw_prec, self._raw_closed)

    def __sub__(self, other):
        return self + -other

    def add_mul(self, other, m):
        """self + other*m: the raw terms, precision and closedness of
        ``self + other * m``.  For an m of at most one raw term it is one
        linear merge of self's terms with other's shifted by m, with no
        product series and no coefficient product past the precision; for a
        longer m it is that sum."""
        if len(m._raw) > 1:
            return self + other * m
        self._same_ring(other)
        self._same_ring(m)
        a, b, mt = self._raw, other._raw, m._raw
        prec, closed = _prec_min((self._raw_prec, self._raw_closed), _product_prec(other, m))
        if not b or not mt:
            return GenSeries._sorted(self.ring, a[:_cut(a, prec, closed)], prec, closed)
        # exponents as keys that add and order as they do: integers over one
        # denominator at rank 1; the known terms end below bound
        desc = self.ring.descriptor
        ka, kb, bound, lcm = desc.product_keys(a + mt, b, prec)
        km, (gm, cm) = ka.pop(), mt[0]
        cut = bisect_right if closed else bisect_left
        na, nb = (len(a), len(b)) if bound is INF else (cut(ka, bound), cut(kb, bound - km))
        # other's shifted keys; one compare finds them all above self's terms, and
        # an equal key is found without one (at rank 2 equality is structural)
        ks, out, i = [k + km for k in kb[:nb]], [], 0
        if na and ks and ka[na - 1] < ks[0]:
            out, i = list(a[:na]), na
        for k, (g, c) in zip(ks, b):
            while i < na and ka[i] != k and ka[i] < k:  # self's terms below k go out
                out.append(a[i])
                i += 1
            if i < na and ka[i] == k:
                g, c = a[i][0], a[i][1].add_mul(c, cm)
                i += 1
            else:
                g, c = g + gm if lcm else k, c * cm  # at rank 2 the key is the element
            if not c.is_zero():
                out.append((g, c))
        return GenSeries._sorted(self.ring, tuple(out) + a[i:na], prec, closed)

    def __mul__(self, other):
        """The product; with a one-term factor, add_mul onto the zero series."""
        if isinstance(other, int):
            return self.scale(other)
        self._same_ring(other)
        a, b = self._raw, other._raw
        if not a and self._raw_prec is INF or not b and other._raw_prec is INF:
            return self.ring.zero()
        if len(b) == 1 or len(a) == 1:
            return self.ring.zero().add_mul(*((self, other) if len(b) == 1 else (other, self)))
        prec, closed = _product_prec(self, other)
        # keys as in add_mul; a row's known prefix ends below bound - key
        desc = self.ring.descriptor
        ka, kb, bound, lcm = desc.product_keys(a, b, prec)
        cut = bisect_right if closed else bisect_left
        acc, n = {}, len(b)
        for k1, (_, c1) in zip(ka, a):
            # a's exponents rise, so each row's known prefix is one of the last row's
            if bound is not INF and not (n := cut(kb, bound - k1, 0, n)):
                break
            for k2, (_, c2) in zip(kb[:n], b):
                k = k1 + k2
                acc[k] = acc[k].add_mul(c1, c2) if k in acc else c1 * c2
        items = [(k, c) for k, c in acc.items() if not c.is_zero()]
        return GenSeries._sorted(self.ring, desc.from_keys(items, lcm), prec, closed)

    __rmul__ = __mul__

    def scale(self, n):
        """Multiply by an integer (or a coefficient-domain element)."""
        if isinstance(n, int):
            n = self.ring.coeffs.from_int(n)
        raw = tuple((g, c) for g, c in ((g, c * n) for g, c in self._raw) if not c.is_zero())
        return GenSeries._sorted(self.ring, raw, self._raw_prec, self._raw_closed)

    def __pow__(self, n):
        if n < 0:
            raise ValueError("series powers need a non-negative exponent")
        return binary_power(self, n, self.ring.one(), operator.mul)

    def inv(self, prec=None):
        """Inverse of a unit (valuation 0), to the requested precision."""
        v = self.val()  # raises if indeterminate
        if v is INF:
            raise DivisionByZero("inverse of the zero series")
        if not v.is_zero():
            raise NonUnit("inverse only defined for valuation-0 units")
        lead = self.terms[0][1]
        if not lead.is_unit():
            raise NonUnit("leading coefficient is not a unit")
        if prec is None:
            if self.prec is INF:
                raise ValueError("an explicit target precision is required for exact input")
            prec = self.prec
        elif not self.knows(prec):
            prec = self.prec
        inv_lead = lead.inv()
        cinv = self.ring.const(inv_lead)
        h = (self.ring.one() - (self * cinv)).truncate_open(prec)
        acc = self.ring.one().truncate_open(prec)
        term = self.ring.one()
        while True:
            term = (term * h).truncate_open(prec)
            if not term.terms:
                break
            acc = acc + term
        return (acc * cinv).truncate_open(prec)

    # -- truncations ----------------------------------------------------------------

    def truncate_open(self, beta):
        """Terms strictly below beta; precision becomes beta (open)."""
        if not self.knows(beta):
            raise PrecisionExceeded("open truncation beyond stored precision")
        terms = self.terms
        return GenSeries._sorted(self.ring, terms[:_cut(terms, beta, False)], beta, False)

    def truncate_closed(self, beta):
        """Terms up to and including beta; precision beta, closed flag set."""
        if not self.knows(beta, True):
            raise PrecisionExceeded("closed truncation needs the boundary term")
        terms = self.terms
        return GenSeries._sorted(self.ring, terms[:_cut(terms, beta, True)], beta,
                                 beta is not INF)

    def slice(self, beta, beta2):
        """The window [beta, beta2): open truncation difference."""
        if cmp(beta, beta2) >= 0:
            raise ValueError("slice needs beta < beta2")
        if not self.knows(beta2):
            raise PrecisionExceeded("slice beyond stored precision")
        terms = self.terms
        return GenSeries._sorted(self.ring, terms[_cut(terms, beta, False):
                                                  _cut(terms, beta2, False)], beta2, False)

    def normalize(self):
        """Carried normal form (p-mode); identity in t-mode.  Idempotent."""
        return GenSeries._sorted(self.ring, *self._normalized())

    def exact(self):
        """The carried terms as an exact finite series: precision INF."""
        return GenSeries._sorted(self.ring, self.terms)

    # -- comparisons / text -----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, GenSeries):
            return NotImplemented
        self._same_ring(other)
        if (self.prec is INF) != (other.prec is INF):
            return False
        if self.prec is not INF and (cmp(self.prec, other.prec) != 0
                                     or self.closed != other.closed):
            return False
        return (len(self.terms) == len(other.terms)
                and all(cmp(g1, g2) == 0 and c1 == c2
                        for (g1, c1), (g2, c2) in zip(self.terms, other.terms)))

    def __repr__(self):
        return f"GenSeries({self.to_text()})"

    def _exp_text(self, gamma):
        if gamma.is_zero():
            return ""
        var, text = self.ring.var, str(gamma)
        if text == "1":
            return var
        if text.lstrip("-").isdecimal():
            return f"{var}^{text}"
        return f"{var}^({text})"

    def _coeff_text(self, c):
        txt = self.ring.coeffs.residue(c).to_text()
        if "+" in txt or "*" in txt:
            return f"({txt})"
        return txt

    def to_text(self):
        parts = []
        for g, c in self.terms:
            et = self._exp_text(g)
            ct = self._coeff_text(c)
            neg = ct.startswith("-")
            if neg:
                ct = ct[1:]
            if et == "":
                body = ct
            elif ct == "1":
                body = et
            else:
                body = f"{ct}*{et}"
            if not parts:
                parts.append(("-" if neg else "") + body)
            else:
                parts.append(("- " if neg else "+ ") + body)
        if self.prec is not INF:
            bound = self._exp_text(self.prec)
            bound = bound if bound else f"{self.ring.var}^0"
            parts.append(("+ " if parts else "") +
                         (f"O[{bound}]" if self.closed else f"O({bound})"))
        if not parts:
            return "0"
        return " ".join(parts)


def _carry_normalize(s):
    """Split multi-digit p-adic coefficients across integer exponent shifts.

    A coefficient already in the residue-representative set is exact;
    multi-digit coefficients are mod-p^N data, so once one participates in a
    class the class is only known below offset min(n_i + N) over the
    multi-digit entries.  The series precision is clamped there (the bound
    is flagged through the precision, never silently wrapped).

    One WittRing.multi_digit call per series finds the multi-digit
    coefficients, and one WittRing.carry call per carried class sums its
    c_i p^(n_i - n_min) exactly and reads the digits below the horizon.
    """
    witt = s.ring.coeffs
    multi = witt.multi_digit([c for _, c in s._raw])
    if not any(multi):
        # every coefficient is a digit: the raw terms are the carried form
        return s._raw, s._raw_prec, s._raw_closed
    desc = s.ring.descriptor
    classes = desc.integer_classes(s._raw)
    out = []
    low = None  # the least horizon over the carried classes
    for cls, members in classes:
        ns = [n for i, n in members if multi[i]]
        if not ns:
            out.extend(s._raw[i] for i, _ in members)
            continue
        n_min, horizon = members[0][1], min(ns) + witt.precision
        carried = witt.carry([(n - n_min, s._raw[i][1]) for i, n in members], horizon - n_min)
        *exps, bound = cls.shifts([n_min + k for k, _ in carried] + [horizon])
        out.extend(zip(exps, [d for _, d in carried]))
        if low is None or desc.compare(bound, low) < 0:
            low = bound
    prec, closed = _prec_min((s._raw_prec, s._raw_closed), (low, False))
    if len(classes) > 1:  # each class's terms arrive sorted
        desc.sort_terms(out)
    return tuple(out[:_cut(out, prec, closed)]), prec, closed


def eval_poly(coeffs, s):
    """sum c_j s^j for GenSeries coefficients c_j (ascending).

    When s and every c_j have raw precision INF, the powers of s are formed
    once per series and kept on it (a series never changes), and each c_j
    meets its power: a one-term c_j by ``add_mul``, one merge into the sum.
    Otherwise Horner's rule: with finite precisions the two orders can keep
    different precisions, and Horner's is the one used.
    """
    if not coeffs:
        return s.ring.zero()
    if s._raw_prec is not INF or any(c._raw_prec is not INF for c in coeffs):
        acc = coeffs[-1]
        for c in reversed(coeffs[:-1]):
            acc = acc * s + c
        return acc
    powers = s._powers = s._powers or [s]
    while len(powers) < len(coeffs) - 1:
        powers.append(powers[-1] * s)
    acc = coeffs[0]
    for c, power in zip(coeffs[1:], powers):
        if len(c._raw) == 1:
            acc = acc.add_mul(power, c)
        elif c._raw:
            acc = acc + c * power
    return acc


# -- text parsing ------------------------------------------------------------------


class _Scanner:
    """Tokens of the one expression grammar that ``read_expr`` reads."""

    def __init__(self, text, lineno=None):
        self.text = text
        self.pos = 0
        self.lineno = lineno

    def error(self, msg, col=None):
        raise ParseError(msg, line=self.lineno,
                         col=(self.pos if col is None else col) + 1)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch):
        self.skip_ws()
        if not self.text.startswith(ch, self.pos):
            self.error(f"expected {ch!r}")
        self.pos += len(ch)

    def at_end(self):
        self.skip_ws()
        return self.pos >= len(self.text)

    def number(self):
        """A rational literal with an optional leading minus sign."""
        self.skip_ws()
        start = self.pos
        if self.peek() == "-":
            self.pos += 1
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos < len(self.text) and self.text[self.pos] == "/":
            self.pos += 1
            while self.pos < len(self.text) and self.text[self.pos].isdigit():
                self.pos += 1
        frag = self.text[start:self.pos]
        try:
            return Fraction(frag)
        except (ValueError, ZeroDivisionError):
            self.error(f"bad number {frag!r}", col=start)

    def exponent(self):
        """The operand of a ``^``: a signed rational, bare or in parentheses."""
        if self.peek() != "(":
            return self.number()
        self.take("(")
        n = self.number()
        self.take(")")
        return n

    def ident(self):
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (self.text[self.pos].isalnum()
                                             or self.text[self.pos] == "_"):
            self.pos += 1
        if start == self.pos:
            self.error("expected a name")
        return self.text[start:self.pos]


# the deepest nesting of parentheses and function arguments read_expr reads
MAX_NESTING = 100
# the most terms a power or a product in series, arith or poly text may reach
MAX_POWER_TERMS = 512


def check_terms(sc, kind, factors, col=None):
    """A ParseError at col, naming the kind, when the product of the (terms, n)
    factors, each terms' series to its n, may pass MAX_POWER_TERMS terms: the
    lesser of the ways to pick terms, C(m + n - 1, n) for m terms to the n, and
    the exponents' lattice, sum n*(max - min)/g + 1 values in each coordinate, g
    the gcd of the differences there.  Only two or more factors of 2+ terms count."""
    factors = [(terms, n) for terms, n in factors if len(terms) >= 2]
    picks = math.prod(math.comb(len(terms) + n - 1, n) for terms, n in factors)
    if sum(n for _, n in factors) < 2 or picks <= MAX_POWER_TERMS:
        return
    desc = factors[0][0][0][0].descriptor
    lattice = 1
    for j in range(desc.rank):
        keyed, _ = desc.integer_keys([terms for terms, _ in factors], j)
        span = sum(n * (max(ks) - min(ks)) for ks, (_, n) in zip(keyed, factors))
        gcd = math.gcd(*(k - ks[0] for ks in keyed for k in ks))
        lattice *= span // gcd + 1 if gcd else 1
    if (bound := min(picks, lattice)) > MAX_POWER_TERMS:
        sc.error(f"a {kind} of up to {bound} terms is above the limit {MAX_POWER_TERMS}", col)


def bounded_power(sc, base, n, col):
    """base ** n, n >= 0 an integer whose ``^`` is at col, if check_terms passes it."""
    check_terms(sc, "power", [(base.terms, n)], col)
    return base ** n


def bounded_product(sc, a, b):
    """a * b, if check_terms passes it."""
    check_terms(sc, "product", [(a.terms, 1), (b.terms, 1)])
    return a * b


def read_expr(sc, atom, power, times):
    """Read all of sc's text as a signed sum of products of powers.

    Parentheses group.  A text kind supplies only its vocabulary:
    ``atom(read)`` reads any other atom (``read()`` reads a nested sum, say
    a function argument), ``power(base)`` reads what follows a ``^`` and
    returns base raised to it, and ``times(a, b)`` returns the product of
    two factors, each hook free to refuse with a ParseError.  The values
    need +, - and unary minus.  Nesting deeper than MAX_NESTING is a
    ParseError.
    """
    depth = -1  # the sums being read, the whole text not counted

    def read():
        nonlocal depth
        if depth == MAX_NESTING:
            sc.error(f"expressions may nest at most {MAX_NESTING} deep")
        depth += 1
        sign = sc.peek()
        if sign in ("+", "-"):
            sc.take(sign)
        acc = product()
        if sign == "-":
            acc = -acc
        while sc.peek() in ("+", "-"):
            op = sc.peek()
            sc.take(op)
            acc = acc - product() if op == "-" else acc + product()
        depth -= 1
        return acc

    def product():
        acc = factor()
        while sc.peek() == "*":
            sc.take("*")
            acc = times(acc, factor())
        return acc

    def factor():
        if sc.peek() == "(":
            sc.take("(")
            base = read()
            sc.take(")")
        else:
            base = atom(read)
        while sc.peek() == "^":
            sc.take("^")
            base = power(base)
        return base

    out = read()
    if not sc.at_end():
        sc.error("trailing input")
    return out


def parse_series(ring, text):
    """Parse the canonical printed form back into a GenSeries (bit-exact).

    The vocabulary: rational literals, with a leading minus as the printer
    writes ``w^1 + -3``; tower generators, whose powers are non-negative
    integers; ``t^e``, the monomial of value e; and the bounds ``O(t^e)``
    (open) and ``O[t^e]`` (closed).
    """
    sc = _Scanner(text)
    gens = {name: k for k, (name, _) in enumerate(ring.tower.stages)}

    def atom(read):
        ch = sc.peek()
        if ch.isdigit() or ch == "-":
            return ring.const(_coeff_from_fraction(ring, sc.number()))
        name = sc.ident()
        if name == "O" and sc.peek() in ("(", "["):
            opener = sc.peek()
            sc.take(opener)
            if sc.ident() != ring.var:
                sc.error(f"expected {ring.var!r}")
            bound = _exponent(ring, sc)
            sc.take(")" if opener == "(" else "]")
            return ring.zero(bound, opener == "[")
        if name == ring.var:
            return ring.monomial(_exponent(ring, sc))
        if name not in gens:
            sc.error(f"unknown generator {name!r}")
        return ring.const(ring.coeffs.lift(CoeffElem.generator(ring.tower, gens[name])))

    def power(base):
        start = sc.pos
        n = sc.exponent()
        if n < 0 or n.denominator != 1:
            sc.error("generator powers must be non-negative integers", col=start)
        return bounded_power(sc, base, int(n), start - 1)

    return read_expr(sc, atom, power, lambda a, b: bounded_product(sc, a, b))


def _exponent(ring, sc):
    """The e of ``t^e`` (1 when no ``^`` follows), read on the scanner: a
    signed rational, bare or in parentheses, or in parentheses the
    g-coordinates ``q1*g1 + q2*g2`` that ``GroupElement.to_text`` prints,
    each qj a signed rational and each gj a generator of the group."""
    desc = ring.descriptor
    if sc.peek() != "^":
        return desc.from_rational(1)
    sc.take("^")
    if sc.peek() != "(":
        return desc.from_rational(sc.number())
    sc.take("(")
    q = sc.number()
    if sc.peek() != "*":
        sc.take(")")
        return desc.from_rational(q)
    coords = [Fraction(0)] * desc.rank
    while True:
        sc.take("*")
        sc.take("g")
        start = sc.pos - 1
        j = sc.number()
        if j.denominator != 1 or not 1 <= j <= desc.rank:
            sc.error(f"bad generator name {sc.text[start:sc.pos]!r}", col=start)
        coords[int(j) - 1] += q
        if sc.peek() != "+":
            sc.take(")")
            return desc.element(coords)
        sc.take("+")
        q = sc.number()


def _coeff_from_fraction(ring, q):
    """The coefficient of a rational literal; one whose denominator the residue
    characteristic divides has no value and is a ParseError."""
    num = ring.coeffs.from_int(q.numerator)
    if q.denominator == 1:
        return num
    p = ring.tower.char
    if p and q.denominator % p == 0:
        raise ParseError(f"the literal {q} has no value when the residue characteristic is {p}")
    return num * ring.coeffs.from_int(q.denominator).inv()
