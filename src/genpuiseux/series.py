"""Truncated generalized power series over (value group, coefficient domain).

A GenSeries is a finite sorted term list plus a precision bound: the series
is known exactly on exponents below the bound (open) or up to and including
it (closed).  T-mode series take residue-tower coefficients; P-mode series
take finite-precision p-adic coefficients and are kept in carried normal
form (each stored coefficient is a single-digit representative).
"""

from __future__ import annotations

import operator
from bisect import bisect_left, bisect_right
from fractions import Fraction

from .coeff import CoeffElem, WittElem, binary_power
from .errors import (
    EngineInvariantViolation,
    NonUnit,
    ParseError,
    PrecisionExceeded,
    ValuationIndeterminate,
)
from .groups import INF, GroupElement, cmp


class SeriesRing:
    """Bundles the exponent group and the coefficient domain.

    The domain is a FieldTower in equal characteristic and a WittRing over
    its residue tower in mixed characteristic; both answer zero, one,
    from_int, residue, lift, coerce and over.
    """

    def __init__(self, descriptor, coeffs, var=None):
        self.descriptor = descriptor
        self.coeffs = coeffs
        self.tower = coeffs.tower  # the residue tower
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
        carried normal form."""
        raw = self._raw
        if (self._raw_prec is INF and len(raw) == 1 and raw[0][0].is_zero()
                and raw[0][1] == self.ring.coeffs.one()):
            return True
        return self == self.ring.one()

    def knows(self, bound, closed=False):
        """Whether the series is known below bound (open) or up to and
        including it (closed)."""
        _, prec, prec_closed = self._normalized()
        return not _prec_lt(prec, prec_closed, bound, closed)

    def val(self):
        """Least exponent of the support; raises when only bounded below."""
        terms, prec, _ = self._normalized()
        if terms:
            return terms[0][0]
        if prec is INF:
            raise ValuationIndeterminate("valuation of the zero series is undefined")
        raise ValuationIndeterminate(
            "series is 0 up to precision; valuation only bounded below",
            bound=prec)

    def leading_term(self):
        terms, _, _ = self._normalized()
        if not terms:
            self.val()  # raises with the right diagnostics
        return terms[0]

    # -- ring operations ---------------------------------------------------------

    def _same_ring(self, other):
        """Check that other is a series over this ring: series over two
        rings never meet (a state moves all of its values up at once)."""
        if other.ring is not self.ring and other.ring != self.ring:
            raise EngineInvariantViolation(
                f"series over two towers: {self.ring.tower!r} and {other.ring.tower!r}")

    def coerce(self, ring):
        return GenSeries(ring, [(g, ring.coeffs.coerce(c)) for g, c in self._raw],
                         self._raw_prec, self._raw_closed)

    def __add__(self, other):
        return self._merge(other, False)

    def __sub__(self, other):
        return self._merge(other, True)

    def _merge(self, other, negate):
        """self + other (self - other when negate) as one linear merge of the raw
        terms, dropping exact cancellations and cutting the tail past the precision."""
        self._same_ring(other)
        prec, closed = _prec_min((self._raw_prec, self._raw_closed),
                                 (other._raw_prec, other._raw_closed))
        compare = self.ring.descriptor.compare
        a, b = self._raw, other._raw
        if negate:
            b = tuple((g, -c) for g, c in b)
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

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        self._same_ring(other)
        a, b = self._raw, other._raw
        if not a and self._raw_prec is INF or not b and other._raw_prec is INF:
            return self.ring.zero()
        prec, closed = _prec_min(_prec_shift((self._raw_prec, self._raw_closed),
                                             b[0][0] if b else other._raw_prec),
                                 _prec_shift((other._raw_prec, other._raw_closed),
                                             a[0][0] if a else self._raw_prec))

        if len(a) == 1:
            a, b = b, a
        # exponents as keys that add and order as they do: integers over one
        # denominator at rank 1; a row's known prefix ends below bound - key
        desc = self.ring.descriptor
        ka, kb, bound, lcm = desc.product_keys(a, b, prec)
        cut = bisect_right if closed else bisect_left
        if len(b) == 1:
            # a shift: the products arrive sorted, with distinct exponents
            (k2,), ((_, c2),) = kb, b
            n = len(a) if bound is INF else cut(ka, bound - k2)
            items = [(k1 + k2, c) for k1, (_, c1) in zip(ka[:n], a)
                     if not (c := c1 * c2).is_zero()]
            return GenSeries._sorted(self.ring, desc.from_keys(items, lcm, True), prec, closed)
        acc, n = {}, len(b)
        for k1, (_, c1) in zip(ka, a):
            # a's exponents rise, so each row's known prefix is one of the last row's
            if bound is not INF and not (n := cut(kb, bound - k1, 0, n)):
                break
            for k2, (_, c2) in zip(kb[:n], b):
                k = k1 + k2
                c = c1 * c2
                acc[k] = acc[k] + c if k in acc else c
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
        var = self.ring.var
        q = gamma.rational_value()
        if q is None:
            return f"{var}^({gamma.to_text()})"
        if q == 1:
            return var
        if q.denominator == 1:
            return f"{var}^{q}"
        return f"{var}^({q})"

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

    Each coefficient is read as its integer leaves, zero-padded to one
    length (one leaf at height 0): a class sums them as integers and reads
    its digits with one divmod per leaf per position.
    """
    witt = s.ring.coeffs
    p, tower = witt.p, witt.tower
    flat = witt.leaves([c for _, c in s._raw])
    if max(map(max, flat), default=0) < p:
        # every coefficient is a digit: the raw terms are the carried form
        return s._raw, s._raw_prec, s._raw_closed
    desc = s.ring.descriptor
    classes = desc.integer_classes(s._raw)
    out = []
    low = None  # the least horizon over the carried classes
    for cls, members in classes:
        multi = [n for i, n in members if max(flat[i]) >= p]
        if not multi:
            out.extend(s._raw[i] for i, _ in members)
            continue
        (first, n_min), horizon = members[0], min(multi) + witt.precision
        # sum_i c_i p^(n_i - n_min) leaf by leaf, then its digits
        acc = flat[first]
        for i, n in members[1:]:
            f = p ** (n - n_min)
            acc = [a + x * f for a, x in zip(acc, flat[i])]
        ns, digits = [], []
        for n in range(n_min, horizon):
            if not any(acc):
                break
            digit = []
            for i, a in enumerate(acc):
                acc[i], d = divmod(a, p)
                digit.append(d)
            if any(digit):
                ns.append(n)
                digits.append(WittElem(witt, tower.from_leaves(digit)))
        *exps, bound = cls.shifts(ns + [horizon])
        out.extend(zip(exps, digits))
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
    meets its power.  Otherwise Horner's rule: with finite precisions the
    two orders can keep different precisions, and Horner's is the one used.
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
        if c._raw:
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


def read_expr(sc, atom, power):
    """Read all of sc's text as a signed sum of products of powers.

    Parentheses group.  A text kind supplies only its vocabulary:
    ``atom(read)`` reads any other atom (``read()`` reads a nested sum, say
    a function argument), and ``power(base)`` reads what follows a ``^`` and
    returns base raised to it.  The values need +, -, unary minus and *.
    Nesting deeper than MAX_NESTING is a ParseError.
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
            acc = acc * factor()
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
        return base ** int(n)

    return read_expr(sc, atom, power)


def _exponent(ring, sc):
    """The e of ``t^e`` (1 when no ``^`` follows): a rational, or in
    parentheses a rational or the g-coordinates of GroupElement.parse."""
    desc = ring.descriptor
    if sc.peek() != "^":
        return desc.from_rational(1)
    sc.take("^")
    if sc.peek() != "(":
        return desc.from_rational(sc.number())
    sc.take("(")
    end = sc.text.find(")", sc.pos)
    end = len(sc.text) if end < 0 else end
    if "g" in sc.text[sc.pos:end]:
        gamma = GroupElement.parse(desc, sc.text[sc.pos:end])
        sc.pos = end
    else:
        gamma = desc.from_rational(sc.number())
    sc.take(")")
    return gamma


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
