"""Key-polynomial chains: Hasse derivatives, standard expansions, truncated
valuations, the epsilon invariants, and MacLane-style chain extension.

A chain entry holds a monic polynomial over the lower-stage series field
together with its assigned value beta, the derivative order realizing the
epsilon invariant, epsilon itself, the degree ratio to the previous entry,
and the values of its p-power Hasse derivatives, computed once when the
entry is built.  The valuation oracle is pullback along the partial root
series being constructed, which this module reads only through values its
callers pass in (a reader of the partial, a point's ``TaylorVector``); entry
values are assigned from Newton polygons of the defining polynomial.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, replace

from .coeff import binary_power
from .errors import (
    ChainComplete,
    EngineInvariantViolation,
    ValuationIndeterminate,
    ZeroPolynomial,
)
from .groups import INF, cmp
from .series import GenSeries, eval_poly


class ValPoly:
    """Univariate polynomial with GenSeries coefficients (ascending order);
    ``_derivs`` keeps its Hasse derivatives by order as they are formed."""

    __slots__ = ("ring", "coeffs", "_derivs")

    def __init__(self, ring, coeffs):
        self.ring = ring
        cs = list(coeffs)
        while cs and cs[-1].is_exact_zero():
            cs.pop()
        self.coeffs = tuple(cs)
        self._derivs = None

    @classmethod
    def variable(cls, ring):
        return cls(ring, [ring.zero(), ring.one()])

    @classmethod
    def const(cls, series):
        return cls(series.ring, [series])

    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def coeff(self, j):
        return self.coeffs[j] if j <= self.degree() else self.ring.zero()

    def is_monic(self):
        return not self.is_zero() and self.coeffs[-1].is_exact_one()

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return ValPoly(self.ring,
                       [self.coeff(j) + other.coeff(j) for j in range(n)])

    def __neg__(self):
        return ValPoly(self.ring, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, GenSeries):
            return ValPoly(self.ring, [c * other for c in self.coeffs])
        if self.is_zero() or other.is_zero():
            return ValPoly(self.ring, [])
        out = [self.ring.zero()] * (self.degree() + other.degree() + 1)
        for i, a in enumerate(self.coeffs):
            if a.is_exact_zero():
                continue
            for j, b in enumerate(other.coeffs):
                if not b.is_exact_zero():
                    out[i + j] = out[i + j] + a * b
        return ValPoly(self.ring, out)

    def __pow__(self, n):
        if n < 0:
            raise ValueError("polynomial powers need a non-negative exponent")
        return binary_power(self, n, ValPoly(self.ring, [self.ring.one()]), operator.mul)

    def divmod_monic(self, q):
        """Division by a monic polynomial; exact, never inverts coefficients."""
        if not q.is_monic():
            raise ValueError("division only by monic polynomials")
        quot, rem = _divide(self.coeffs, q.degree(), _negated_lower(q))
        return ValPoly(self.ring, quot), ValPoly(self.ring, rem)

    def hasse_derivative(self, m):
        """Divided-power derivative: sum C(k, m) a_k x^(k-m), formed once per
        order and kept, as a series keeps its powers (a polynomial never
        changes); order 0 is the polynomial itself."""
        if m < 0:
            raise ValueError("derivative order must be >= 0")
        if m == 0:
            return self
        derivs = self._derivs = self._derivs or {}
        if m not in derivs:
            derivs[m] = ValPoly(self.ring, [self.coeffs[k] * math.comb(k, m)
                                            for k in range(m, self.degree() + 1)])
        return derivs[m]

    def eval(self, s):
        if hasattr(s, "eval_valpoly"):
            return s.eval_valpoly(self)
        return eval_poly(list(self.coeffs), s)

    def coerce(self, ring):
        return ValPoly(ring, [c.coerce(ring) if c.ring != ring else c
                              for c in self.coeffs])

    def __eq__(self, other):
        if not isinstance(other, ValPoly):
            return NotImplemented
        if self is other:
            return True
        if len(self.coeffs) != len(other.coeffs):
            return False
        return all(a == b for a, b in zip(self.coeffs, other.coeffs))

    def to_text(self, var="y"):
        """The polynomial as text in the variable named ``var``."""
        if self.is_zero():
            return "0"
        parts = []
        for j in range(self.degree(), -1, -1):
            c = self.coeff(j)
            if c.is_exact_zero():
                continue
            ct = c.to_text()
            if j == 0:
                parts.append(ct)
                continue
            v = var if j == 1 else f"{var}^{j}"
            if ct == "1":
                parts.append(v)
            elif ct == "-1":
                parts.append(f"-{v}")
            else:
                if "+" in ct or " - " in ct or ct.startswith("O"):
                    ct = f"({ct})"
                parts.append(f"{ct}*{v}")
        out = " + ".join(parts)
        return out.replace("+ -", "- ")

    def __repr__(self):
        return f"ValPoly({self.to_text()})"


class TaylorVector:
    """The Taylor vector ((D^l P)(s))_{l=0..deg P} of ``poly`` P at ``point``
    s, as ``entries`` indexed by order: P's kept derivatives
    (``hasse_derivative``; D^0 P is P) each evaluated at s.

    s is a series, read by eval_poly, or any point with an ``eval_valpoly``
    method; a vanishing derivative contributes an exact zero without an
    evaluation.  The entries below ``lowest`` are left unevaluated, as None.
    Given ``entries``, the vector is built from them with no evaluation.
    """

    __slots__ = ("poly", "point", "entries")

    def __init__(self, P, s, lowest=0, entries=None):
        self.poly, self.point = P, s
        if entries is None:
            entries = [None] * lowest
            for l in range(lowest, P.degree() + 1):
                dP = P.hasse_derivative(l)
                entries.append(s.ring.zero() if dP.is_zero() else dP.eval(s))
        self.entries = entries

    def is_of(self, P, s):
        """Whether this is the vector of this very P at this very s."""
        return self.point is s and self.poly is P

    def shift(self, m):
        """The vector at point + m, for a one-term series m.

        The entries are the coefficients of G(x) = sum (D^k P)(s) x^k, and the
        vector at s + m is that of G(x + m).  Horner's rule forms it: deg P
        rounds of out[k] += out[k+1]*m, each one ``add_mul``, a linear merge.
        """
        out = list(self.entries)
        for low in range(len(out) - 1):
            for k in range(len(out) - 2, low - 1, -1):
                out[k] = out[k].add_mul(out[k + 1], m)
        return TaylorVector(self.poly, self.point + m, entries=out)

    def coerce(self, ring):
        """The vector over ring: the poly, the point and the entries moved together."""
        return TaylorVector(self.poly.coerce(ring), self.point.coerce(ring),
                            entries=[h.coerce(ring) for h in self.entries])

    def derivative(self, b):
        """The vector of D^b P at the point, by the law D^k D^b = C(b+k, k) D^(b+k):
        entries C(b+k, k)*entry[b+k], read from entry b on."""
        return TaylorVector(self.poly.hasse_derivative(b), self.point,
                            entries=[self.entries[b + k] * math.comb(b + k, k)
                                     for k in range(len(self.entries) - b)])

    def min_at(self, beta):
        """The T-graded minimum at beta: the least nu(entry[k]) + k*beta over
        the non-zero entries, and the k attaining it."""
        return level_and_ties((k, ev.val() + beta.scale_unchecked(k))
                              for k, ev in enumerate(self.entries))


@dataclass(frozen=True)
class ChainEntry:
    poly: ValPoly
    beta: object  # GroupElement or INF
    b_order: int
    epsilon: object  # GroupElement or INF
    alpha: int
    # ((b, nu(D_{p^b} poly)), ...) over the p-power orders p^b <= deg poly
    # whose derivative is non-zero with a finite value; see chain_entry
    levels: tuple
    # (F, (c_j), (nu(c_j))) for F = sum c_j poly^j as extend_chain formed it, or None
    expansion: tuple = field(default=None, compare=False, repr=False)

    def epsilon_for(self, value):
        """(b, max over the levels of (value - v) / p^b): the first b wins ties
        and an INF value gives (first b, INF)."""
        p = self.poly.ring.char_exponent
        return _max_drop(self.levels, p, value)

    def kept_constant(self, F):
        """D when the entry keeps F = D + poly, D of raw precision INF, as the
        expansion (D, 1) that extend_chain formed for this very F; None
        otherwise, also for F = D + c_1*poly with c_1 != 1, as for a reducible F."""
        exp = self.expansion
        if (exp is None or exp[0] is not F or len(exp[1]) != 2 or exp[1][0].degree()
                or exp[1][1].degree() or not exp[1][1].is_monic()):
            return None
        D = exp[1][0].coeffs[0]
        return D if D.raw_exact() else None


def _max_drop(levels, p, value):
    best_b, best = None, None
    for b, v in levels:
        cand = (value - v) / p ** b
        if best is None or cmp(cand, best) > 0:
            best_b, best = b, cand
    return best_b, best


def chain_entry(below, poly, beta, alpha, expansion=None):
    """The entry for key polynomial poly on top of the chain ``below``.

    Its levels are the values nu(D_{p^b} poly), p^b <= deg poly, read
    through the stages of ``below``; b_order and epsilon are the largest
    drop (beta - level) / p^b over them.
    """
    p = below.ring.char_exponent
    if below.entries and poly.coeffs[1:] == below.entries[-1].poly.coeffs[1:]:
        # a re-pin or a constant refinement: the derivatives are those of the
        # entry below, of degree below deg poly, so they are read at the same
        # stages (a tuple compare tries identity first, so a re-pin is cheap)
        levels = below.entries[-1].levels
    else:
        levels = []
        b = 0
        while p ** b <= poly.degree():
            v = truncated_val(poly.hasse_derivative(p ** b), below, len(below))[0]
            if v is not INF:
                levels.append((b, v))
            if p == 1:
                break
            b += 1
        if not levels:
            raise ZeroPolynomial("all divided derivatives vanish")
    b, eps = _max_drop(levels, p, beta)
    return ChainEntry(poly, beta, b, eps, alpha, tuple(levels), expansion)


def _per_poly(entries, fn):
    """fn of each distinct polynomial object among the entries, keyed by id: a
    re-pinned F is one object in many entries."""
    polys = {id(e.poly): e.poly for e in entries}
    return {k: fn(q) for k, q in polys.items()}


class KeyPolyChain:
    """Immutable snapshot of the computed key-polynomial chain."""

    def __init__(self, ring, entries=()):
        self.ring = ring
        self.entries = tuple(entries)

    def __len__(self):
        return len(self.entries)

    def entry(self, i):
        """1-based entry access."""
        if i < 1:
            raise IndexError(f"chain entries are numbered from 1, not {i}")
        return self.entries[i - 1]

    def index_for(self, beta):
        """Smallest 1-based i with beta <= epsilon_i, or len+1 when none: a
        bisection, as the epsilons never decrease (only the last can be INF)."""
        lo, hi = 0, len(self.entries)
        while lo < hi:
            mid = (lo + hi) // 2
            if cmp(beta, self.entries[mid].epsilon) <= 0:
                hi = mid
            else:
                lo = mid + 1
        return lo + 1

    def appended(self, entry):
        return KeyPolyChain(self.ring, self.entries + (entry,))

    def coerce(self, ring):
        """The chain over ring; kept expansions are of the old ring's F: dropped.
        Entries that share a polynomial (a re-pinned F) still share it."""
        polys = _per_poly(self.entries, lambda q: q.coerce(ring))
        return KeyPolyChain(ring, [replace(e, poly=polys[id(e.poly)], expansion=None)
                                   for e in self.entries])

    def report(self, var="y"):
        """One line per entry, its polynomial written in ``var``."""
        texts = _per_poly(self.entries, lambda q: q.to_text(var))
        return "\n".join(
            f"{i}: Q_{i}={texts[id(e.poly)]} beta={e.beta} "
            f"b={e.b_order} eps={e.epsilon} alpha={e.alpha}"
            for i, e in enumerate(self.entries, start=1))


def geometric_limit(xs, p):
    """(d, sup) when the last three values of xs step by p*d and then d, so
    that continuing the steps d/p, d/p^2, ... accumulates at
    sup = xs[-1] + d/(p - 1); None otherwise (and for p <= 1)."""
    if p <= 1 or len(xs) < 3:
        return None
    d = xs[-1] - xs[-2]
    if cmp(xs[-2] - xs[-3], d.scale_unchecked(p)) != 0:
        return None
    return d, xs[-1] + d / (p - 1)


def _negated_lower(q):
    """(i, -q_i) for the lower coefficients q_i of q that are not the exact
    zero; a zero of finite precision stays, as its precision applies."""
    return [(i, -c) for i, c in enumerate(q.coeffs[:-1]) if not c.is_exact_zero()]


def _divide(coeffs, d, negated):
    """Quotient and remainder coefficient lists of coeffs by the monic
    polynomial of degree d whose lower coefficients ``_negated_lower`` gave:
    each lead of the remainder meets each -q_i in one ``add_mul``."""
    rem = list(coeffs)
    quot = [None] * max(0, len(rem) - d)
    while len(rem) > d:
        lead = rem.pop()
        k = len(rem) - d
        quot[k] = lead
        for i, c in negated:
            rem[k + i] = rem[k + i].add_mul(lead, c)
    return quot, rem


def standard_expansion(f, q):
    """Coefficients c_j of f = sum c_j q^j with deg c_j < deg q, for a monic q
    of degree >= 1; each quotient is divided again as a coefficient list."""
    if not q.is_monic() or q.degree() < 1:
        raise ValueError("standard expansion needs a monic key polynomial of degree >= 1")
    d, negated = q.degree(), _negated_lower(q)
    cs, r = [], f.coeffs
    while r:  # a quotient's top coefficient is its dividend's, never the exact zero
        r, rem = _divide(r, d, negated)
        cs.append(ValPoly(f.ring, rem))
    return cs


def level_and_ties(pairs):
    """The least non-INF value over (index, value) pairs and the indices
    attaining it, in the order given; (None, []) when every value is INF."""
    best = None
    ties = []
    for j, v in pairs:
        if v is INF:
            continue
        if best is None or cmp(v, best) < 0:
            best, ties = v, [j]
        elif cmp(v, best) == 0:
            ties.append(j)
    return best, ties


def _expansion_levels(f, chain, i):
    """The standard expansion f = sum c_j Q_i^j with its stage-i level
    min_j (nu(c_j) + j*beta_i) and the j attaining it.

    Every non-zero c_j is valued before the level is read; when beta_i is
    INF only c_0 counts.  Entry i's kept expansion of this very f is read
    as it is: each c_j has degree below deg Q_i, so its value is the one
    truncated_val(c_j, chain, i - 1) computes.
    """
    entry = chain.entry(i)
    if entry.expansion and entry.expansion[0] is f:
        _, cs, values = entry.expansion
    else:
        cs = standard_expansion(f, entry.poly)
        values = [truncated_val(c, chain, i - 1)[0] for c in cs]
    beta = entry.beta
    level, ties = level_and_ties(
        (j, beta.scale_unchecked(j) + v if j else v) for j, v in enumerate(values))
    return cs, level, ties


def truncated_val(f, chain, i):
    """The stage-i truncated valuation of f and its attaining index set.

    A stage whose polynomial has degree above deg f expands f as [f] and
    passes its value down unchanged, so the value is read at the highest
    stage k <= i with deg Q_k <= deg f, and the index set is [0] when k < i;
    with no such stage, ``chain.entry(0)`` raises IndexError.
    """
    if f.is_zero():
        return INF, []
    d = f.degree()
    if d == 0:
        return f.coeffs[0].val(), [0]
    k = i
    while k >= 1 and chain.entries[k - 1].poly.degree() > d:
        k -= 1
    _, level, ties = _expansion_levels(f, chain, k)
    return (INF, []) if level is None else (level, ties if k == i else [0])


def first_exponent(F):
    """First Newton-polygon slope of a monic polynomial: the root's valuation."""
    d = F.degree()
    if d < 1 or not F.is_monic():
        raise ValueError("need a monic, non-constant polynomial")
    if F.coeff(0).is_exact_zero():
        return INF  # 0 is an exact root

    return level_and_ties((j, F.coeff(j).val() / (d - j))
                          for j in range(d))[0]


def initial_chain(ring, F):
    """The chain start: the bare variable with the polygon's first slope."""
    q1 = ValPoly.variable(ring)
    return _append_with_invariants(KeyPolyChain(ring), q1, first_exponent(F), 1)


def leading_standard_monomial(c, chain, i):
    """The dominant standard monomial a*t^gamma * prod_k Q_k^(e_k) of c through
    stages <= i, as ({k: e_k}, (gamma, a)) with only non-zero e_k.

    Ties resolve to the smallest power of the stage polynomial.
    """
    if c.is_zero():
        raise ZeroPolynomial("no leading monomial of zero")
    if c.degree() == 0:
        return {}, c.coeffs[0].leading_term()
    if i == 0:
        raise EngineInvariantViolation("constant expected at stage 0")
    cs, level, ties = _expansion_levels(c, chain, i)
    if level is None:
        raise ValuationIndeterminate("no determinate monomial")
    j = ties[0]
    exps, lead = leading_standard_monomial(cs[j], chain, i - 1)
    if j:
        exps[i] = j
    return exps, lead


def _monomial_ratio(num, den, chain, i):
    """num / den for leading standard monomials, as a ValPoly
    a*t^gamma * prod_{k=i..1} Q_k^(e_k); den must divide num's shape."""
    (num_e, (g_n, c_n)), (den_e, (g_d, c_d)) = num, den
    out = ValPoly.const(chain.ring.monomial(g_n - g_d, c_n * c_d.inv()))
    for k in range(i, 0, -1):
        e = num_e.get(k, 0) - den_e.get(k, 0)
        if e < 0:
            raise EngineInvariantViolation(
                "monomial ratio outside the polynomial ring")
        if e:
            out = out * (chain.entry(k).poly ** e)
    return out


def extend_chain(chain, F, at):
    """MacLane-style augmentation of the chain from the defining polynomial.

    at(poly, entry=None) reads poly at the current exact partial root
    (``PuiseuxState.eval_at_partial``); the pinned leading coefficients are
    read through it.  Returns the new chain; raises ChainComplete when the
    chain already computes nu(F).  With F = D + Q_i kept (``kept_constant``),
    F's expansion in q_new = Q_i + c*r, for delta 1 and a constant ratio r,
    is (D - c*r, 1).
    """
    ring = chain.ring
    i = len(chain)
    last = chain.entry(i)

    if last.beta is INF:
        raise ChainComplete("the chain ends with an exact divisor of the input")

    cs_new = None
    if last.poly == F:
        q_new, delta = F, 1
    else:
        cs, _, ties = _expansion_levels(F, chain, i)
        if len(ties) < 2:
            raise ChainComplete("the truncated value of the input is already exact")
        j0, j1 = ties[0], ties[1]
        delta = j1 - j0

        lsm0 = leading_standard_monomial(cs[j0], chain, i)
        lsm1 = leading_standard_monomial(cs[j1], chain, i)
        ratio = _monomial_ratio(lsm0, lsm1, chain, i)

        # pinned data: leading coefficients of the stage and ratio at the partial
        q_eval = at(last.poly, last)
        r_eval = at(ratio)
        if not q_eval.terms or not r_eval.terms:
            raise ValuationIndeterminate("stage data not pinned by the partial root")
        res_ell, res_rbar = (ring.coeffs.residue(v.leading_term()[1]) for v in (q_eval, r_eval))
        coeff = -(res_ell ** delta) * res_rbar.inv()
        lifted = ring.const(ring.coeffs.lift(coeff))
        q_new = (last.poly ** delta) + ratio * lifted
        if delta == 1 and not ratio.degree() and (gap := last.kept_constant(F)) is not None:
            # a constant refinement: F = (D - c*r) + q_new, with no division
            cs_new = [ValPoly.const(gap - ratio.coeffs[0] * lifted), last.expansion[1][1]]

    if q_new == F:
        # refresh the defining-polynomial entry against the longer partial
        return _append_with_invariants(chain, F, at(F).val(), alpha=delta)

    # polygon-assigned value: min over j >= 1 of (nu(c_0) - nu(c_j)) / j
    # over the expansion of F in the new polynomial, kept for the next extension
    cs_new = cs_new or standard_expansion(F, q_new)
    v0 = truncated_val(cs_new[0], chain, i)[0]
    beta, expansion = None, None
    if v0 is not INF:
        values = [v0] + [truncated_val(c, chain, i)[0] for c in cs_new[1:]]
        beta, _ = level_and_ties(
            (j, INF if vj is INF else (v0 - vj) / j)
            for j, vj in enumerate(values) if j)
        expansion = (F, tuple(cs_new), tuple(values))
    beta = INF if beta is None else beta
    if cmp(beta, last.beta.scale_unchecked(delta)) <= 0:  # last.beta is finite
        raise EngineInvariantViolation("augmented value does not exceed the previous level")
    return _append_with_invariants(chain, q_new, beta, alpha=delta, expansion=expansion)


def _append_with_invariants(chain, q_new, beta, alpha, expansion=None):
    entry = chain_entry(chain, q_new, beta, alpha, expansion)
    if chain.entries and cmp(entry.epsilon, chain.entries[-1].epsilon) <= 0:
        raise EngineInvariantViolation("epsilon sequence failed to increase strictly")
    return chain.appended(entry)


def derivative_min_check(h, chain, i, vec):
    """Report on the three-way minimum identity at beta = epsilon_i.

    Evaluates nu_i(h) against min over derivative orders a of both the true
    (pullback) and the truncated values of D^a h shifted by a*beta.  The
    true values are read from vec, h's ``TaylorVector`` at the root (a state's
    ``taylor_of``), the truncated ones from h's kept derivatives; nu_i(h) is the
    truncated value at a = 0.  Both minima are read as ``TaylorVector.min_at``
    reads its vector, over the finite values; a minimum with none is None.
    epsilon_i must be finite.
    """
    beta = chain.entry(i).epsilon

    def true_val(ev):
        try:
            return ev.val()
        except ValuationIndeterminate:
            return INF

    def least(values):  # min over a of values[a] + a*beta
        return level_and_ties((a, v + beta.scale_unchecked(a)) for a, v in enumerate(values))[0]

    lhs = truncated_val(h, chain, i)[0]
    mid = least(map(true_val, vec.entries))
    rhs = least([lhs] + [truncated_val(h.hasse_derivative(a), chain, i)[0]
                         for a in range(1, h.degree() + 1)])
    ok = mid is not None and rhs is not None and cmp(lhs, mid) == 0 == cmp(lhs, rhs)
    return {
        "nu_i": lhs,
        "min_true": mid,
        "min_truncated": rhs,
        "equal": ok,
    }
