"""Truncation calculus and integral-dependence identities.

Product truncations decompose (gh)(lambda) into slice-times-truncation
pieces built by the finite sweep over the factors' supports; the Taylor
forms express truncated evaluations as polynomials in the difference of two
truncations of the constructed embedding, and feed the explicit integral
dependence relation for the partial developments.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ChainExhausted, PrecisionExceeded, ValuationIndeterminate
from .groups import INF, cmp, gmin
from .keypoly import level_and_ties, truncated_val
from .series import GenSeries


@dataclass
class TruncationDecomposition:
    lambdas: list  # lambda_0 < ... < lambda_l
    deltas: list   # delta_1 > ... > delta_l

    def tree(self, index, child):
        """The ProductTree over factor ``index`` whose i-th slice meets
        ``child(delta_i)``."""
        return ProductTree(index, [(lo, hi, child(delta)) for lo, hi, delta
                                   in zip(self.lambdas, self.lambdas[1:], self.deltas)])

    def evaluate(self, g, h):
        """(gh)(lambda): the two-factor tree whose slices of g meet truncations of h."""
        return self.tree(0, lambda delta: TruncLeaf(1, delta)).evaluate([g, h])


def product_truncation(g, h, lam):
    """The sweep of Prop caltron: (gh)(lam) = sum of slice-times-truncation.

    Requires v(g) + v(h) < lam and enough stored precision on both factors.
    The sweep stops when no support pair can reach lam; if that happens
    before the lam - v(h) bound, one final slice up to the bound is added so
    the identity holds exactly.

    Step q's next lambda is the first eps in supp g with eps >= lam - theta,
    theta the largest of supp h below lam - lam_q: both indices move one way.
    """
    vg, vh = g.val(), h.val()
    if cmp(vg + vh, lam) >= 0:
        raise ValueError("the product valuation must lie below lambda")
    if not g.knows(lam - vh):
        raise PrecisionExceeded("first factor is too short for the sweep")
    if not h.knows(lam - vg):
        raise PrecisionExceeded("second factor is too short for the sweep")

    supp_g = [e for e, _ in g.terms]
    supp_h = [e for e, _ in h.terms]
    bound = lam - vh
    lambdas = [vg]
    deltas = []
    i, j = len(supp_h), 0  # supp_h[:i] lies below lam - lam_q; supp_g[j] is the eps
    while cmp(lambdas[-1], bound) < 0:
        deltas.append(lam - lambdas[-1])
        while i and cmp(supp_h[i - 1], deltas[-1]) >= 0:
            i -= 1
        while i and j < len(supp_g) and cmp(supp_g[j], lam - supp_h[i - 1]) < 0:
            j += 1
        if not i or j == len(supp_g):
            # final sweep slice up to the bound keeps the identity exact
            lambdas.append(bound)
            break
        lambdas.append(gmin(bound, supp_g[j]))
    return TruncationDecomposition(lambdas, deltas)


@dataclass
class TruncLeaf:
    index: int
    bound: object

    def evaluate(self, factors):
        return factors[self.index].truncate_open(self.bound).exact()


@dataclass
class ProductTree:
    index: int
    pieces: list  # [(lo, hi, child)]

    def evaluate(self, factors):
        ring = factors[self.index].ring
        acc = ring.zero()
        for lo, hi, child in self.pieces:
            acc = acc + factors[self.index].slice(lo, hi).exact() * child.evaluate(factors)
        return acc


def multi_product_truncation(gs, lam, _start=0):
    """Recursive decomposition of (g_1...g_s)(lam) into factor truncations."""
    if _start == len(gs) - 1:
        return TruncLeaf(_start, lam)
    head = gs[_start]
    rest = gs[_start + 1]
    for f in gs[_start + 2:]:
        rest = rest * f
    return product_truncation(head, rest, lam).tree(
        _start, lambda delta: multi_product_truncation(gs, delta, _start + 1))


# -- lambda, U and U0 --------------------------------------------------------------------


@dataclass
class DerivativeLevels:
    lam: object
    U: list
    U0: list
    stage: int


def _derivative_levels(f, beta, state):
    """The derivative level lambda = min over b >= 1 of nu_i(D^b f) + b*beta,
    its argmin U and the T-free part U0, with what they read: the Taylor
    vector of f at the partial (from the least order in U on).  f is a
    ValPoly in the expanded variable, whose kept derivatives D^b f are read;
    the noetherian bound is replaced by the derivative support bound (the
    polynomial degree).

    b lies in U0 when the T-graded minimum of D^b f at epsilon of the stage,
    min over k of nu((D^k D^b f)(partial)) + k*epsilon, is attained at k = 0
    only.  D^k D^b = C(b+k, k) D^(b+k), so that minimum is read from f's
    own vector (``TaylorVector.derivative``).
    """
    chain = state.chain
    i_stage = chain.index_for(beta)
    if i_stage > len(chain):
        raise ChainExhausted("stage index beyond the computed chain")

    lam, U = level_and_ties(
        (b, truncated_val(f.hasse_derivative(b), chain, i_stage)[0] + beta.scale_unchecked(b))
        for b in range(1, f.degree() + 1))
    if lam is None:
        raise ValuationIndeterminate("no determinate derivative level")
    vec = state.taylor_of(f, U[0])  # no order below U is read
    eps = chain.entry(i_stage).epsilon
    U0 = list(U) if eps is INF else [b for b in U if vec.derivative(b).min_at(eps)[1] == [0]]
    return DerivativeLevels(lam, U, U0, i_stage), vec


# -- Taylor forms --------------------------------------------------------------------------


@dataclass
class TaylorForm:
    constant: GenSeries
    monomials: dict  # b in U0 -> leading one-term series of the derivative
    center: GenSeries
    lam: object
    levels: DerivativeLevels

    def relation_value(self):
        """The form at its center: constant + sum of monomial_b * center^b."""
        acc = self.constant
        for b, mono in self.monomials.items():
            acc = acc + mono * (self.center ** b)
        return acc


def taylor_form(f, beta, state, mode="OPEN"):
    """The truncated evaluation as a polynomial in the centered difference.

    mode OPEN reads the open truncation of the embedding at beta (the
    partial development); mode CLOSED reads the closed one.  The constant
    term is the residual after removing the leading derivative monomials.
    Every value at the partial is read from the one Taylor vector of f.
    """
    if mode not in ("OPEN", "CLOSED"):
        raise ValueError(f"mode must be OPEN or CLOSED, not {mode!r}")
    chain = state.chain
    closed = mode == "CLOSED"
    levels, vec = _derivative_levels(f, beta, state)
    lam = levels.lam
    # (D^b f)(partial) for the b in U0 where it is not zero
    leading = {b: vec.entries[b] for b in levels.U0 if not vec.entries[b].is_exact_zero()}

    def truncation_exact(i):
        for b, ev in leading.items():
            if cmp(truncated_val(f.hasse_derivative(b), chain, i)[0], ev.val()) != 0:
                return False
        return True

    # the latest earlier stage whose truncated values of those derivatives
    # are their values at the partial
    i0 = levels.stage - 1
    while i0 >= 1 and not truncation_exact(i0):
        i0 -= 1

    # truncations of the computed embedding are exactly known finite objects
    full = state.partial_series()
    if i0 >= 1:
        eps0 = chain.entry(i0).epsilon
        base = full.truncate_closed(eps0).exact() if eps0 is not INF else full.exact()
    else:
        base = state.ring.zero()
    center_series = _cut(full, beta, closed).exact()
    delta = center_series - base

    monomials = {}
    correction = state.ring.zero()
    for b, ev in leading.items():
        mono = monomials[b] = ev.ring.monomial(*ev.leading_term())
        correction = correction + _cut(mono * (delta ** b), lam, closed)
    constant = _cut(f.eval(center_series), lam, closed) - correction
    return TaylorForm(constant, monomials, delta, lam, levels)


def _cut(series, bound, closed):
    """The closed or open truncation at bound, or the series itself when
    its precision ends first."""
    if not series.knows(bound, closed):
        return series
    return series.truncate_closed(bound) if closed else series.truncate_open(bound)


# -- the integral dependence relation ------------------------------------------------------


@dataclass
class IntegralDependence:
    degree: int
    monomials: dict
    constant: GenSeries
    center: GenSeries
    residual_val: object  # GroupElement or INF
    lam: object


def integral_dependence(beta, state):
    """The explicit monic-up-to-unit relation killing the partial development.

    Evaluates the Taylor-form relation at the centered difference; the
    residual valuation must reach the working precision (indistinguishable
    from zero).
    """
    chain = state.chain
    i_stage = chain.index_for(beta)  # the last entry for INF, when its epsilon is INF
    if beta is INF and i_stage > len(chain):
        i_stage = state.i_beta
    if i_stage > len(chain):
        raise ChainExhausted("stage index beyond the computed chain")
    q_poly = chain.entry(i_stage).poly
    beta_eff = beta if beta is not INF else state.beta
    if beta_eff is INF:
        # use the last finite threshold as the reading point
        eps_prev = [e.epsilon for e in chain.entries if e.epsilon is not INF]
        beta_eff = eps_prev[-1] if eps_prev else chain.entry(1).beta
    form = taylor_form(q_poly, beta_eff, state, mode="OPEN")
    acc = form.relation_value()
    try:
        rv = acc.val()
    except ValuationIndeterminate as err:
        rv = err.bound
    degree = max(form.monomials) if form.monomials else 0
    return IntegralDependence(degree, form.monomials, form.constant,
                              form.center, rv, form.lam)
