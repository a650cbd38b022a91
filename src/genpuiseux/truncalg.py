"""Truncation calculus and integral-dependence identities.

Product truncations decompose (gh)(lambda) into slice-times-truncation
pieces built by the finite sweep over the factors' supports; the Taylor
forms express truncated evaluations as polynomials in the difference of two
truncations of the constructed embedding, and feed the explicit integral
dependence relation for the partial developments.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import ChainExhausted, PrecisionExceeded, ValuationIndeterminate
from .groups import INF, cmp, gmin
from .keypoly import level_and_ties, truncated_val
from .series import GenSeries
from .embed import mu_beta_val


def _exact(series):
    """The truncation viewed as an exact finite object (for identity checks)."""
    return GenSeries(series.ring, list(series.terms))


@dataclass
class TruncationDecomposition:
    lambdas: list  # lambda_0 < ... < lambda_l
    deltas: list   # delta_1 > ... > delta_l

    @property
    def length(self):
        return len(self.deltas)

    def evaluate(self, g, h):
        ring = g.ring
        acc = ring.zero()
        for i in range(1, self.length + 1):
            piece = _exact(g.slice(self.lambdas[i - 1], self.lambdas[i]))
            if not piece.terms:
                continue
            acc = acc + piece * _exact(h.truncate_open(self.deltas[i - 1]))
        return acc


def product_truncation(g, h, lam):
    """The sweep of Prop caltron: (gh)(lam) = sum of slice-times-truncation.

    Requires v(g) + v(h) < lam and enough stored precision on both factors.
    The sweep stops when no support pair can reach lam; if that happens
    before the lam - v(h) bound, one final slice up to the bound is added so
    the identity holds exactly.
    """
    vg, vh = g.val(), h.val()
    if cmp(vg + vh, lam) >= 0:
        raise ValueError("the product valuation must lie below lambda")
    if g.prec is not INF and cmp(g.prec, lam - vh) < 0:
        raise PrecisionExceeded("first factor is too short for the sweep")
    if h.prec is not INF and cmp(h.prec, lam - vg) < 0:
        raise PrecisionExceeded("second factor is too short for the sweep")

    supp_g = [e for e, _ in g.terms]
    supp_h = [e for e, _ in h.terms]
    bound = lam - vh
    lambdas = [vg]
    deltas = []
    while cmp(lambdas[-1], bound) < 0:
        lam_q = lambdas[-1]
        deltas.append(lam - lam_q)
        b_q = [eps for eps in supp_g
               if any(cmp(theta + lam_q, lam) < 0 and cmp(lam, theta + eps) <= 0
                      for theta in supp_h)]
        if not b_q:
            # final sweep slice up to the bound keeps the identity exact
            lambdas.append(bound)
            break
        lambdas.append(gmin(bound, *b_q))
    return TruncationDecomposition(lambdas, deltas)


@dataclass
class TruncLeaf:
    index: int
    bound: object

    def evaluate(self, factors):
        return _exact(factors[self.index].truncate_open(self.bound))

    def bounds_used(self, out):
        out.append((self.index, self.bound, "open"))


@dataclass
class ProductTree:
    index: int
    pieces: list  # [(lo, hi, child)]

    def evaluate(self, factors):
        ring = factors[self.index].ring
        acc = ring.zero()
        for lo, hi, child in self.pieces:
            sl = _exact(factors[self.index].slice(lo, hi))
            if not sl.terms:
                continue
            acc = acc + sl * child.evaluate(factors)
        return acc

    def bounds_used(self, out):
        for lo, hi, child in self.pieces:
            out.append((self.index, hi, "slice"))
            child.bounds_used(out)


def multi_product_truncation(gs, lam, _start=0):
    """Recursive decomposition of (g_1...g_s)(lam) into factor truncations."""
    if _start == len(gs) - 1:
        return TruncLeaf(_start, lam)
    head = gs[_start]
    rest = gs[_start + 1]
    for f in gs[_start + 2:]:
        rest = rest * f
    decomp = product_truncation(head, rest, lam)
    pieces = []
    for i in range(1, decomp.length + 1):
        child = multi_product_truncation(gs, decomp.deltas[i - 1], _start + 1)
        pieces.append((decomp.lambdas[i - 1], decomp.lambdas[i], child))
    return ProductTree(_start, pieces)


# -- lambda, U and U0 --------------------------------------------------------------------


@dataclass
class DerivativeLevels:
    lam: object
    U: list
    U0: list
    stage: int


def lambda_and_U(f, beta, state):
    """The derivative level min over b >= 1 with its argmin and the T-free part.

    f: ValPoly in the expanded variable.  The noetherian bound is replaced by
    the derivative support bound (the polynomial degree).
    """
    chain = state.chain
    i_stage = chain.index_for(beta)
    if i_stage > len(chain):
        raise ChainExhausted("stage index beyond the computed chain")

    def level(b):
        vb = truncated_val(f.hasse_derivative(b), chain, i_stage)[0]
        return INF if vb is INF else vb + beta.scale_unchecked(b)

    lam, U = level_and_ties((b, level(b)) for b in range(1, f.degree() + 1))
    if lam is None:
        raise ValuationIndeterminate("no determinate derivative level")
    eps_stage = chain.entry(i_stage).epsilon
    U0 = []
    for b in U:
        db = f.hasse_derivative(b)
        st_eps = replace(state, beta=eps_stage) if eps_stage is not INF else state
        if eps_stage is INF:
            U0.append(b)
            continue
        _, attain = mu_beta_val(db, st_eps)
        if attain == [0]:
            U0.append(b)
    return DerivativeLevels(lam, U, U0, i_stage)


# -- Taylor forms --------------------------------------------------------------------------


@dataclass
class TaylorForm:
    constant: GenSeries
    monomials: dict  # b in U0 -> leading one-term series of the derivative
    center: GenSeries
    lam: object
    levels: DerivativeLevels
    mode: str
    stage_prev: int
    notes: tuple


def _leading_monomial_series(series):
    g, c = series.leading_term()
    return GenSeries(series.ring, [(g, c)])


def taylor_form(f, beta, state, mode="OPEN"):
    """The truncated evaluation as a polynomial in the centered difference.

    mode OPEN reads the open truncation of the embedding at beta (the
    partial development); mode CLOSED reads the closed one.  The constant
    term is the residual after removing the leading derivative monomials.
    """
    chain = state.chain
    levels = lambda_and_U(f, beta, state)
    i_stage = levels.stage
    notes = []
    i0 = i_stage - 1
    while i0 >= 1:
        ok = True
        for b in levels.U0:
            db = f.hasse_derivative(b)
            v_tr, _ = truncated_val(db, chain, i0)
            ev = state.eval_at_partial(db)
            if ev.is_exact_zero():
                continue
            if v_tr is INF or cmp(v_tr, ev.val()) != 0:
                ok = False
                break
        if ok:
            break
        i0 -= 1
    if i0 == i_stage - 1:
        notes.append("conditions (3)-(4) vacuous: immediate predecessor chosen")
    if i0 < 1:
        i0 = 0

    # truncations of the computed embedding are exactly known finite objects
    full = state.partial_series(INF) if state.status == "COMPLETE" else \
        state.partial_series(state.beta)
    if i0 >= 1:
        eps0 = chain.entry(i0).epsilon
        base = _exact(full.truncate_closed(eps0)) if eps0 is not INF else _exact(full)
    else:
        base = GenSeries(state.ring, [], INF, False)

    if mode == "OPEN":
        center_series = _exact(full.truncate_open(beta)) if _within(full, beta, False) \
            else _exact(full)
    else:
        center_series = _exact(full.truncate_closed(beta)) if _within(full, beta, True) \
            else _exact(full)
    delta = center_series - base

    ev = f.eval(center_series)
    if mode == "OPEN":
        trunc_ev = ev.truncate_open(levels.lam) if _within(ev, levels.lam, False) else ev
    else:
        trunc_ev = ev.truncate_closed(levels.lam) if _within(ev, levels.lam, True) else ev

    monomials = {}
    correction = state.ring.zero()
    for b in levels.U0:
        db = f.hasse_derivative(b)
        emb = state.eval_at_partial(db)
        if emb.is_exact_zero():
            continue
        mono = _leading_monomial_series(emb)
        monomials[b] = mono
        term = mono * (delta ** b)
        if mode == "OPEN":
            if term.prec is INF or cmp(term.prec, levels.lam) >= 0:
                term = term.truncate_open(levels.lam)
        else:
            try:
                term = term.truncate_closed(levels.lam)
            except PrecisionExceeded:
                pass
        correction = correction + term
    constant = trunc_ev - correction
    return TaylorForm(constant, monomials, delta, levels.lam, levels, mode,
                      i0, tuple(notes))


def _within(series, bound, closed):
    if series.prec is INF:
        return True
    s = cmp(bound, series.prec)
    return s < 0 or (s == 0 and (series.closed or not closed))


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
    if beta is not INF:
        i_stage = chain.index_for(beta)
    elif chain.entries[-1].epsilon is INF:
        i_stage = len(chain)
    else:
        i_stage = state.i_beta
    if i_stage > len(chain):
        raise ChainExhausted("stage index beyond the computed chain")
    q_poly = chain.entry(i_stage).poly
    if beta is INF:
        # use the last finite threshold as the reading point
        beta_eff = state.beta if state.beta is not INF else None
        if beta_eff is None:
            eps_prev = [e.epsilon for e in chain.entries if e.epsilon is not INF]
            beta_eff = eps_prev[-1] if eps_prev else chain.entry(1).beta
    else:
        beta_eff = beta
    form = taylor_form(q_poly, beta_eff, state, mode="OPEN")
    acc = form.constant
    for b, mono in form.monomials.items():
        term = mono * (form.center ** b)
        acc = acc + term
    if acc.is_exact_zero():
        rv = INF
    else:
        try:
            rv = acc.val()
        except ValuationIndeterminate as err:
            rv = err.bound if err.bound is not None else INF
    degree = max(form.monomials) if form.monomials else 0
    return IntegralDependence(degree, form.monomials, form.constant,
                              form.center, rv, form.lam)
