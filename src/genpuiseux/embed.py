"""Construction of Puiseux developments by successive partial developments.

The driver is presented with a monic defining polynomial whose root in the
series ring induces the valuation by pullback.  Each step solves the residue
equation read off the exponent-level ties of the Taylor expansion of the
defining polynomial at the current partial root, lifts the chosen root,
advances the exponent through the chain's epsilon thresholds, and extends
the key-polynomial chain at stage boundaries.  Accumulation stages hand off
to a registered closed-form limit pattern and resume past it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .coeff import solve_in_closure
from .errors import (
    ChainComplete,
    EngineInvariantViolation,
    IrreducibleOverRationals,
    UnsupportedLimitPattern,
    ValuationIndeterminate,
)
from .groups import INF, cmp, gmin
from .keypoly import (
    KeyPolyChain,
    TaylorVector,
    ValPoly,
    extend_chain,
    geometric_limit,
    initial_chain,
)
from .series import GenSeries, eval_poly

RUNNING = "RUNNING"
COMPLETE = "COMPLETE"
BUDGET = "BUDGET"
COMPLETE_TRANSCENDENTAL = "COMPLETE_TRANSCENDENTAL"


# -- the base-case embedding --------------------------------------------------------


def monomial_embedding(ring, names):
    """Base-case embedding: each independent variable to its weight monomial."""
    desc = ring.descriptor
    if len(names) > desc.rank:
        raise ValueError("more names than independent weights")
    return {nm: ring.monomial(desc.basis(j)) for j, nm in enumerate(names)}


# -- limit closed forms --------------------------------------------------------------


class LimitPartial:
    """Exact root of a stage polynomial plus finitely many tail terms.

    Evaluation of any polynomial reduces modulo the stage polynomial first
    (exact by construction) and Taylor-expands in the tail.
    """

    def __init__(self, ring, flim, head_terms, next_exp, tails=()):
        self.ring = ring
        self.flim = flim
        self.head_terms = tuple(head_terms)
        self.next_exp = next_exp  # first unmaterialized head exponent
        self.tails = tuple(tails)

    def add_term(self, gamma, c):
        return LimitPartial(self.ring, self.flim, self.head_terms, self.next_exp,
                            self.tails + ((gamma, c),))

    def as_series(self, prec=INF):
        return GenSeries(self.ring, list(self.head_terms) + list(self.tails), prec)

    def coerce(self, ring):
        return LimitPartial(
            ring, self.flim.coerce(ring),
            [(g, ring.coeffs.coerce(c)) for g, c in self.head_terms],
            self.next_exp,
            [(g, ring.coeffs.coerce(c)) for g, c in self.tails])

    def eval_valpoly(self, P):
        """P at head + tail: the values (D^l P mod flim)(head), for l up to
        deg P (only l = 0 without a tail), summed over the tail's powers."""
        head = GenSeries(self.ring, list(self.head_terms), self.next_exp, False)
        values = [self.ring.zero() if dP.is_zero() else dP.divmod_monic(self.flim)[1].eval(head)
                  for dP in map(P.hasse_derivative, range(P.degree() + 1 if self.tails else 1))]
        return eval_poly(values, GenSeries(self.ring, list(self.tails)))


# -- state -----------------------------------------------------------------------------


@dataclass
class PuiseuxState:
    ring: object
    F: ValPoly
    chain: KeyPolyChain
    partial: object  # GenSeries (exact) or LimitPartial
    beta: object
    status: str = RUNNING
    trace: tuple = ()
    emitted: tuple = ()  # (exponent, coefficient) pairs actually added
    note: str = ""
    # F's TaylorVector at the partial; read only while it ``is_of`` both objects
    taylor: TaylorVector = field(default=None, compare=False, repr=False)

    @property
    def i_beta(self):
        """The stage index of beta, the chain's bisection on its epsilons."""
        return self.chain.index_for(self.beta)

    def partial_series(self):
        prec = INF if self.status == COMPLETE else self.beta
        if isinstance(self.partial, LimitPartial):
            return self.partial.as_series(prec)
        if prec is INF:
            return self.partial
        return self.partial.truncate_open(prec)

    def taylor_vector(self):
        """F's ``TaylorVector`` at the partial, evaluated at most once per partial.

        A vector carried from another partial or F (say after a
        ``dataclasses.replace``) is never read: it is evaluated afresh.
        """
        t = self.taylor
        if t is None or not t.is_of(self.F, self.partial):
            t = self.taylor = TaylorVector(self.F, self.partial)
        return t

    def taylor_of(self, poly, lowest=0):
        """poly's ``TaylorVector`` at the partial: the carried one when poly is
        F, else one with the entries below ``lowest`` left as None."""
        if poly == self.F:
            return self.taylor_vector()
        return TaylorVector(poly, self.partial, lowest)

    def eval_at_partial(self, poly, entry=None):
        """poly at the partial, the one reader of values there: F is the Taylor
        head; the key polynomial of an entry that keeps F = D + poly
        (``ChainEntry.kept_constant``) is that head less D when the partial and
        the head are series of raw precision INF, where both readings are one
        exact sum of the same raw terms; any other polynomial is evaluated."""
        if poly == self.F:
            return self.taylor_vector().entries[0]
        D = None if entry is None else entry.kept_constant(self.F)
        if (D is not None and isinstance(self.partial, GenSeries) and self.partial.raw_exact()
                and (head := self.taylor_vector().entries[0]).raw_exact()):
            return head - D
        return poly.eval(self.partial)

    def with_term(self, a):
        """The state whose partial gained a*t^beta, with its Taylor vector."""
        if isinstance(self.partial, LimitPartial):
            return replace(self, partial=self.partial.add_term(self.beta, a), taylor=None)
        taylor = self.taylor_vector().shift(self.ring.monomial(self.beta, a))
        return replace(self, partial=taylor.point, taylor=taylor)

    def with_tower(self, tower):
        """The state over a taller residue tower: the one place where values
        move up, so every value a state holds is over its ring's tower."""
        if tower == self.ring.tower:
            return self
        ring2 = self.ring.with_tower(tower)
        taylor2 = self.taylor_vector().coerce(ring2)
        emitted2 = tuple((g, ring2.coeffs.coerce(c)) for g, c in self.emitted)
        return replace(self, ring=ring2, F=taylor2.poly, chain=self.chain.coerce(ring2),
                       partial=taylor2.point, taylor=taylor2, emitted=emitted2)


def init_state(F, ring):
    """Start of the recursion: zero partial at the polygon's first exponent."""
    chain = initial_chain(ring, F)
    e1 = chain.entry(1)
    state = PuiseuxState(ring=ring, F=F, chain=chain, partial=ring.zero(),
                         beta=e1.beta)
    if e1.beta is INF:
        # zero is an exact root
        return replace(state, status=COMPLETE)
    return state


# -- the residue equation ------------------------------------------------------------


def residual_equation(state):
    """Residue equation for the next coefficient, from the Taylor ties: its
    coefficients over the residue tower, ascending."""
    taylor = state.taylor_vector()
    _, ties = taylor.min_at(state.beta)
    coeffs = state.ring.coeffs
    eq = {l: coeffs.residue(taylor.entries[l].leading_term()[1]) for l in ties}
    return [eq.get(l, state.ring.tower.zero()) for l in range(max(eq) + 1)]


# -- the recursion step -------------------------------------------------------------------


def _record(state, coeff_text, beta_plus, branch, note=""):
    rec = {
        "beta": str(state.beta),
        "coeff": coeff_text,
        "i_beta": state.i_beta,
        "beta_plus": str(beta_plus),
        "branch": branch,
    }
    if note:
        rec["note"] = note
    return state.trace + (rec,)


def step(state):
    """One recursion step: solve the residue equation, lift, advance."""
    if state.status != RUNNING:
        return state

    if state.eval_at_partial(state.F).is_exact_zero():
        return replace(state, status=COMPLETE)

    if len(eq := residual_equation(state)) == 1:  # no root to take: a typed end
        raise EngineInvariantViolation(f"constant residue equation at beta={state.beta}")
    try:
        tower2, root = solve_in_closure(state.ring.tower, eq)
    except IrreducibleOverRationals:
        trace = _record(state, "(no root in permitted towers)", INF, "TERMINAL")
        return replace(state, status=COMPLETE_TRANSCENDENTAL, trace=trace)

    state = state.with_tower(tower2)
    a = state.ring.coeffs.lift(root)

    emitted = state.emitted
    moved = state
    if not root.is_zero():
        moved = state.with_term(a)
        emitted = emitted + ((state.beta, a),)

    coeff_text = root.to_text()
    i_b = state.i_beta
    chain = state.chain
    boundary = (i_b <= len(chain) and chain.entry(i_b).epsilon is not INF
                and cmp(state.beta, chain.entry(i_b).epsilon) == 0)
    if boundary:
        try:
            chain = extend_chain(chain, state.F, moved.eval_at_partial)
        except (ChainComplete, ValuationIndeterminate):
            # stage data exhausted at the working precision: an honest stop
            trace = _record(state, coeff_text, state.beta, "STEP",
                            note="stage-data-exhausted-at-precision")
            return replace(moved, status=BUDGET, trace=trace, emitted=emitted)
    # the advance is capped by the stage threshold but driven by the value the
    # stage polynomial (at a boundary, the new one) attains at the moved partial
    entry = chain.entry(len(chain) if boundary else i_b)
    beta_tilde = moved.eval_at_partial(entry.poly, entry).val()
    eps_tilde = entry.epsilon_for(beta_tilde)[1]
    if beta_tilde is INF and not boundary:
        beta_plus = INF  # the stage polynomial vanishes exactly at the partial
    else:
        beta_plus = gmin(eps_tilde, entry.epsilon)

    if cmp(eps_tilde, state.beta) < 0:
        raise EngineInvariantViolation(f"epsilon-tilde {eps_tilde} fell below beta {state.beta}")
    if cmp(beta_plus, state.beta) <= 0:
        raise EngineInvariantViolation(f"no progress: beta_plus {beta_plus} <= beta {state.beta}")

    trace = _record(state, coeff_text, beta_plus, "STEP")
    new_state = replace(moved, beta=beta_plus, chain=chain, trace=trace,
                        emitted=emitted)
    if beta_plus is INF:
        new_state = replace(new_state, status=COMPLETE)
    return new_state


# -- the limit stage -----------------------------------------------------------------------


def limit_signature(state):
    """(stage polynomial accumulated against, the last exponent step d of
    ``geometric_limit``), or None.

    Detects a geometric exponent stream crawling below the threshold of a
    stage polynomial distinct from the defining polynomial (for the defining
    polynomial itself the accumulation IS the root and the budget governs).
    """
    p = state.ring.char_exponent
    if state.status != RUNNING or len(state.emitted) < 3 or p <= 1:
        return None
    i_b = state.i_beta
    if i_b > len(state.chain):
        return None
    entry = state.chain.entry(i_b)
    if entry.poly == state.F:
        return None
    geo = geometric_limit([e for e, _ in state.emitted[-3:]], p)
    if geo is None:
        return None
    delta, sup = geo
    if cmp(sup, entry.epsilon) > 0 or cmp(state.beta, sup) >= 0:
        return None  # the accumulation passes the threshold, or is already behind us
    return entry.poly, delta


def limit_step(state):
    """Hand off an accumulating exponent stream to a registered closed form.

    The only registered family is the constant-coefficient geometric pattern
    (exponents A - B p^-k).  Identity on states with no detected limit.
    """
    sig = limit_signature(state)
    if sig is None:
        return state
    flim, delta = sig
    ring = state.ring
    p = ring.char_exponent
    last = state.emitted[-3:]
    c_rep = last[-1][1]
    if not all(c == c_rep for _, c in last):
        raise UnsupportedLimitPattern("coefficients do not repeat")

    # verify the stage polynomial's valuations along three extrapolated terms
    head = list(state.emitted)
    check_vals = []
    probe = state.partial
    for _ in range(3):
        delta = delta / p
        nxt = head[-1][0] + delta
        head.append((nxt, c_rep))
        probe = probe + ring.monomial(nxt, c_rep)
        check_vals.append(flim.eval(probe).val())
        if check_vals[-1] is INF:
            break
    else:
        inc1 = check_vals[1] - check_vals[0]
        inc2 = check_vals[2] - check_vals[1]
        if cmp(inc1, inc2.scale_unchecked(p)) != 0:
            raise UnsupportedLimitPattern(
                "stage valuations do not follow the geometric law")

    lp = LimitPartial(ring, flim, head,
                      head[-1][0] + delta / p)
    # past the accumulation the stage is exactly killed; resume at its threshold
    beta_plus = state.chain.entry(state.i_beta).epsilon
    trace = _record(state, "(limit)", beta_plus, "LIMIT")
    return replace(state, partial=lp, beta=beta_plus, trace=trace)


# -- the driver ------------------------------------------------------------------------------


@dataclass
class ExpandResult:
    series: GenSeries
    chain: KeyPolyChain
    trace: tuple
    status: str
    state: PuiseuxState

    def trace_lines(self):
        lines = []
        for r in self.trace:
            line = (f"beta={r['beta']} coeff={r['coeff']} i_beta={r['i_beta']} "
                    f"beta_plus={r['beta_plus']} branch={r['branch']}")
            if "note" in r:
                line += f" note={r['note']}"
            lines.append(line)
        lines.append(f"result={self.series.to_text()} status={self.status}")
        return lines


def expand(F, ring, max_terms=16, max_prec=None):
    """Drive the recursion to completion or budget exhaustion."""
    state = init_state(F, ring)
    guard = 0
    while state.status == RUNNING:
        guard += 1
        if guard > 4 * max_terms + 64:
            raise EngineInvariantViolation("step budget safety valve tripped")
        if len(state.emitted) >= max_terms:
            state = replace(state, status=BUDGET)
            break
        if max_prec is not None and state.beta is not INF \
                and cmp(state.beta, max_prec) > 0:
            state = replace(state, status=BUDGET)
            break
        try:
            limited = limit_step(state)
            if limited is not state:
                state = limited
                continue
        except UnsupportedLimitPattern:
            pass  # no registered closed form: step on, the budget governs
        try:
            state = step(state)
        except ValuationIndeterminate:
            # residual data sank below the p-adic working precision
            state = replace(state, status=BUDGET,
                            note="residual-below-working-precision")
            break
    series = state.partial_series()
    return ExpandResult(series, state.chain, state.trace, state.status, state)

