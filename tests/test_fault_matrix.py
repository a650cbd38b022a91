"""Which wrong root each ``verify`` check sees: the fault matrix.

Five problems expand at budget 8.  Each root takes nine single faults, one at
a time: a coefficient plus 1, a term dropped, or an exponent moved to the
midpoint with the next one (the series' precision after the last term), each
on the second, the middle or the last term.  The faulted root goes, by
``dataclasses.replace``, into the final state's partial, so the Taylor vector
the state carries is stale and must be evaluated afresh.  All six checks then
run on that state with ``random.Random(0)`` and 4 trials.

The pinned matrix: ``ent`` sees all 45 faults; ``taylor`` sees the 30 faults
off the last term, since each form reads the partial's open truncation at an
epsilon_i below beta, and the last term sits at the largest of them;
``caltron``, ``prodfini`` and ``stab`` read the root at most through
identities that hold for any series; ``min`` reads h's graded minimum at the
first two finite epsilon_i, which a change of the root at or above epsilon_2
leaves as it is, and every fault here is there (the second term sits at
epsilon_2 on each problem).

The chain-fault rows: each chain takes six single faults, one at a time:
epsilon_i or beta_i moved halfway to entry i+1's, at the second, the middle
or the next-to-last entry, which keeps the epsilons strictly increasing.  The
faulted chain goes into the final state's chain.  Only
``ent`` sees any: the moved epsilon_2 on each problem, where its relation for
Q_2, read at the moved point, falls short of lambda.  ``taylor`` reads F's
forms, and every entry past the second re-pins F; F's forms and relations
hold at any reading point below the partial's precision.  Q_2 already has
F's degree, so a beta_i with i >= 2 is read only for a polynomial of that
degree or more: ``min``'s random h, whose stage-2 value sits at the constant
term of its expansion in Q_2, where beta_2 does not enter.

No ``ent`` reading of the 75 faulted states has an empty set of monomials,
or a top derivative, at the largest order of U0, that vanishes at the
partial: a test of either would catch no fault here.
"""

import random
from dataclasses import replace
from fractions import Fraction
from functools import cmp_to_key

import pytest

from genpuiseux import cli
from genpuiseux.groups import INF, cmp
from genpuiseux.keypoly import KeyPolyChain
from genpuiseux.series import GenSeries
from genpuiseux.truncalg import integral_dependence

PROBLEMS = {
    "as-f2": "char 2\npoly y^2 + t*y + t\n",
    "sq-q": "char 0\npoly y^2 - 1 - t\n",
    "cube-q": "char 0\npoly y^3 - t - t^2\n",
    "sq-f3": "char 3\npoly y^2 - 2*t - t^2\n",
    "cusp-f3": "char 3\npoly y^3 - t*y - t\n",
}
PLACES = ("second", "middle", "last")
KINDS = ("coeff+1", "drop", "exp-mid")
ENTRIES = ("second", "middle", "next-to-last")
FIELDS = ("epsilon", "beta")


def faults(series):
    """{(kind, place): the faulted terms} for the nine single faults."""
    terms = list(series.terms)
    n = len(terms)
    out = {}
    for place, j in zip(PLACES, (1, n // 2, n - 1)):
        g, c = terms[j]
        nxt = terms[j + 1][0] if j + 1 < n else series.prec
        for kind, new in (("coeff+1", [(g, c + series.ring.coeffs.one())]), ("drop", []),
                          ("exp-mid", [((g + nxt).scale_unchecked(Fraction(1, 2)), c)])):
            out[kind, place] = terms[:j] + new + terms[j + 1:]
    return out


def chain_faults(chain):
    """{(field, place): the chain with that entry's epsilon or beta moved
    halfway to the next entry's} for the six single faults."""
    n = len(chain)
    out = {}
    for place, i in zip(ENTRIES, (1, n // 2, n - 2)):
        entry, nxt = chain.entries[i], chain.entries[i + 1]
        for name in FIELDS:
            moved = (getattr(entry, name) + getattr(nxt, name)) / 2
            entries = list(chain.entries)
            entries[i] = replace(entry, **{name: moved})
            out[name, place] = KeyPolyChain(chain.ring, entries)
    return out


def _failing(state):
    """The checks that fail on state, each with ``random.Random(0)`` and 4 trials."""
    return [check for check, run in cli._CHECKS.items() if not run(state, random.Random(0), 4)[0]]


def _solved(name):
    return cli.run_expand(cli.parse_problem(PROBLEMS[name]), 8).state


def _root_faulted(name):
    """{(kind, place): the final state with that fault in its partial}."""
    state = _solved(name)
    s = state.partial_series()
    assert len(s.terms) == 8
    out = {}
    for fault, terms in faults(s).items():
        bad = out[fault] = replace(state, partial=GenSeries(s.ring, terms))
        assert bad.taylor is not None and not bad.taylor.is_of(bad.F, bad.partial)
    return out


def _chain_faulted(name):
    """{(field, place): the final state with that fault in its chain}."""
    state = _solved(name)
    out = {}
    for fault, chain in chain_faults(state.chain).items():
        eps = [e.epsilon for e in chain.entries]
        assert all(cmp(a, b) < 0 for a, b in zip(eps, eps[1:]))
        out[fault] = replace(state, chain=chain)
    return out


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_fault_matrix(name):
    caught = {fault: _failing(bad) for fault, bad in _root_faulted(name).items()}
    assert caught == {(kind, place): ["ent"] if place == "last" else ["ent", "taylor"]
                      for kind in KINDS for place in PLACES}


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_the_blind_spots_sit_at_an_epsilon(name):
    """Why the matrix reads as it does.  The second term, the first that a
    fault touches, sits at epsilon_2, the higher of the two thresholds that
    ``min`` reads its graded minima at.  The last term sits at the largest
    epsilon_i below beta, where ``taylor`` reads its last form on the open
    truncation of the partial, which leaves that term out."""
    res = cli.run_expand(cli.parse_problem(PROBLEMS[name]), 8)
    eps = [e.epsilon for e in res.chain.entries]
    assert cmp(res.series.terms[1][0], eps[1]) == 0 and cmp(eps[0], eps[1]) < 0
    below = [e for e in eps if e is not INF and cmp(e, res.state.beta) < 0]
    assert cmp(res.series.terms[-1][0], max(below, key=cmp_to_key(cmp))) == 0


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_chain_fault_matrix(name):
    caught = {fault: _failing(bad) for fault, bad in _chain_faulted(name).items()}
    assert caught == {(field, place): ["ent"] if (field, place) == ("epsilon", "second") else []
                      for field in FIELDS for place in ENTRIES}


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_the_chain_blind_spots_are_re_pins_of_F(name):
    """Why the chain rows read as they do: every entry past the second is
    F itself, and Q_2 has F's degree."""
    res = cli.run_expand(cli.parse_problem(PROBLEMS[name]), 8)
    F, polys = res.state.F, [e.poly for e in res.chain.entries]
    assert len(polys) == 9 and polys[1] != F and polys[1].degree() == F.degree()
    assert all(q == F for q in polys[2:])


# the ent readings of each problem's 15 faulted states, up to ent's first
# failing one: 505 over the five problems
ENT_READINGS = 101


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_no_ent_reading_of_a_fault_loses_its_top_derivative(name):
    """Each ``ent`` reading of a faulted state has monomials, and its top
    derivative, at the largest order of U0, does not vanish at the partial."""
    readings = 0
    for bad in [*_root_faulted(name).values(), *_chain_faulted(name).values()]:
        for form, residual in cli._stage_readings(bad, integral_dependence, with_beta=True):
            assert form.monomials and max(form.levels.U0) in form.monomials
            readings += 1
            if cmp(residual, form.lam) < 0:  # ent reads no further
                break
    assert readings == ENT_READINGS
