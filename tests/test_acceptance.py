"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here.
"""

import math
import random
import time
from fractions import Fraction

from genpuiseux.coeff import FieldTower, WittRing
from genpuiseux.groups import INF, GroupDescriptor, cmp
from genpuiseux.keypoly import (
    ValPoly,
    derivative_min_check,
    taylor_at,
    truncated_val,
)
from genpuiseux.series import GenSeries, SeriesRing
from genpuiseux.embed import BUDGET, COMPLETE, expand
from genpuiseux.truncalg import integral_dependence, product_truncation
from genpuiseux.cli import cmd_expand, cmd_verify, parse_problem


def tring(char=0):
    desc = GroupDescriptor([1])
    tower = FieldTower.prime_field(char) if char else FieldTower.rationals()
    return SeriesRing(desc, tower)


def pring(p, prec=6):
    desc = GroupDescriptor([1])
    return SeriesRing(desc, WittRing(FieldTower.prime_field(p), prec))


def g(R, q):
    return R.descriptor.from_rational(Fraction(q))


def t_pow(R, q, c=1):
    return R.monomial(g(R, q), c)


def _fraction(c):
    """The rational value of a base-constant coefficient, else None."""
    first, *rest = c.tower.leaves(c.rep)
    return None if any(rest) else Fraction(first)


def classical_F(R):
    return ValPoly(R, [-1 * t_pow(R, 3), R.zero(), R.one()])


def artin_schreier_F(R):
    return ValPoly(R, [t_pow(R, 1), t_pow(R, 1), R.one()])


def ok(n, label):
    print(f"ACCEPTANCE {n}: {label} PASS")


def test_criterion_1_classical_puiseux():
    start = time.monotonic()
    R = tring()
    F = classical_F(R)
    res = expand(F, R, max_terms=10)
    assert res.status == COMPLETE
    assert res.series.to_text() == "t^(3/2)"
    assert F.eval(res.series).is_exact_zero()
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"runtime {elapsed:.3f}s"
    ok(1, "classical Puiseux expansion t^(3/2), exact substitution")


def test_criterion_2_wild_ramification():
    start = time.monotonic()
    R = tring(2)
    F = artin_schreier_F(R)
    res = expand(F, R, max_terms=8)
    assert res.status == BUDGET
    exps = [e.rational_value() for e, _ in res.series.terms]
    assert exps == [1 - Fraction(1, 2 ** i) for i in range(1, 9)]
    assert all(c == R.tower.one() for _, c in res.series.terms)
    assert res.series.prec is not INF
    assert res.series.prec.rational_value() >= 1 - Fraction(1, 2 ** 8)
    resid = F.eval(res.state.partial)
    assert resid.val().rational_value() >= 2 - Fraction(1, 2 ** 7)
    eps = [e.epsilon.rational_value() for e in res.chain.entries
           if e.epsilon is not INF]
    assert eps[:3] == [Fraction(1, 2), Fraction(3, 4), Fraction(7, 8)]
    assert all(a < b for a, b in zip(eps, eps[1:]))
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"runtime {elapsed:.3f}s"
    ok(2, "char-2 wild ramification, 8 terms, residual >= 2 - 2^-7, eps chain increasing")


def test_criterion_3_mixed_characteristic():
    for p in (3, 5):
        R = pring(p, prec=6)
        F = ValPoly(R, [-1 * t_pow(R, 1), R.zero(), R.one()])
        res = expand(F, R, max_terms=6)
        assert res.status == COMPLETE
        assert res.series.to_text() == "p^(1/2)"
        sq = res.series * res.series
        assert sq == t_pow(R, 1)
    ok(3, "mixed characteristic sqrt(p) for p in {3,5}, carrying verified")


def _corpus():
    out = []
    R1 = tring()
    out.append((R1, classical_F(R1), 0))
    R2 = tring(2)
    out.append((R2, artin_schreier_F(R2), 2))
    R3 = tring()
    out.append((R3, ValPoly(R3, [-(t_pow(R3, 1) + t_pow(R3, 2)), R3.one()]), 0))
    return out


def test_criterion_4_valuation_preservation():
    rng = random.Random(404)
    for R, F, char in _corpus():
        res = expand(F, R, max_terms=10)
        root = res.state.partial
        chain = res.chain
        last = len(chain)
        checked = 0
        tries = 0
        while checked < 200 and tries < 4000:
            tries += 1
            coeffs = []
            for _ in range(rng.randint(1, 3)):
                c = rng.randint(0, char - 1) if char else rng.randint(-4, 4)
                coeffs.append(t_pow(R, rng.randint(0, 4), c) if c else R.zero())
            h = ValPoly(R, coeffs)
            if h.is_zero():
                continue
            v_chain, _ = truncated_val(h, chain, last)
            ev = h.eval(root)
            if ev.is_exact_zero() or v_chain is INF:
                continue
            try:
                v_emb = ev.val()
            except Exception:
                continue
            if res.status == BUDGET and cmp(v_chain, res.state.beta) >= 0:
                continue
            assert cmp(v_chain, v_emb) == 0, (h.to_text(), v_chain, v_emb)
            checked += 1
        assert checked >= 200
    ok(4, "valuation preservation on 200+ random polynomials per corpus entry")


def test_criterion_5_product_truncation_identity():
    rng = random.Random(505)
    R0, Rp = tring(), tring(3)
    done = 0
    while done < 1000:
        R = R0 if done % 2 == 0 else Rp
        char = 0 if done % 2 == 0 else 3

        def rand_series():
            exps = rng.sample(range(0, 14), rng.randint(1, 6))
            return GenSeries(R, [(g(R, Fraction(e, 2)),
                                  R.coeffs.from_int(rng.randint(1, 9) if not char
                                               else rng.randint(1, 2)))
                                 for e in exps])

        gg, h = rand_series(), rand_series()
        lam = g(R, Fraction(rng.randint(2, 18), 2))
        if cmp(gg.val() + h.val(), lam) >= 0:
            continue
        decomp = product_truncation(gg, h, lam)
        lhs = decomp.evaluate(gg, h)
        rhs = (gg * h).truncate_open(lam)
        assert [t for t in lhs.terms if cmp(t[0], lam) < 0] == list(rhs.terms)
        assert cmp(decomp.lambdas[-1], lam - h.val()) == 0
        assert cmp(decomp.deltas[0], lam - gg.val()) == 0
        done += 1
    ok(5, "product truncation identity bit-exact on 1000 random triples with bounds")


def test_criterion_6_derivative_minimum_identity():
    rng = random.Random(606)
    R = tring(2)
    F = artin_schreier_F(R)
    res = expand(F, R, max_terms=6)
    chain, root = res.chain, res.state.partial
    R0 = tring()
    res0 = expand(classical_F(R0), R0, max_terms=6)
    suites = [(R, chain, root, 2, (1, 2)), (R0, res0.chain, res0.state.partial, 0, (1,))]
    for ring, ch, rt, char, stages in suites:
        for i in stages:
            if ch.entry(i).epsilon is INF:
                continue
            done = 0
            while done < 100:
                coeffs = []
                for _ in range(rng.randint(1, 5)):
                    c = rng.randint(0, char - 1) if char else rng.randint(-3, 3)
                    n = rng.randint(0, 3)
                    coeffs.append(t_pow(ring, n, c) if c else ring.zero())
                h = ValPoly(ring, coeffs)
                if h.is_zero():
                    continue
                done += 1
                rep = derivative_min_check(h, ch, i, taylor_at(h, rt))
                if rep["nu_i"] is INF:
                    continue
                assert rep["equal"], (i, h.to_text(), rep)
    ok(6, "three-way derivative minimum identity, 100+ random polys per chain stage")


def test_criterion_7_integral_dependence():
    R = tring(2)
    F = artin_schreier_F(R)
    res = expand(F, R, max_terms=8)
    for q in (Fraction(7, 8), Fraction(15, 16)):
        rel = integral_dependence(g(R, q), res.state)
        stage = res.chain.index_for(g(R, q))
        assert rel.degree == res.chain.entry(stage).poly.degree()
        assert rel.residual_val is INF or cmp(rel.residual_val, rel.lam) >= 0
    R0 = tring()
    res0 = expand(classical_F(R0), R0, max_terms=6)
    rel0 = integral_dependence(INF, res0.state)
    assert rel0.degree == 2
    assert rel0.residual_val is INF or cmp(rel0.residual_val, rel0.lam) >= 0
    ok(7, "integral dependence relations evaluate to ~0 with degree = max U0")


def test_criterion_8_derivative_laws():
    rng = random.Random(808)
    # Hasse composition in characteristics 0, 2, 3, 5
    for char in (0, 2, 3, 5):
        R = tring(char)
        for _ in range(30):
            deg = rng.randint(0, 6)
            f = ValPoly(R, [t_pow(R, rng.randint(0, 3), rng.randint(0, 6))
                            for _ in range(deg + 1)])
            for a in range(1, 4):
                for b in range(1, 4):
                    lhs = f.hasse_derivative(b)
                    if not lhs.is_zero():
                        lhs = lhs.hasse_derivative(a)
                    h = f.hasse_derivative(a + b)
                    rhs = ValPoly(R, [c * math.comb(a + b, a) for c in h.coeffs], h.var)
                    if lhs.is_zero():
                        assert rhs.is_zero() or all(
                            not c.terms for c in rhs.coeffs)
                    else:
                        assert lhs == rhs
    # Prop 10.1 inequality and Cor 10.15 attainment over the wild chain
    R2 = tring(2)
    F2 = artin_schreier_F(R2)
    res = expand(F2, R2, max_terms=6)
    chain = res.chain
    p = 2
    for i in (1, 2):
        entry = chain.entry(i)
        eps, b_i = entry.epsilon, entry.b_order
        for _ in range(100):
            coeffs = [t_pow(R2, rng.randint(0, 3), rng.randint(0, 1))
                      for _ in range(rng.randint(1, 6))]
            f = ValPoly(R2, coeffs)
            if f.is_zero():
                continue
            vf, s_set = truncated_val(f, chain, i)
            if vf is INF:
                continue
            b = 0
            while p ** b <= f.degree():
                df = f.hasse_derivative(p ** b)
                if not df.is_zero():
                    vd, _ = truncated_val(df, chain, i)
                    if vd is not INF:
                        assert cmp(vf - vd, eps.scale_unchecked(p ** b)) <= 0
                b += 1
            # attainment of the displayed minimum
            best = None
            terms = {}
            for j in range(0, f.degree() + 1):
                order = j * p ** b_i
                dj = f if order == 0 else f.hasse_derivative(order)
                if dj.is_zero():
                    continue
                vd, _ = truncated_val(dj, chain, i)
                if vd is INF:
                    continue
                tot = vd + eps.scale_unchecked(order)
                terms[j] = tot
                if best is None or cmp(tot, best) < 0:
                    best = tot
            assert best is not None and cmp(vf, best) == 0
            for j in s_set:
                if j == 0:
                    continue
                e = 0
                jj = j
                while jj % p == 0:
                    jj //= p
                    e += 1
                if all(j2 % p ** (e + 1) == 0 for j2 in s_set if j2 < j) \
                        and j in terms:
                    assert cmp(terms[j], vf) == 0
    ok(8, "Hasse composition law (chars 0,2,3,5); stage inequality and attainment")


def test_criterion_9_pseries_normal_form():
    rng = random.Random(909)
    p, N = 3, 6
    R = pring(p, prec=N)
    done = 0
    while done < 1000:
        pairs = [(rng.randint(0, 4), rng.randrange(1, p ** N))
                 for _ in range(rng.randint(1, 4))]
        merged = {}
        for n, c in pairs:
            merged[n] = (merged.get(n, 0) + c) % p ** N
        merged = {n: c for n, c in merged.items() if c}
        if not merged:
            continue
        done += 1
        total = sum(c * p ** n for n, c in merged.items())
        f = GenSeries(R, [(g(R, n), R.coeffs.from_int(c)) for n, c in pairs])
        # idempotence
        f2 = GenSeries(R, list(f.terms), f.prec, f.closed)
        assert f2 == f
        # agreement with integer p-adic arithmetic
        rebuilt = 0
        for e, c in f.terms:
            q = e.rational_value()
            rebuilt += int(_fraction(c.digits()[0])) * p ** int(q)
        multi = [n for n, c in merged.items() if c >= p]
        if multi:
            horizon = min(n + N for n in multi)
            assert rebuilt == total % p ** horizon
        else:
            assert rebuilt == total
    ok(9, "p-series normal form idempotent, agrees with integer arithmetic (1000 cases)")


def test_criterion_10_determinism():
    artin = """\
char 2
weights 1
var y
poly y^2 + t*y + t
budget_terms 8
verify all
seed 77
trials 25
"""
    outputs = []
    for _ in range(2):
        spec = parse_problem(artin)
        _, out, _ = cmd_expand(spec, fmt="records")
        _, vout = cmd_verify(spec)
        outputs.append(out + "\n---\n" + vout)
    assert outputs[0] == outputs[1]
    assert outputs[0].encode() == outputs[1].encode()
    ok(10, "byte-identical traces and verification reports across runs")
