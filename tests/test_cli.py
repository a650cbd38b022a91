import math
import os
import re
import subprocess
import sys
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

import genpuiseux
from genpuiseux import cli, coeff, truncalg
from genpuiseux.cli import (
    ALL_CHECKS,
    _is_prime,
    build_ring,
    build_valpoly,
    cmd_arith,
    cmd_expand,
    cmd_verify,
    main,
    parse_problem,
    read_poly,
    run_expand,
)
from genpuiseux.embed import expand, monomial_embedding
from genpuiseux.errors import ParseError, ValuationIndeterminate
from genpuiseux.keypoly import ValPoly
from genpuiseux.series import MAX_NESTING, parse_series
from genpuiseux.truncalg import integral_dependence

CLASSICAL = """\
char 0
weights 1
var y
poly y^2 - t^3
budget_terms 10
verify all
seed 11
trials 30
"""

ARTIN = """\
char 2
weights 1
var y
poly y^2 + t*y + t
budget_terms 8
verify caltron,min,ent
seed 11
trials 30
"""

MIXED = """\
p 5
weights 1
var y
poly y^2 - p
witt_prec 6
budget_terms 6
verify off
"""

ARITH = """\
char 0
weights 1
let f = 1 + t
let g2 = 1 - t
print f*g2
print inv(f, 3)
print trunc_open(f, 1)
"""

ARITH_PADIC = """\
p 2
weights 1
witt_prec 5
let f = 3*p^(1/2)
print f
"""


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_parse_problem_roundtrip_fields():
    spec = parse_problem(CLASSICAL)
    assert spec.p is None
    assert spec.char == 0
    assert spec.poly_text == "y^2 - t^3"
    assert spec.budget_terms == 10
    assert spec.verify == ("caltron", "prodfini", "stab", "min", "ent", "taylor")


def test_parse_problem_errors_have_positions():
    with pytest.raises(ParseError) as err:
        parse_problem("char 0\nbogus_key 1\npoly y - t\n")
    assert "line 2" in str(err.value)
    with pytest.raises(ParseError):
        parse_problem("char 0\n")  # missing poly
    with pytest.raises(ParseError, match="bad value for 'max_prec': '1/0' at line 2$"):
        parse_problem("char 0\nmax_prec 1/0\npoly y - t\n")
    with pytest.raises(ParseError, match="^expected 'key value' at line 2$"):
        parse_problem("char 0\nbudget_terms  # no value\npoly y - t\n")


def _read(text):
    """read_poly over Q, with the series variable t and the main variable y."""
    ring = build_ring(parse_problem("char 0\npoly y\n"))
    return read_poly(ring, text, monomial_embedding(ring, ["t"]), "y")


def _valpoly(terms):
    """The ValPoly sum of c*t^a*y^k over {(a, k): c}, over the ring of _read."""
    ring = build_ring(parse_problem("char 0\npoly y\n"))
    coeffs = [ring.zero()] * (max(k for _, k in terms) + 1)
    for (a, k), c in terms.items():
        coeffs[k] = coeffs[k] + ring.monomial(ring.descriptor.from_rational(a), c)
    return ValPoly(ring, coeffs)


def test_parse_poly_expressions():
    assert _read("y^2 - t^3") == _valpoly({(0, 2): 1, (3, 0): -1})
    got = _read("(y^2 - t^3)^2 - t^7")
    assert got == _valpoly({(0, 4): 1, (3, 2): -2, (6, 0): 1, (7, 0): -1})
    got = _read("y^2 + t*y + t")
    assert got == _valpoly({(0, 2): 1, (1, 1): 1, (1, 0): 1})


def test_negative_exponents_are_parse_errors(tmp_path, capsys):
    with pytest.raises(ParseError, match="exponents must be non-negative integers"):
        _read("y^2 + y + t^-1")
    spec = write(tmp_path, "neg.spec", "char 0\npoly y^2 + y + t^-1\n")
    assert main(["expand", spec]) == 2
    assert "exponents must be non-negative integers" in capsys.readouterr().err
    # a negative power never reaches the series power loop
    for power in ("t^-1", "t^(-1)", "t^(-1/2)"):
        with pytest.raises(ParseError, match="powers must be non-negative at line 2"):
            cmd_arith(f"char 0\nlet a = {power}\nprint a\n")
    arith = write(tmp_path, "neg.arith", "char 0\nlet a = t^-1\n")
    assert main(["arith", arith]) == 2
    assert "powers must be non-negative" in capsys.readouterr().err


def test_expression_literals_and_signed_arguments():
    out = cmd_arith("char 0\nprint trunc_open(-t + t^2, 2)\n"
                    "print trunc_open(1 + t, - 1)\nprint t^(1/2)\n")
    assert out.splitlines() == ["-t + O(t^2)", "O(t^-1)", "t^(1/2)"]
    with pytest.raises(ParseError, match="bad number '3/0' at line 2, col 1"):
        cmd_arith("char 0\nprint 3/0\n")
    with pytest.raises(ParseError, match="bad number ''"):
        cmd_arith("char 0\nprint t^\n")
    with pytest.raises(ParseError, match="bad number ''"):
        _read("y^")


def test_parenthesized_powers_in_a_poly_line(tmp_path, capsys):
    assert _read("y^(3) - t^(2)") == _read("y^3 - t^2")
    assert _read("y^(2) + t^( 3/1 )") == _read("y^2 + t^3")
    with pytest.raises(ParseError, match="exponents must be non-negative integers"):
        _read("y^2 - t^(1/2)")
    outs = []
    for poly in ("y^3 - t^(2)", "y^3 - t^2"):
        spec = write(tmp_path, "p.spec", f"char 0\n\npoly {poly}\n")
        assert main(["expand", spec]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def test_poly_line_errors_name_their_position(tmp_path, capsys):
    with pytest.raises(ParseError, match="bad number '' at line 3, col 9"):
        cmd_expand(parse_problem("char 0\n# the curve\npoly y^3 - t^x\n"))
    with pytest.raises(ParseError, match="unknown variable 'x' at line 2, col 7"):
        cmd_expand(parse_problem("char 0\npoly y^3 - x\n"))
    spec = write(tmp_path, "bad.spec", "char 0\nbudget_terms 4\npoly y^3 - t^x\n")
    assert main(["expand", spec]) == 2
    assert capsys.readouterr().err == "parse error: bad number '' at line 3, col 9\n"


def test_unknown_names_are_reported_at_their_first_column():
    with pytest.raises(ParseError, match="unknown variable 'zz' at line 3, col 9$"):
        cmd_expand(parse_problem("char 0\n\npoly y^2 + t*zz\n"))
    with pytest.raises(ParseError, match="unknown name 'zz' at line 2, col 5$"):
        cmd_arith("char 0\nprint 1 + zz\n")
    with pytest.raises(ParseError, match="unknown name 'b' at line 3, col 4$"):
        cmd_arith("char 0\nlet a = t\nprint a*(b + 1)\n")


def test_let_binds_one_name_other_than_the_variable():
    for statement in ("let t = 1 + t", "let a b = t^2", "let = t", "let 2a = t",
                      "let a-b = t", "let a(1) = t"):
        with pytest.raises(ParseError,
                           match="let binds one name other than 't'.* at line 2$"):
            cmd_arith(f"char 0\n{statement}\nprint t\n")
    # every name an expression reads back binds, the old variable's name too
    out = cmd_arith("char 0\nlet a_1 = t^2\nlet B2 = a_1 + 1\nprint B2\n"
                    "series_var u\nlet t = u^(1/2)\nprint t * t\n")
    assert out.splitlines() == ["1 + t^2", "u"]


def test_cmd_expand_classical():
    spec = parse_problem(CLASSICAL)
    code, out, res = cmd_expand(spec)
    assert code == 0
    assert "series: t^(3/2)" in out
    assert "status: COMPLETE" in out
    assert "1: Q_1=y beta=3/2" in out


def test_cmd_expand_records_format():
    spec = parse_problem(ARTIN)
    code, out, res = cmd_expand(spec, fmt="records")
    lines = out.splitlines()
    assert lines[0].startswith("beta=1/2 coeff=1 i_beta=1 beta_plus=3/4 branch=STEP")
    assert any(l.startswith("result=") and "status=BUDGET" in l for l in lines)
    assert any(l.startswith("chain 1: Q_1=y") for l in lines)


def test_each_expansion_solves_its_own_first_equation(monkeypatch):
    """A solve is kept on the tower it ran over, and every spec builds fresh
    towers, so a second expansion of one spec factors its equations again."""
    import genpuiseux.coeff as coeff

    calls, real = [], coeff.factor_poly
    monkeypatch.setattr(coeff, "factor_poly", lambda *args: calls.append(args) or real(*args))
    spec = parse_problem(ARTIN)
    first = run_expand(spec).series.to_text()
    n = len(calls)
    assert n >= 1 and run_expand(spec).series.to_text() == first
    assert len(calls) == 2 * n
    (t0, eq0), (t1, eq1) = calls[0], calls[n]
    assert t1 == t0 and t1 is not t0 and [c.rep for c in eq1] == [c.rep for c in eq0]


def test_cmd_expand_mixed():
    spec = parse_problem(MIXED)
    code, out, res = cmd_expand(spec)
    assert "series: p^(1/2)" in out
    assert "status: COMPLETE" in out


def test_cmd_verify_all_pass():
    for text in (CLASSICAL, ARTIN):
        spec = parse_problem(text)
        code, out = cmd_verify(spec)
        assert code == 0
        for line in out.splitlines():
            assert "status=PASS" in line


def _binomial(a, k):
    return math.prod((a - j for j in range(k)), start=Fraction(1)) / math.factorial(k)


@pytest.mark.parametrize("poly, coeffs", [
    ("y^6 - t", [1]),
    # t^(1/6) (1 + t)^(1/6): the binomial coefficients of exponent 1/6
    ("y^6 - t - t^2", [_binomial(Fraction(1, 6), k) for k in range(6)]),
], ids=["pure", "binomial"])
def test_rational_root_kept_when_the_cofactor_is_outside_the_shapes(poly, coeffs):
    # X^6 - 1 has the roots 1 and -1; its cofactor X^4 + X^2 + 1 has no
    # whitelisted shape, and the roots found before it still count
    spec = parse_problem(f"char 0\npoly {poly}\nverify all\n")
    code, out, _ = cmd_expand(spec, fmt="records", budget=6)
    assert code == 0
    steps = [line for line in out.splitlines() if line.startswith("beta=")]
    assert [line.split()[1] for line in steps] == [f"coeff={c}" for c in coeffs]
    assert all(line.endswith("branch=STEP") for line in steps)
    assert ("status=COMPLETE" if len(coeffs) == 1 else "status=BUDGET") in out
    code, out = cmd_verify(spec)
    assert code == 0 and out.count("status=PASS") == 6


def test_cmd_verify_corruption_fails(monkeypatch):
    # the development with its first coefficient bumped by one is no root
    def corrupted(spec, budget=None, prec=None):
        res = run_expand(spec, budget, prec)
        ring = res.series.ring
        bumped = res.series + ring.monomial(res.series.terms[0][0], ring.coeffs.one())
        return replace(res, series=bumped, state=replace(res.state, partial=bumped))

    monkeypatch.setattr(cli, "run_expand", corrupted)
    spec = parse_problem(ARTIN)
    code, out = cmd_verify(spec)
    assert code == 1
    assert any("status=FAIL" in line for line in out.splitlines())


def _empty_tree(gs, lam):
    """A product tree with no pieces: it evaluates to 0."""
    return truncalg.ProductTree(0, [])


def _offset_form(f, beta, state, mode="OPEN"):
    """taylor_form's form with 1 added to its constant term."""
    form = truncalg.taylor_form(f, beta, state, mode)
    return replace(form, constant=form.constant + state.ring.one())


@pytest.mark.parametrize("check, name, wrong", [
    ("caltron", "multi_product_truncation", _empty_tree),
    ("prodfini", "multi_product_truncation", _empty_tree),
    ("stab", "multi_product_truncation", _empty_tree),
    ("taylor", "taylor_form", _offset_form),
])
def test_each_verify_check_fails_on_a_wrong_tree_or_form(monkeypatch, check, name, wrong):
    # every check's failing branch is reachable: what it reads from truncalg
    # gives a tree that evaluates to zero, or a form off by 1 below lambda
    spec = parse_problem(ARTIN.replace("verify caltron,min,ent", f"verify {check}"))
    code, out = cmd_verify(spec)
    assert (code, out.split()[:2]) == (0, [f"check={check}", "status=PASS"])
    monkeypatch.setattr(cli, name, wrong)
    code, out = cmd_verify(spec)
    assert code == 1
    assert out.startswith(f"check={check} status=FAIL ")


def test_verify_leaves_out_a_stage_reading_that_raises():
    # the last threshold equals beta (1); the relation read there finds the
    # series zero to the 3-adic working precision, so ent reads only the two
    # thresholds below it and passes
    spec = parse_problem("p 3\nwitt_prec 4\npoly y^3 - p*y - p\nbudget_terms 6\n"
                         "verify ent\ntrials 6\n")
    res = run_expand(spec)
    eps = [e.epsilon for e in res.chain.entries]
    assert [e.rational_value() for e in eps] == [Fraction(1, 3), Fraction(4, 9), 1]
    with pytest.raises(ValuationIndeterminate):
        integral_dependence(eps[-1], res.state)
    read = list(cli._stage_readings(res.state, integral_dependence, with_beta=True))
    assert [r.lam for r in read] == [integral_dependence(e, res.state).lam for e in eps[:2]]
    assert cmd_verify(spec) == (0, "check=ent status=PASS residual_val=1/3")


def test_cmd_verify_off_is_empty():
    spec = parse_problem(MIXED)
    code, out = cmd_verify(spec)
    assert code == 0
    assert out == ""


def test_cmd_arith():
    out = cmd_arith(ARITH)
    lines = out.splitlines()
    assert lines[0] == "1 - t^2"
    assert lines[1] == "1 - t + t^2 + O(t^3)"
    assert lines[2] == "1 + O(t)"


def test_cmd_arith_padic_carrying():
    out = cmd_arith(ARITH_PADIC)
    # carried normal form; the O-term flags the mod-p^N knowledge horizon
    assert out.splitlines()[0].startswith("p^(1/2) + p^(3/2)")


def test_arith_power_terms_are_bounded_before_the_power_is_formed(tmp_path, capsys):
    spec = write(tmp_path, "power.spec", "weights 1\nchar 0\nprint (1+t)^2000\n")
    start = time.perf_counter()
    assert main(["arith", spec]) == 2
    assert time.perf_counter() - start < 1.0
    assert ("a power of up to 2001 terms is above the limit 512 at line 3, col 6"
            in capsys.readouterr().err)
    # at the limit, and a base whose exponents span 2: bound 64*2 + 1
    for power, lead in (("(1+t)^511", "1 + 511*t + 130305*t^2"),
                        ("(1+t+t^2)^64", "1 + 64*t + 2080*t^2")):
        assert cmd_arith(f"char 0\nprint {power}\n").startswith(lead)
    # rank 2: arith exponents are multiples of the first basis element, so
    # the rank-1 bound holds: (1+t+t^2)^31 has 63 terms, (1+t)^512 has 513
    rank2 = "char 0\nweights 1 0+1*sqrt(2)\nsqrt_disc 2\nprint {}\n"
    out = cmd_arith(rank2.format("(1+t+t^2)^31"))
    assert out.startswith("1 + 31*t + 496*t^2") and out.endswith(" + 31*t^61 + t^62")
    assert len(out.split(" + ")) == 63
    with pytest.raises(ParseError, match="a power of up to 513 terms is above the limit 512"):
        cmd_arith(rank2.format("(1+t)^512"))


@pytest.mark.parametrize("command, text, col", [
    ("expand", "char 0\npoly y - {}\n", 4100),
    ("arith", "char 0\nprint {}\n", 4096),
])
def test_long_products_end_at_the_term_limit(tmp_path, capsys, command, text, col):
    # the 512th factor of (1 + t) would make 513 terms: refused before it is formed
    spec = write(tmp_path, "chain.txt", text.format("*".join(["(1 + t)"] * 1600)))
    start = time.perf_counter()
    assert main([command, spec]) == 2
    assert time.perf_counter() - start < 2.0
    assert capsys.readouterr().err == ("parse error: a product of up to 513 terms is above "
                                       f"the limit 512 at line 2, col {col}\n")


def test_sparse_poly_products_pass_the_term_limit():
    # each count is the lesser of the ways to pick terms and the exponents'
    # lattice: 4 and 129 picks here, though the lattices span 601 and 641
    assert _read("(y - t^300)*(y + t^300)") == _valpoly({(0, 2): 1, (600, 0): -1})
    assert _read("(y - 1)*(y - t^600)") == _valpoly({(0, 2): 1, (600, 1): -1, (0, 1): -1,
                                                     (600, 0): 1})
    got = _read("(y - t^5)^128")
    assert got == _valpoly({(5 * (128 - k), k): (-1) ** (128 - k) * math.comb(128, k)
                            for k in range(129)})
    # ten factors (1 + t^(100*2^i)) would make 1024 terms, the lattice's count too
    chain = "*".join(f"(1 + t^{100 * 2 ** i})" for i in range(10))
    with pytest.raises(ParseError, match="a product of up to 1024 terms is above the limit"):
        _read(f"y - {chain}")
    assert len(_read(f"y - {chain[:chain.rindex('*')]}").coeffs[0].terms) == 512


def test_main_exit_codes(tmp_path):
    good = write(tmp_path, "good.spec", CLASSICAL)
    bad = write(tmp_path, "bad.spec", "char 0\nnonsense\n")
    assert main(["expand", good]) == 0
    assert main(["expand", bad]) == 2
    assert main(["expand", str(tmp_path / "missing.spec")]) == 2


def test_main_engine_error_exits_1(tmp_path, capsys):
    path = write(tmp_path, "beyond.txt", "char 0\nprint trunc_open(inv(1 + t, 2), 3)\n")
    assert main(["arith", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "engine error: open truncation beyond stored precision\n"


def test_a_split_without_a_witness_is_an_engine_error(tmp_path, capsys, monkeypatch):
    # the residue equation X^2 - 1 over F3 has two roots, so factor_poly must split
    monkeypatch.setattr(coeff, "_witness_candidates", lambda tower, degree: iter(()))
    path = write(tmp_path, "split.spec", "char 3\npoly y^2 - 1 - t\n")
    assert main(["expand", path]) == 1
    captured = capsys.readouterr()
    assert captured.err == "engine error: equal-degree split found no separating witness\n"


@pytest.mark.parametrize("zero", ["t - t", "z"])
def test_inv_of_the_exact_zero_is_an_engine_error(tmp_path, capsys, zero):
    # v(0) is inf, and the zero series has no inverse at any precision
    path = write(tmp_path, "inv0.txt", f"char 0\nlet z = 0\nprint inv({zero}, 3)\n")
    assert main(["arith", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "engine error: inverse of the zero series\n"


@pytest.mark.parametrize("text, beta", [
    ("p 2\npoly (y - p)^2 - p^4*y\n", "3"),
    ("p 2\nwitt_prec 8\npoly (y - 1)^2 - p^3*y\n", "2"),
])
def test_a_constant_residue_equation_is_an_engine_error(tmp_path, capsys, text, beta):
    # the step passes the Newton slope of a double root in Z_2, and only T^0
    # ties: no root to take, a typed end rather than a bare ValueError
    start = time.monotonic()
    assert main(["expand", write(tmp_path, "p2.spec", text)]) == 1
    assert time.monotonic() - start < 2.0
    captured = capsys.readouterr()
    assert captured.err == f"engine error: constant residue equation at beta={beta}\n"


def test_the_equal_characteristic_analogue_still_expands(tmp_path, capsys):
    assert main(["expand", write(tmp_path, "t2.spec", "char 2\npoly (y - t)^2 - t^4*y\n")]) == 0
    assert "status: BUDGET" in capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("text, status, series", [
    ("char 0\npoly y^2 - 1267650600228229401496703205376*t\n",  # 2^100: a huge constant
     "COMPLETE", "1125899906842624*t^(1/2)"),
    ("char 1000000007\npoly y^2 - 1 - t\n", "BUDGET", None),  # a huge prime field
])
def test_large_numbers_expand_within_a_second(tmp_path, capsys, text, status, series):
    spec = write(tmp_path, "big.spec", text)
    start = time.monotonic()
    assert main(["expand", spec]) == 0
    assert time.monotonic() - start < 1.0
    lines = capsys.readouterr().out.splitlines()
    assert f"status: {status}" in lines
    if series is not None:
        assert f"series: {series}" in lines


def test_is_prime_matches_trial_division():
    def trial(n):
        return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))

    assert [n for n in range(-5, 3000) if _is_prime(n)] == [n for n in range(3000) if trial(n)]
    # Carmichael numbers and a strong pseudoprime to the bases 2..37 are composite
    for n in (561, 41041, 3215031751, 318665857834031151167461):
        assert not _is_prime(n)
    for n in (1000000007, 2 ** 61 - 1, 2 ** 89 - 1):
        assert _is_prime(n)


@pytest.mark.parametrize("header, message", [
    ("char 1", "char must be 0 or a prime, not 1"),
    ("char 4", "char must be 0 or a prime, not 4"),
    ("char -3", "char must be 0 or a prime, not -3"),
    ("p 0", "p must be a prime, not 0"),
    ("p 1", "p must be a prime, not 1"),
    ("p 4", "p must be a prime, not 4"),
])
def test_characteristic_is_zero_or_a_prime(header, message):
    with pytest.raises(ParseError, match=message):
        cmd_expand(parse_problem(f"{header}\npoly y^2 + t\n"))


@pytest.mark.parametrize("spec, keys", [
    # once read without complaint: expanded over W(F5) with char left unread
    ("char 3\np 5\npoly y^2 - 1 - p\n", ("'char 3'", "'p 5'")),
    ("p 5\nchar 3\npoly y^2 - 1 - p\n", ("'char 3'", "'p 5'")),
])
def test_contradictory_characteristic_keys_are_a_parse_error(tmp_path, capsys, spec, keys):
    assert main(["expand", write(tmp_path, "both.spec", spec)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error: ") and all(key in err for key in keys)


@pytest.mark.parametrize("header", ["p 5"])
def test_p_alone_or_with_mode_mixed_is_mixed(header):
    # a p line alone states mixed characteristic: W(F5), uniformizer p
    ring = build_ring(parse_problem(f"{header}\npoly y^2 - 1 - p\n"))
    assert ring.mode == "p" and ring.var == "p" and ring.coeffs.p == 5
    assert ring.uniformizer().to_text() == "p"


def test_a_mode_line_is_refused_at_its_line(tmp_path, capsys):
    # the characteristic is stated by char or p alone, so mode is no key; an
    # arith session refuses it as a statement (test_arith_header_errors_*)
    path = write(tmp_path, "mode.spec", "p 5\nmode mixed\npoly y^2 - p\n")
    assert main(["expand", path]) == 2
    assert capsys.readouterr().err == "parse error: unknown key 'mode' at line 2\n"


@pytest.mark.parametrize("header", [
    "var t",  # the main variable is the series variable
    "weights 1 0+1*sqrt(2)\nsqrt_disc 2\nlower_vars t",  # a lower variable too
    "var u\nseries_var u",
])
def test_variable_names_must_be_distinct(header):
    spec = parse_problem(f"char 0\n{header}\npoly t^2 - t\n")
    with pytest.raises(ParseError, match="variable names must be distinct"):
        cmd_expand(spec)


def test_more_lower_variables_than_weights(tmp_path, capsys):
    spec = write(tmp_path, "u2.spec", "char 0\nlower_vars u2\npoly y^2 - t - u2\n")
    assert main(["expand", spec]) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error: ") and "t u2" in err


@pytest.mark.parametrize("header, message", [
    ("sqrt_disc 2", r"0\+1\*sqrt\(3\) reads sqrt\(3\), but sqrt_disc is 2"),
    ("", r"0\+1\*sqrt\(3\) reads sqrt\(3\), but sqrt_disc is 1"),
])
def test_weights_read_their_square_root(header, message):
    spec = parse_problem(f"char 0\nweights 1 0+1*sqrt(3)\n{header}\n"
                         "lower_vars u2\npoly y^2 - t - u2\n")
    with pytest.raises(ParseError, match=message):
        cmd_expand(spec)
    # with D equal to sqrt_disc the weights build a rank-2 ring
    spec = parse_problem("char 0\nweights 1 0+1*sqrt(3)\nsqrt_disc 3\npoly y - t\n")
    assert build_ring(spec).descriptor.rank == 2


def test_witt_prec_limit():
    assert parse_problem("p 5\nwitt_prec 1024\npoly y^2 - 1 - p\n").witt_prec == 1024
    with pytest.raises(ParseError, match="witt_prec 1025 is above the limit 1024 at line 2"):
        parse_problem("p 5\nwitt_prec 1025\npoly y^2 - 1 - p\n")


@pytest.mark.parametrize("poly, message", [
    ("y^128 - t", None),
    ("(y^2)^64 - t", None),
    ("y^64*y^64 - t", None),
    ("y^129 - t", "degree 129 in y is above the limit 128"),
    ("(y^2)^65 - t", "degree 130 in y is above the limit 128"),
    ("y^100000000 - t", "degree 100000000 in y is above the limit 128"),
    ("y^64*y^65 - t", "the defining polynomial has degree 129 in y, above the limit 128"),
])
def test_degree_limit(poly, message):
    spec = parse_problem(f"char 0\npoly {poly}\n")
    ring = build_ring(spec)
    if message is None:
        assert build_valpoly(spec, ring).degree() == 128
    else:
        with pytest.raises(ParseError, match=message):
            build_valpoly(spec, ring)


def test_product_degree_is_checked_before_the_product_is_formed():
    line = "*".join(["y^128"] * 8) + " - t"
    assert len(line) == 51
    start = time.perf_counter()
    with pytest.raises(ParseError, match="a product in the defining polynomial has "
                                         "degree 256 in y, above the limit 128"):
        _read(line)
    assert time.perf_counter() - start < 0.1
    # as with a power, a product that would cancel later is refused too
    with pytest.raises(ParseError, match="degree 129 in y"):
        _read("y^64*y^65 - y^64*y^65 + y")
    assert _read("(y + t)*(y - t)") == _valpoly({(0, 2): 1, (2, 0): -1})


IRRATIONAL_FIRST = "sqrt_disc 2\nweights 0+1*sqrt(2) 1\n"


@pytest.mark.parametrize("command, text, flags", [
    ("arith", "print trunc_open(t, 1)\n", []),
    ("expand", "max_prec 2\npoly y^2 - t\n", []),
    ("expand", "poly y^2 - t\n", ["--prec", "2"]),
    ("verify", "poly y^2 - t\ntrials 4\n", []),
], ids=["arith", "max_prec", "prec-flag", "verify"])
def test_rational_exponents_need_a_rational_first_weight(tmp_path, capsys, command,
                                                         text, flags):
    path = write(tmp_path, "in.txt", IRRATIONAL_FIRST + text)
    code = main([command, path] + flags)
    captured = capsys.readouterr()
    if command == "verify":
        # verify draws its trials as multiples of the first basis element,
        # not as rational exponents, so all six checks run
        assert code == 0 and captured.err == ""
        assert [ln.split()[0] for ln in captured.out.splitlines()] == [
            f"check={name}" for name in ALL_CHECKS]
        assert all(" status=PASS " in ln for ln in captured.out.splitlines())
        return
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("parse error: the rational exponent ")
    assert "needs a rational first weight" in captured.err


def test_rational_exponent_in_series_text_needs_a_rational_first_weight(tmp_path, capsys):
    ring = build_ring(parse_problem(IRRATIONAL_FIRST + "poly y - t\n"))
    with pytest.raises(ParseError, match="needs a rational first weight"):
        parse_series(ring, "t^2")
    assert parse_series(ring, "t^(2*g1)") == ring.monomial(ring.descriptor.element([2, 0]))
    # the checks that draw no rational exponent still run
    path = write(tmp_path, "v.spec", IRRATIONAL_FIRST + "verify ent,taylor\npoly y^2 - t\n")
    assert main(["verify", path]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [l.split()[:2] for l in lines] == [["check=ent", "status=PASS"],
                                              ["check=taylor", "status=PASS"]]


def test_weight_texts_in_spec_errors(tmp_path, capsys):
    # d = 1 folds a + b*sqrt(1) to the rational weight a + b
    ring = build_ring(parse_problem("char 0\nweights 1+1*sqrt(1)\npoly y - t\n"))
    assert repr(ring.descriptor) == "GroupDescriptor(weights=[2], d=1)"
    with pytest.raises(ParseError) as exc:
        build_ring(parse_problem("char 0\nweights 1 1+1*sqrt(1)\nsqrt_disc 2\npoly y - t\n"))
    assert str(exc.value) == "the weight 2 reads sqrt(1), but sqrt_disc is 2"
    path = write(tmp_path, "in.txt", IRRATIONAL_FIRST + "print trunc_open(t, 1)\n")
    assert main(["arith", path]) == 2
    assert capsys.readouterr().err == (
        "parse error: the rational exponent 1 needs a rational first weight, "
        "not 0+1*sqrt(2); give full coordinates\n")


def test_a_rational_exponent_is_a_value_whatever_the_first_weight():
    # under weights 1/2 the uniformizer has value 1/2, and t^(1/2) in series
    # text is that value, not 1/2 times the first weight
    spec = parse_problem("char 0\nweights 1/2\npoly y^2 - t\n")
    ring = build_ring(spec)
    assert ring.descriptor.from_rational(Fraction(1, 2)).coords == (1,)
    assert parse_series(ring, "t^(1/2)") == ring.uniformizer()
    # the poly line's t is the uniformizer, so the root has value 1/4
    code, out, res = cmd_expand(spec)
    assert code == 0 and out.startswith("series: t^(1/4)\nstatus: COMPLETE\n")


SQRT = "char 0\npoly y^2 - 1 - t\nbudget_terms 16\nverify ent\n"  # one term per step


@pytest.mark.parametrize("command", ["expand", "verify"])
def test_max_prec_and_the_prec_flag(tmp_path, monkeypatch, capsys, command):
    # max_prec stops with BUDGET before an exponent above it; --prec overrides it
    runs = []

    def spy(F, ring, **kwargs):
        res = expand(F, ring, **kwargs)
        runs.append((kwargs["max_prec"], res))
        return res

    monkeypatch.setattr(cli, "expand", spy)
    path = write(tmp_path, "sqrt.spec", SQRT + "max_prec 5/2\n")
    for flags, bound in (([], Fraction(5, 2)), (["--prec", "9/2"], Fraction(9, 2))):
        assert main([command, path] + flags) == 0
        max_prec, res = runs[-1]
        assert max_prec.rational_value() == bound
        assert res.status == "BUDGET"
        assert [g.rational_value() for g, _ in res.state.emitted] == list(range(int(bound) + 1))
    if command == "expand":
        out = capsys.readouterr().out.splitlines()
        assert out.count("status: BUDGET") == 2
        assert "series: 1 + 1/2*t - 1/8*t^2 + O(t^3)" in out


@pytest.mark.parametrize("command", ["expand", "verify"])
@pytest.mark.parametrize("prec", ["abc", "1/0", ""])
def test_bad_prec_flag_is_a_parse_error(tmp_path, capsys, command, prec):
    path = write(tmp_path, "sqrt.spec", SQRT)
    assert main([command, path, "--prec", prec]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"parse error: bad value for --prec: {prec!r}\n"


def test_arith_header_errors_name_their_line():
    with pytest.raises(ParseError, match="bad value for 'char': 'x' at line 3$"):
        cmd_arith("char 0\nprint t\nchar x\n")
    with pytest.raises(ParseError, match="^unknown statement 'mode' at line 2$"):
        cmd_arith("# header\nmode mixed\n")
    with pytest.raises(ParseError, match="witt_prec 2000 is above the limit 1024 at line 4$"):
        cmd_arith("p 3\n\nprint p\nwitt_prec 2000\n")
    with pytest.raises(ParseError, match="^expected 'key value' at line 2$"):
        cmd_arith("char 0\nwitt_prec\nprint t\n")
    # a statement reads its expression even when it is empty
    with pytest.raises(ParseError, match="^expected a name at line 2, col 1$"):
        cmd_arith("char 0\nprint\n")


def test_irrational_first_weight_prints_no_zero_exponent(tmp_path, capsys):
    path = write(tmp_path, "irr.spec", IRRATIONAL_FIRST + "poly y^2 - t\n")
    assert main(["expand", path]) == 0
    out = capsys.readouterr().out
    assert "0*g1 + 0*g2" not in out
    assert "  1: Q_1=y beta=1/2*g1 + 0*g2 " in out
    assert "  2: Q_2=y^2 - t^(1*g1 + 0*g2) beta=inf " in out


def test_literals_are_read_as_written():
    # each literal is converted when it is read, so a pair that cancels is
    # still an error, and the message names the literal as written
    for poly in ("y^2 - 1/2*t + 1/2*t - 1", "y^1 + 1/2*y"):
        with pytest.raises(ParseError, match="the literal 1/2 has no value"):
            cmd_expand(parse_problem(f"char 2\npoly {poly}\n"))


def test_main_trace_file(tmp_path, capsys):
    good = write(tmp_path, "good.spec", CLASSICAL)
    trace = tmp_path / "out.trace"
    assert main(["expand", good, "--trace", str(trace)]) == 0
    capsys.readouterr()
    content = trace.read_text()
    assert content.strip().endswith("result=t^(3/2) status=COMPLETE")


def test_unwritable_trace_path_is_an_error(tmp_path, capsys):
    good = write(tmp_path, "good.spec", CLASSICAL)
    trace = tmp_path / "missing" / "t.txt"
    assert main(["expand", good, "--trace", str(trace)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: [Errno 2] No such file or directory")
    assert str(trace) in captured.err


@pytest.mark.parametrize("command, text", [("verify", ARTIN), ("arith", ARITH)],
                         ids=["verify", "arith"])
@pytest.mark.parametrize("flags", [["--trace", "x.trace"], ["--format", "records"],
                                   ["--format", "text"]], ids=["trace", "records", "text"])
def test_expand_only_flags_rejected(tmp_path, capsys, command, text, flags):
    path = write(tmp_path, "in.txt", text)
    trace = tmp_path / "x.trace"
    flags = [str(trace) if f == "x.trace" else f for f in flags]
    assert main([command, path] + flags) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {flags[0]} applies only to expand\n"
    assert not trace.exists()
    # without the flag the same command runs
    assert main([command, path]) == 0


@pytest.mark.parametrize("command, text, flags, message", [
    ("arith", ARITH, ["--budget-terms", "3"], "--budget-terms applies only to expand and verify"),
    ("arith", ARITH, ["--prec", "2"], "--prec applies only to expand and verify"),
], ids=["arith-budget", "arith-prec"])
def test_flags_rejected_outside_their_commands(tmp_path, capsys, command, text, flags,
                                               message):
    path = write(tmp_path, "in.txt", text)
    assert main([command, path] + flags) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    # without the flag the same command runs
    assert main([command, path]) == 0


def test_budget_flag_overrides(tmp_path, capsys):
    good = write(tmp_path, "as.spec", ARTIN)
    assert main(["expand", good, "--budget-terms", "3", "--format", "records"]) == 0
    out = capsys.readouterr().out
    steps = [l for l in out.splitlines() if l.startswith("beta=")]
    assert len(steps) == 3


def test_determinism_byte_identical(tmp_path):
    spec = parse_problem(ARTIN)
    runs = []
    for _ in range(2):
        code, out, _ = cmd_expand(spec, fmt="records")
        code2, out2 = cmd_verify(spec)
        runs.append(out + "\n" + out2)
    assert runs[0] == runs[1]


def _run_cli(args, stdout=subprocess.PIPE, flags=(), **env):
    """The console entry point in a child process, its interpreter given
    flags, with env added to its environment."""
    # the child imports the package from where this process found it
    src = str(Path(genpuiseux.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *flags, "-m", "genpuiseux.cli"] + args, stdout=stdout,
        stderr=subprocess.PIPE, text=True, env={**os.environ, "PYTHONPATH": path, **env})


def test_importing_the_cli_leaves_argparse_unimported():
    # library callers and bench/setup_probe.py import cli but never call main
    src = str(Path(genpuiseux.__file__).parents[1])
    code = "import sys, genpuiseux.cli; print('argparse' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True).stdout
    assert out.split() == ["False"]


def test_a_closed_output_pipe_ends_quietly(tmp_path):
    # as `genpuiseux expand ... | head -1`, with the reader gone before the first write
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _run_cli(["expand", write(tmp_path, "good.spec", CLASSICAL),
                         "--format", "records"], stdout=write_end)
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == ""


def test_console_entry_point(tmp_path):
    proc = _run_cli(["expand", write(tmp_path, "good.spec", CLASSICAL)])
    assert proc.returncode == 0
    assert "t^(3/2)" in proc.stdout


def _readme_arith_session():
    """The README's arithmetic session, and the text its print lines' comments give."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    match = re.search(r"^### Arithmetic sessions\n+```\n(.*?)^```",
                      readme.read_text(encoding="utf-8"), re.S | re.M)
    session = match.group(1)
    return session, [line.split("#", 1)[1].strip() for line in session.splitlines()
                     if line.startswith("print")]


def _lines_matching(pattern, expected):
    return lambda lines: sum(bool(re.fullmatch(pattern, ln)) for ln in lines) == expected


_RANK2 = "char 0\nweights 1 0+1*sqrt(2)\nsqrt_disc 2\nlower_vars u2\npoly y^2 - t - u2\n"
_ONE_BUDGET_RESULT = _lines_matching(r"result=.* status=BUDGET", 1)
_README_ARITH, _README_PRINTS = _readme_arith_session()


@pytest.mark.parametrize("args, text, check", [
    (["verify"], "char 2\npoly y^2 + t*y + t\n", _lines_matching(r".* status=PASS .*", 6)),
    (["expand", "--format", "records"], "p 5\nwitt_prec 16\npoly y^2 - 1 - p\n",
     _ONE_BUDGET_RESULT),
    (["expand", "--format", "records"], _RANK2, _ONE_BUDGET_RESULT),
    (["arith"], _README_ARITH, lambda lines: lines == _README_PRINTS != []),
], ids=["verify-artin", "expand-p5", "expand-rank2", "readme-arith"])
def test_no_warning_under_python_dev_mode(tmp_path, args, text, check):
    """python -X dev -W error: the development mode checks on, every warning an error."""
    proc = _run_cli([args[0], write(tmp_path, "case.spec", text), *args[1:]],
                    flags=("-X", "dev", "-W", "error"))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert check(proc.stdout.splitlines()), proc.stdout


@pytest.mark.parametrize("command", ["expand", "verify", "arith"])
def test_undecodable_file_is_an_error(tmp_path, command):
    path = tmp_path / "bad.spec"
    path.write_bytes(b"\xff\xfe")
    proc = _run_cli([command, str(path)])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("error: ")


# the C locale with its UTF-8 coercion off decodes files as ASCII by default
ASCII_LOCALE = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}


def test_spec_separated_by_em_spaces_reads_like_its_ascii_twin(tmp_path):
    em = tmp_path / "em.spec"
    em.write_text(ARTIN.replace(" ", "\u2003"), encoding="utf-8")
    outs = [_run_cli(["expand", path, "--format", "records"], **ASCII_LOCALE)
            for path in (write(tmp_path, "ascii.spec", ARTIN), str(em))]
    assert [proc.returncode for proc in outs] == [0, 0]
    assert outs[0].stdout == outs[1].stdout != ""


@pytest.mark.parametrize("poly", ["-t + y^2", "-(t) + y^2"])
def test_leading_minus_in_a_poly_line(poly):
    want = cmd_expand(parse_problem("char 0\npoly y^2 - t\n"), fmt="records")[1]
    assert cmd_expand(parse_problem(f"char 0\npoly {poly}\n"), fmt="records")[1] == want


def test_budget_flag_zero_is_a_budget(tmp_path, capsys):
    path = write(tmp_path, "sq.spec", "char 0\npoly y^2 - 1 - t\n")
    assert main(["expand", path, "--budget-terms", "0"]) == 0
    flag = capsys.readouterr().out
    assert flag.startswith("series: O(t^0)\nstatus: BUDGET\n")
    key = write(tmp_path, "sq0.spec", "char 0\npoly y^2 - 1 - t\nbudget_terms 0\n")
    assert main(["expand", key]) == 0
    assert capsys.readouterr().out == flag


@pytest.mark.parametrize("command, text, flags, message", [
    ("expand", "char 0\npoly y^2 - 1 - t\nbudget_terms -1\n", [],
     "budget_terms must be at least 0, not -1 at line 3"),
    ("verify", "char 0\npoly y^2 - 1 - t\nbudget_terms -1\n", [],
     "budget_terms must be at least 0, not -1 at line 3"),
    ("verify", "char 0\npoly y^2 - 1 - t\ntrials -1\n", [],
     "trials must be at least 0, not -1 at line 3"),
    ("expand", "char 0\npoly y^2 - 1 - t\n", ["--budget-terms", "-1"],
     "--budget-terms must be at least 0, not -1"),
    ("verify", "char 0\npoly y^2 - 1 - t\n", ["--budget-terms", "-1"],
     "--budget-terms must be at least 0, not -1"),
], ids=["expand-key", "verify-key", "trials", "expand-flag", "verify-flag"])
def test_negative_counts_are_parse_errors(tmp_path, capsys, command, text, flags, message):
    path = write(tmp_path, "neg.spec", text)
    assert main([command, path] + flags) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"parse error: {message}\n"


@pytest.mark.parametrize("prec", [0, -3])
def test_witt_prec_below_one(prec):
    with pytest.raises(ParseError, match=f"witt_prec {prec} is below 1 at line 2$"):
        parse_problem(f"p 5\nwitt_prec {prec}\npoly y^2 - 1 - p\n")
    with pytest.raises(ParseError, match=f"witt_prec {prec} is below 1 at line 3$"):
        cmd_arith(f"p 3\nprint p\nwitt_prec {prec}\n")


def _nested(text, depth):
    return "(" * depth + text + ")" * depth


@pytest.mark.parametrize("command, text", [
    ("expand", f"char 0\npoly {_nested('y', 5000)}^2 - t\n"),
    ("arith", f"char 0\nlet a = {_nested('t', 5000)}\nprint a\n"),
    ("arith", f"char 0\nprint {'normalize(' * 5000}t{')' * 5000}\n"),
], ids=["expand", "arith-let", "arith-call"])
def test_deep_nesting_is_a_parse_error(tmp_path, capsys, command, text):
    path = write(tmp_path, "deep.txt", text)
    assert main([command, path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"expressions may nest at most {MAX_NESTING} deep" in captured.err


def test_nesting_at_the_limit_parses():
    deep = _nested("y", MAX_NESTING)
    spec = parse_problem(f"char 0\npoly {deep}^2 - t\n")
    assert build_valpoly(spec, build_ring(spec)).degree() == 2
    assert cmd_arith(f"char 0\nlet a = {_nested('t', MAX_NESTING)}\nprint a\n") == "t"
    ring = build_ring(parse_problem("char 0\npoly y - t\n"))
    assert parse_series(ring, _nested("t^2", MAX_NESTING)).to_text() == "t^2"
    with pytest.raises(ParseError, match="nest at most"):
        parse_series(ring, _nested("t^2", MAX_NESTING + 1))


# Each residue root comes from the least field that holds one.  y^32 and y^64
# have the root 1 in F_3 at every step; the solver once climbed to F_{3^8} for
# them and took half a minute on y^32.  y^16 + t + t^2 has no root in F_3 and
# still needs F_{3^8}.
CLIMBS = {
    "y32": ("poly y^32 - t - t^2", "series: t^(1/32) + 2*t^(33/32) + "),
    "y64": ("poly y^64 - t - t^2", "series: t^(1/64) + t^(65/64) + "),
    "y16": ("poly y^16 + t + t^2", "series: w^7*t^(1/16) + w^7*t^(17/16) + "),
}


@pytest.mark.parametrize("name", sorted(CLIMBS))
def test_residue_roots_from_the_least_field_end_in_time(tmp_path, capsys, name):
    poly, head = CLIMBS[name]
    path = write(tmp_path, "climb.spec", f"char 3\nbudget_terms 8\n{poly}\n")
    start = time.monotonic()
    assert main(["expand", path]) == 0
    elapsed = time.monotonic() - start
    assert elapsed < 3.0, f"runtime {elapsed:.3f}s"
    assert capsys.readouterr().out.startswith(head)


def test_p_adic_root_from_the_residue_field():
    # 2 has the cube root 3 in F_5, so y^3 - 2 - p takes it and adjoins no stage
    code, out, res = cmd_expand(parse_problem("p 5\nwitt_prec 3\npoly y^3 - 2 - p\n"))
    assert code == 0 and out.splitlines()[0] == "series: 3 + 3*p + O(p^2)"
    assert res.state.ring.tower.height == 0
