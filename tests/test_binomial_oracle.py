"""Char-0 roots y^n = c^n t^a (1 + t)^b against the binomial series.

The root the engine prints is z*c*t^(a/n)*(1 + t)^(b/n), with z^n = 1, so its
terms are z*c*C(b/n, k)*t^(a/n + k) for k = 0, 1, ...  The printed
``result=`` line of ``cmd_expand(..., fmt="records")`` is read here by its own
reader, which shares no code with ``genpuiseux.series``: every printed term
below the printed bound must be the binomial one, and none may be missing.
"""

import re
from fractions import Fraction

import pytest

from genpuiseux.cli import cmd_expand, parse_problem

# poly -> (n, c, a, b); z is 1 for n = 2 and the generator w for n = 3
CASES = {
    "y^2 - 1 - t": (2, 1, 0, 1),
    "y^2 - t - t^2": (2, 1, 1, 1),
    "y^2 - (1 + t)^3": (2, 1, 0, 3),
    "y^2 - t^3*(1 + t)": (2, 1, 3, 1),
    "y^2 - 4 - 4*t": (2, 2, 0, 1),
    "y^3 - 1 - t": (3, 1, 0, 1),
    "y^3 - t - t^2": (3, 1, 1, 1),
}

_W = "w^1"  # the printed generator


def _binomial(r, k):
    out = Fraction(1)
    for i in range(k):
        out = out * (r - i) / (i + 1)
    return out


def _exponent(text):
    """The exponent of a printed t-power: '' for t itself, '^5' or '^(3/2)'."""
    return Fraction(text[1:].strip("()")) if text else Fraction(1)


def _split(series):
    """The signed top-level terms of a printed series: ' + ' and ' - ' outside parentheses."""
    terms, depth, start, sign = [], 0, 0, 1
    for m in re.finditer(r"[()]| [+-] ", series):
        tok = m.group()
        if tok == "(":
            depth += 1
        elif tok == ")":
            depth -= 1
        elif depth == 0:
            terms.append((sign, series[start:m.start()]))
            sign, start = (1 if tok == " + " else -1), m.end()
    terms.append((sign, series[start:]))
    return terms


def _read(line):
    """{exponent: (rational, has w)} of the result line, and the bound's exponent."""
    series = re.fullmatch(r"result=(.*) status=\w+", line).group(1)
    terms, bound = {}, None
    for sign, term in _split(series):
        if term.startswith("O(t"):
            bound = _exponent(term[3:-1])
            continue
        coeff, exp = term, Fraction(0)
        if "t" in term:
            i = term.rindex("t")
            coeff, exp = term[:i].rstrip("*"), _exponent(term[i + 1:])
        coeff = coeff.strip("()")
        has_w = coeff.endswith(_W)
        coeff = coeff[:-len(_W)].rstrip("*") if has_w else coeff
        q = Fraction(coeff) if coeff not in ("", "-") else Fraction(-1 if coeff else 1)
        assert exp not in terms, (exp, line)
        terms[exp] = (sign * q, has_w)
    assert bound is not None, line
    return terms, bound


@pytest.mark.parametrize("budget", [6, 12, 24])
@pytest.mark.parametrize("poly", sorted(CASES))
def test_char0_roots_are_the_binomial_series(poly, budget):
    n, c, a, b = CASES[poly]
    spec = parse_problem(f"char 0\npoly {poly}\n")
    code, out, _ = cmd_expand(spec, fmt="records", budget=budget)
    assert code == 0
    (line,) = [ln for ln in out.splitlines() if ln.startswith("result=")]
    got, bound = _read(line)
    want, k = {}, 0
    while Fraction(a, n) + k < bound:
        q = c * _binomial(Fraction(b, n), k)
        if q:
            want[Fraction(a, n) + k] = (q, n == 3)
        k += 1
    assert got == want, line
    # b/n is no integer, so no binomial coefficient vanishes: the budget is all spent
    assert len(got) == budget, line
