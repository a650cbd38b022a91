"""Seeded, grammar-generated fuzzing of the arith, expand and verify front doors.

Every generated input either succeeds or fails with a typed error: a
ParseError or another EngineError.  Any other exception is a bug in the
front door or the engine behind it.  The grammar follows the README's
session and specification grammars and mixes in misuse: wrong function
arities and argument kinds, degenerate polynomials and dropped characters.
"""

import random
import time
from itertools import islice

import pytest

from genpuiseux.cli import cmd_arith, cmd_expand, cmd_verify, main, parse_problem
from genpuiseux.errors import EngineError

SEED = 20261018
CASES = 600

_HEADERS = (
    ["char 0"], ["char 2"], ["char 3"], ["p 3", "witt_prec 4"], ["p 5", "witt_prec 3"],
    ["char 0", "weights 1 0+1*sqrt(2)", "sqrt_disc 2"],
    ["char 4"], ["char 1"], ["p 4", "witt_prec 3"],
)
# the README's functions by argument kinds: "s" a series, "e" an exponent
_FUNCS = {"inv": ("s", "se"), "trunc_open": ("se",), "trunc_closed": ("se",),
          "slice": ("see",), "normalize": ("s",)}


def _number(rng):
    return rng.choice(("0", "1", "2", "3", "1/2", "3/2", "-1", "2/3", "0/1"))


class _Arith:
    """Random arith sessions over one header; about one call in ten is misuse."""

    def __init__(self, rng, uvar):
        self.rng = rng
        self.uvar = uvar
        self.names = []

    def atom(self, depth):
        rng = self.rng
        r = rng.random()
        if depth > 2 or r < 0.4:
            return rng.choice((self.uvar, self.uvar, _number(rng).lstrip("-"),
                               *self.names))
        if r < 0.55:
            return f"({self.expr(depth + 1)})"
        name = rng.choice(sorted(_FUNCS))
        sig = rng.choice(_FUNCS[name])
        if rng.random() < 0.1:  # an unknown function, a wrong arity or kind
            name = rng.choice((name, "frob"))
            sig = "".join(rng.choice("se") for _ in range(rng.randint(1, 3)))
        args = [self.expr(depth + 1) if k == "s" else _number(rng) for k in sig]
        return f"{name}({', '.join(args)})"

    def power(self, depth):
        base = self.atom(depth)
        if self.rng.random() < 0.25:
            exp = self.rng.choice(("0", "1", "2", "3", "(1/2)", "1/2", "(2/3)", "-1"))
            return f"{base}^{exp}"
        return base

    def expr(self, depth=0):
        rng = self.rng
        out = ("-" if rng.random() < 0.15 else "") + self.power(depth)
        for _ in range(rng.randint(0, 2)):
            out += f" {rng.choice('+-*')} {self.power(depth)}"
        return out

    def session(self, header):
        rng = self.rng
        lines = list(header)
        for _ in range(rng.randint(1, 4)):
            if rng.random() < 0.5:
                name = rng.choice(("f", "g", "h"))
                lines.append(f"let {name} = {self.expr()}")
                self.names.append(name)
            else:
                lines.append(f"print {self.expr()}")
        return lines


def _poly(rng, uvar, lower):
    """A small polynomial in y over the uniformizer and lower variables."""
    shapes = ("y - y", "(0/1)^2", "((t)^0)^1", "0", "1", "t", "2*y^2 + t",
              "(y - t)^2", "y^2 - t^3", "y^2 + t*y + t")
    if rng.random() < 0.3:
        return rng.choice(shapes).replace("t", uvar)
    out = f"y^{rng.randint(1, 3)}"
    for _ in range(rng.randint(0, 3)):
        c = rng.choice(("1", "2", "1/2", "3"))
        mono = rng.choice((uvar, f"{uvar}^2", f"{uvar}*y", "y", "1", *lower))
        out += f" {rng.choice('+-')} {c}*{mono}"
    return out


def _mutate(rng, text):
    """Drop one character of the text, now and then."""
    if len(text) < 2 or rng.random() < 0.92:
        return text
    k = rng.randrange(len(text))
    return text[:k] + text[k + 1:]


def _generated(kind):
    rng = random.Random(f"{SEED}-{kind}")
    for _ in range(CASES):
        header = rng.choice(_HEADERS)
        uvar = "p" if header[0].startswith("p") else "t"
        if kind == "arith":
            lines = _Arith(rng, uvar).session(header)
        else:
            lower = ["u2"] if "sqrt_disc 2" in header else []
            lines = list(header) + (["lower_vars u2"] if lower else [])
            lines += [f"poly {_poly(rng, uvar, lower)}", "budget_terms 3"]
        yield "\n".join(_mutate(rng, ln) for ln in lines) + "\n"


def _cases(kind):
    """verify reads every third expand spec, with a few trials per check."""
    if kind == "verify":
        return islice(_generated("expand"), 0, None, 3)
    return _generated(kind)


def _run(kind, text):
    if kind == "arith":
        cmd_arith(text)
    elif kind == "expand":
        cmd_expand(parse_problem(text))
    else:
        spec = parse_problem(text)
        spec.trials = 4
        cmd_verify(spec)


@pytest.mark.parametrize("kind", ["arith", "expand", "verify"])
def test_front_doors_raise_only_typed_errors(kind):
    escaped = []
    for text in _cases(kind):
        try:
            _run(kind, text)
        except EngineError:
            pass
        except Exception as exc:  # anything untyped is a finding
            escaped.append(f"{type(exc).__name__}: {exc} <- {text!r}")
    assert not escaped, "\n".join(escaped[:10])


# ten factors (1 + t^(100*2^i)): 1024 terms, refused at the tenth
_SPARSE_CHAIN = "*".join(f"(1 + t^{100 * 2 ** i})" for i in range(10))


@pytest.mark.parametrize("kind, text", [
    ("expand", "char 0\npoly y - y\n"),
    ("expand", "char 0\npoly (0/1)^2\n"),
    ("expand", "char 0\npoly ((t)^0)^1\n"),
    ("arith", "char 0\nprint slice(t, 1)\n"),
    ("arith", "char 0\nprint inv(1/2)\n"),
    ("arith", "char 0\nprint trunc_open(t, t)\n"),
    ("arith", "char 0\nprint inv(1 + t)\n"),
    ("arith", "char 0\nprint slice(t, 2, 1)\n"),
    ("arith", "char 0\nprint normalize(t, 1)\n"),
    ("expand", "char 4\npoly y^2 + t*y + t\n"),
    ("expand", "char 1\npoly y^2 + t*y + t\n"),
    ("expand", "p 4\npoly y^2 + p*y + p\n"),
    ("expand", "char 2\npoly y^2 - 1/2*t*y + t\n"),
    ("expand", "p 3\npoly y^2 - 1/3*p\n"),
    ("arith", "char 3\nprint 1/3 + t\n"),
    ("expand", "char 0\npoly y - " + _SPARSE_CHAIN + "\n"),
    ("verify", "char 0\npoly y - " + _SPARSE_CHAIN + "\n"),
    ("arith", "char 0\nprint " + _SPARSE_CHAIN + "\n"),
    ("expand", "char 0\npoly y - (1 + t)^600\n"),
    ("expand", "p 5\nmode mixed\npoly y^2 - p\n"),
])
def test_misuse_exits_with_a_parse_error(tmp_path, capsys, kind, text):
    path = tmp_path / "input.txt"
    path.write_text(text)
    start = time.monotonic()
    assert main([kind, str(path)]) == 2
    assert time.monotonic() - start < 1.0
    assert capsys.readouterr().err.startswith("parse error: ")
