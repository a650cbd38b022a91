"""Command-line front door: expand, verify and arith pipelines.

Problem specifications are line-oriented key/value files (grammar in the
README).  Output is deterministic text, optionally in key=value record form
for machine consumption; traces can be teed to a file.
"""

from __future__ import annotations

import os
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from operator import mul

from .coeff import FieldTower, WittRing
from .embed import expand, monomial_embedding
from .errors import EngineError, ParseError
from .groups import INF, GroupDescriptor, cmp, weight_text
from .keypoly import ValPoly, derivative_min_check
from .series import (GenSeries, SeriesRing, _coeff_from_fraction, _Scanner, bounded_power,
                     bounded_product, check_terms, read_expr)
from .truncalg import integral_dependence, multi_product_truncation, taylor_form

ALL_CHECKS = ("caltron", "prodfini", "stab", "min", "ent", "taylor")
# the largest p-adic working precision a spec may ask for
MAX_WITT_PREC = 1024


@dataclass
class ProblemSpec:
    char: int = 0
    p: int = None  # a `p` line states mixed characteristic
    weights: list = field(default_factory=lambda: [Fraction(1)])
    sqrt_disc: int = 1
    series_var: str = ""
    var: str = "y"
    lower_vars: list = field(default_factory=list)
    poly_text: str = ""
    poly_line: int = None  # the line of the `poly` key, for error positions
    budget_terms: int = 16
    max_prec: Fraction = None
    witt_prec: int = 6
    verify: tuple = ALL_CHECKS
    seed: int = 20260809
    trials: int = 50

    def uniformizer(self):
        if self.series_var:
            return self.series_var
        return "t" if self.p is None else "p"


def _lines(text):
    """(lineno, key, value) for each line of a spec or arith text that is not
    blank once its ``#`` comment is cut."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            key = line.split(None, 1)[0]
            yield lineno, key, line[len(key):].strip()


def parse_problem(text):
    spec = ProblemSpec()
    seen_poly = False
    for lineno, key, value in _lines(text):
        _read_key(spec, key, value, lineno)
        seen_poly = seen_poly or key == "poly"
    if not seen_poly:
        raise ParseError("missing 'poly' line")
    return spec


def _read_key(spec, key, value, lineno):
    """Set the field of one spec line; errors name the line."""
    if not value:
        raise ParseError("expected 'key value'", line=lineno)
    try:
        if key == "char":
            spec.char = int(value)
        elif key == "p":
            spec.p = int(value)
        elif key == "weights":
            spec.weights = [_parse_weight(w, lineno) for w in value.split()]
        elif key == "sqrt_disc":
            spec.sqrt_disc = int(value)
        elif key == "series_var":
            spec.series_var = value
        elif key == "var":
            spec.var = value
        elif key == "lower_vars":
            spec.lower_vars = value.split()
        elif key == "poly":
            spec.poly_text = value
            spec.poly_line = lineno
        elif key == "budget_terms":
            spec.budget_terms = _count(key, int(value), lineno)
        elif key == "max_prec":
            spec.max_prec = Fraction(value)
        elif key == "witt_prec":
            spec.witt_prec = int(value)
            if spec.witt_prec < 1:
                raise ParseError(f"witt_prec {spec.witt_prec} is below 1", line=lineno)
            if spec.witt_prec > MAX_WITT_PREC:
                raise ParseError(f"witt_prec {spec.witt_prec} is above the limit "
                                 f"{MAX_WITT_PREC}", line=lineno)
        elif key == "verify":
            if value == "off":
                spec.verify = ()
            elif value == "all":
                spec.verify = ALL_CHECKS
            else:
                names = tuple(v.strip() for v in value.split(","))
                for nm in names:
                    if nm not in ALL_CHECKS:
                        raise ParseError(f"unknown check {nm!r}", line=lineno)
                spec.verify = names
        elif key == "seed":
            spec.seed = int(value)
        elif key == "trials":
            spec.trials = _count(key, int(value), lineno)
        else:
            raise ParseError(f"unknown key {key!r}", line=lineno)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad value for {key!r}: {value!r}", line=lineno) from exc


def _count(name, n, lineno=None):
    """n, a count that a spec key or a flag gives; below 0 it is a ParseError."""
    if n < 0:
        raise ParseError(f"{name} must be at least 0, not {n}", line=lineno)
    return n


def _parse_weight(text, lineno):
    """a/b, or a/b+c/d*sqrt(D) as the triple (a/b, c/d, D)."""
    if "sqrt" in text:
        head, tail = text.split("+", 1) if "+" in text else ("0", text)
        c, rest = tail.split("*", 1)
        if not rest.startswith("sqrt(") or not rest.endswith(")"):
            raise ParseError(f"bad weight {text!r}", line=lineno)
        return Fraction(head), Fraction(c), int(rest[5:-1])
    return Fraction(text)


# Miller-Rabin with these bases is exact below 3.3e24 (Sorenson and Webster,
# Math. Comp. 2017); a characteristic beyond that passes if every base does.
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(n):
    if n < 2:
        return False
    for a in _PRIME_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def build_ring(spec):
    """The series ring of a spec; a characteristic that is not 0 or a prime,
    a non-zero char with p, a sqrt(D) weight whose D is not sqrt_disc, and
    weights the value group rejects, are a ParseError."""
    mixed = spec.p is not None
    if mixed and not _is_prime(spec.p):
        raise ParseError(f"p must be a prime, not {spec.p}")
    if not mixed and spec.char != 0 and not _is_prime(spec.char):
        raise ParseError(f"char must be 0 or a prime, not {spec.char}")
    if mixed and spec.char:
        raise ParseError(f"'char {spec.char}' contradicts 'p {spec.p}', "
                         "which sets mixed characteristic")
    for w in spec.weights:
        if isinstance(w, tuple) and w[2] != spec.sqrt_disc:
            raise ParseError(f"the weight {weight_text(*w)} reads sqrt({w[2]}), "
                             f"but sqrt_disc is {spec.sqrt_disc}")
    try:
        desc = GroupDescriptor([w[:2] if isinstance(w, tuple) else w for w in spec.weights],
                               sqrt_disc=spec.sqrt_disc)
    except ValueError as exc:
        raise ParseError(f"bad weights: {exc}") from exc
    if mixed:
        coeffs = WittRing(FieldTower.prime_field(spec.p), spec.witt_prec)
    elif spec.char:
        coeffs = FieldTower.prime_field(spec.char)
    else:
        coeffs = FieldTower.rationals()
    return SeriesRing(desc, coeffs, spec.uniformizer())


# -- polynomial expressions -----------------------------------------------------------

# the largest degree in the main variable that a `poly` line may reach
MAX_DEGREE = 128


def read_poly(ring, text, values, var, lineno=None):
    """The polynomial in ``var`` that a ``poly`` line writes, as a ValPoly.

    The vocabulary of read_expr: rational literals, the names in ``values``
    (each its series), ``var``, and ``^`` with a non-negative integer, bare
    or in parentheses.  A power or a product whose degree would pass
    MAX_DEGREE, or whose coefficients' terms together fail ``check_terms``,
    is a ParseError before it is formed; errors name ``lineno``.
    """
    sc = _Scanner(text, lineno)

    def atom(read):
        ch = sc.peek()
        if ch.isdigit():
            return ValPoly.const(ring.const(_coeff_from_fraction(ring, sc.number())))
        if not (ch.isalpha() or ch == "_"):
            sc.error("expected a term")
        col = sc.pos
        name = sc.ident()
        if name == var:
            return ValPoly.variable(ring)
        if name not in values:
            sc.error(f"unknown variable {name!r}", col=col)
        return ValPoly.const(values[name])

    def terms(poly):
        return [term for c in poly.coeffs for term in c.terms]

    def power(base):
        n = sc.exponent()
        if n.denominator != 1 or n < 0:
            sc.error("exponents must be non-negative integers")
        if base.degree() * n > MAX_DEGREE:
            sc.error(f"degree {base.degree() * n} in {var} is above the limit {MAX_DEGREE}")
        check_terms(sc, "power", [(terms(base), int(n))])
        return base ** int(n)

    def times(a, b):
        degree = a.degree() + b.degree()
        if degree > MAX_DEGREE:
            sc.error(f"a product in the defining polynomial has degree {degree} "
                     f"in {var}, above the limit {MAX_DEGREE}")
        check_terms(sc, "product", [(terms(a), 1), (terms(b), 1)])
        return a * b

    return read_expr(sc, atom, power, times)


def build_valpoly(spec, ring):
    """The defining polynomial as a ValPoly; the series variable and the
    lower variables read as their weight monomials."""
    names = [spec.uniformizer()] + list(spec.lower_vars)
    if len(set(names + [spec.var])) < len(names) + 1:
        raise ParseError("the series, lower and main variable names must be distinct, "
                         f"not {' '.join(names + [spec.var])}")
    try:
        values = monomial_embedding(ring, names)
    except ValueError as exc:
        raise ParseError(f"series and lower variables {' '.join(names)}: {exc} "
                         f"({ring.descriptor.rank})") from exc
    F = read_poly(ring, spec.poly_text, values, spec.var, spec.poly_line)
    if not F.is_monic():
        raise ParseError("the defining polynomial must be monic in the main variable")
    if F.degree() < 1:
        raise ParseError("the defining polynomial must have degree >= 1 "
                         "in the main variable")
    return F


# -- expand ------------------------------------------------------------------------------


def run_expand(spec, budget_override=None, prec_override=None):
    ring = build_ring(spec)
    F = build_valpoly(spec, ring)
    max_terms = spec.budget_terms if budget_override is None else budget_override
    prec_q = prec_override if prec_override is not None else spec.max_prec
    max_prec = None if prec_q is None else ring.descriptor.from_rational(prec_q)
    return expand(F, ring, max_terms=max_terms, max_prec=max_prec)


def cmd_expand(spec, fmt="text", trace_path=None, budget=None, prec=None):
    res = run_expand(spec, budget, prec)
    chain = res.chain.report(spec.var).splitlines()
    if fmt == "records":
        lines = res.trace_lines() + [f"chain {ln}" for ln in chain]
    else:
        lines = ([f"series: {res.series.to_text()}", f"status: {res.status}", "chain:"]
                 + [f"  {ln}" for ln in chain] + ["trace:"]
                 + [f"  {ln}" for ln in res.trace_lines()[:-1]])
    if trace_path:
        with open(trace_path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(res.trace_lines()) + "\n")
    return 0, "\n".join(lines), res


# -- verify --------------------------------------------------------------------------------


def _exp(ring, q):
    """q times the first basis element: a trial exponent that every value
    group has, whatever its first weight."""
    return ring.descriptor.basis(0).scale_unchecked(q)


def _rand_series(ring, rng):
    char = ring.tower.char
    exps = rng.sample(range(0, 12), rng.randint(1, 5))
    terms = []
    for e in exps:
        c = rng.randint(1, char - 1) if char > 1 else rng.randint(1, 7)
        terms.append((_exp(ring, Fraction(e, 2)), ring.coeffs.from_int(c)))
    return GenSeries(ring, terms)


def _rand_poly(ring, rng):
    char = ring.tower.char
    coeffs = []
    for _ in range(rng.randint(1, 5)):  # degree at most 4
        c = rng.randint(0, char - 1) if char > 1 else rng.randint(-3, 3)
        n = rng.randint(0, 3)
        coeffs.append(ring.monomial(_exp(ring, n), ring.coeffs.from_int(c))
                      if c else ring.zero())
    return ValPoly(ring, coeffs)


def _trees_hold(draws):
    """Whether each drawn (factors, lam) has a product-truncation tree that
    gives the product at lam, stopping at the first that does not.  A draw
    is skipped when its product reaches lam, or its precision (the p-adic
    digit-carrying horizon) ends below lam."""
    for factors, lam in draws:
        prod = reduce(mul, factors)
        if cmp(prod.val(), lam) >= 0 or not prod.knows(lam):
            continue
        tree = multi_product_truncation(factors, lam).evaluate(factors)
        if [t for t in tree.terms if cmp(t[0], lam) < 0] != list(prod.truncate_open(lam).terms):
            return False, INF
    return True, INF


def _check_caltron(res, rng, trials):
    """Product truncation of random pairs of series: reads only the ring."""
    ring = res.series.ring
    return _trees_hold(([_rand_series(ring, rng), _rand_series(ring, rng)],
                        _exp(ring, Fraction(rng.randint(2, 16), 2)))
                       for _ in range(2 * trials))


def _check_prodfini(res, rng, trials):
    """Product-truncation trees of three random series: reads only the ring."""
    ring = res.series.ring
    return _trees_hold(([_rand_series(ring, rng) for _ in range(3)],
                        _exp(ring, Fraction(rng.randint(4, 14), 2)))
                       for _ in range(max(1, trials // 3)))


def _check_stab(res, rng, trials):
    """Product-truncation trees of t and root factors: reads the root only
    through an identity that holds for any series, so no wrong root fails it."""
    ring = res.series.ring
    root = res.series.exact()
    if not root.terms:
        return True, INF
    return _trees_hold(([ring.uniformizer()] * rng.randint(0, 2) + [root] * rng.randint(1, 2),
                        _exp(ring, Fraction(rng.randint(6, 14), 2)))
                       for _ in range(max(1, trials // 3)))


def _check_min(res, rng, trials):
    """The three-way derivative minimum of random h at the first two finite
    epsilon_i: reads the chain and h's Taylor vector at the partial."""
    chain = res.chain
    stages = [i for i in range(1, len(chain) + 1)
              if chain.entry(i).epsilon is not INF][:2]
    for i in stages:
        done = 0
        while done < trials:
            h = _rand_poly(res.series.ring, rng)
            if h.is_zero():
                continue
            done += 1
            rep = derivative_min_check(h, chain, i, res.state.taylor_of(h))
            if rep["nu_i"] is not INF and not rep["equal"]:
                return False, INF
    return True, INF


def _stage_readings(state, read, with_beta):
    """read(eps, state) at each finite epsilon_i below beta (or equal to it,
    with_beta), leaving out the readings that raise an EngineError."""
    for entry in state.chain.entries:
        eps = entry.epsilon
        if eps is INF or cmp(eps, state.beta) >= (1 if with_beta else 0):
            continue
        try:
            out = read(eps, state)
        except EngineError:
            continue
        yield out


def _check_ent(res, rng, trials):
    """Integral dependence at each finite epsilon_i up to beta: reads the chain and the partial."""
    worst = INF
    for rel in _stage_readings(res.state, integral_dependence, with_beta=True):
        # the top coefficient, at degree max U0, has one term; nothing more is read of it
        if (not rel.monomials or len(rel.monomials[rel.degree].terms) != 1
                or cmp(rel.residual_val, rel.lam) < 0):
            return False, rel.residual_val
        if worst is INF:
            worst = rel.residual_val
    return True, worst


def _check_taylor(res, rng, trials):
    """F's Taylor form at each finite epsilon_i below beta: reads the chain and the partial."""
    for form in _stage_readings(res.state, lambda eps, state: taylor_form(state.F, eps, state),
                                with_beta=False):
        acc = form.relation_value()
        if acc.terms and cmp(acc.val(), form.lam) < 0:
            return False, acc.val()
    return True, INF


_CHECKS = {"caltron": _check_caltron, "prodfini": _check_prodfini,
           "stab": _check_stab, "min": _check_min, "ent": _check_ent,
           "taylor": _check_taylor}


def cmd_verify(spec, budget=None, prec=None):
    res = run_expand(spec, budget, prec)
    if not spec.verify:
        return 0, ""
    rng = random.Random(spec.seed)
    results = [(name, *_CHECKS[name](res, rng, spec.trials)) for name in spec.verify]
    return (0 if all(ok for _, ok, _ in results) else 1), "\n".join(
        f"check={name} status={'PASS' if ok else 'FAIL'} residual_val={rv}"
        for name, ok, rv in results)


# -- arith -----------------------------------------------------------------------------------


def cmd_arith(text):
    """Evaluate series declarations and print statements."""
    lines_out = []
    ring = None
    spec = ProblemSpec()
    env = {}
    for lineno, key, rest in _lines(text):
        if key in ("char", "p", "weights", "sqrt_disc", "series_var", "witt_prec"):
            _read_key(spec, key, rest, lineno)
            ring = None
            continue
        if ring is None:
            ring = build_ring(spec)
        if key == "let":
            if "=" not in rest:
                raise ParseError("expected 'let name = expr'", line=lineno)
            name, expr_text = (part.strip() for part in rest.split("=", 1))
            # a name an expression reads back: one identifier, not the variable
            if (not name or name[0].isdigit() or name == ring.var
                    or not all(ch.isalnum() or ch == "_" for ch in name)):
                raise ParseError(f"let binds one name other than {ring.var!r}, "
                                 f"not {name!r}", line=lineno)
            env[name] = _eval_series_expr(ring, env, expr_text, lineno)
        elif key == "print":
            val = _eval_series_expr(ring, env, rest, lineno)
            lines_out.append(val.to_text())
        else:
            raise ParseError(f"unknown statement {key!r}", line=lineno)
    return "\n".join(lines_out)


def _eval_series_expr(ring, env, text, lineno):
    """One arith expression.  The vocabulary of read_expr: rational literals,
    the uniformizer, let names and function calls, whose bare numbers are
    exponents; ``^`` takes a non-negative integer, or a rational for a
    monomial with coefficient 1.  An integer power or a product whose term
    count may pass series.MAX_POWER_TERMS is a ParseError (``check_terms``)."""
    sc = _Scanner(text, lineno)

    def atom(read):
        if sc.peek().isdigit():
            return ring.const(_coeff_from_fraction(ring, sc.number()))
        col = sc.pos
        name = sc.ident()
        if sc.peek() == "(":
            sc.take("(")
            args = [argument(read)]
            while sc.peek() == ",":
                sc.take(",")
                args.append(argument(read))
            sc.take(")")
            return _apply_func(ring, name, args, sc, col)
        if name == ring.var:
            return ring.uniformizer()
        if name in env:
            return env[name]
        sc.error(f"unknown name {name!r}", col=col)

    def argument(read):
        # a signed number alone in argument position is an exponent
        save = sc.pos
        neg = sc.peek() == "-"
        if neg:
            sc.take("-")
        if sc.peek().isdigit():
            q = sc.number()
            if sc.peek() in (",", ")"):
                return -q if neg else q
        sc.pos = save
        return read()

    def power(base):
        col = sc.pos - 1  # the ^ that read_expr took
        n = sc.exponent()
        if n < 0:
            sc.error("powers must be non-negative")
        if n.denominator == 1:
            return bounded_power(sc, base, int(n), col)
        # fractional power of a single unit monomial
        if len(base.terms) != 1:
            sc.error("fractional powers need a single monomial")
        gam, c = base.terms[0]
        if not c == ring.coeffs.one():
            sc.error("fractional powers need a unit coefficient")
        return ring.monomial(gam.scale_unchecked(n))

    return read_expr(sc, atom, power, lambda a, b: bounded_product(sc, a, b))


# name -> its argument signatures: "s" a series, "e" an exponent number
_FUNC_SIGNATURES = {
    "inv": ("s", "se"),
    "trunc_open": ("se",),
    "trunc_closed": ("se",),
    "slice": ("see",),
    "normalize": ("s",),
}
_KIND_NAMES = {"s": "series", "e": "exponent"}


def _apply_func(ring, name, args, sc, col):
    """A function call of the arith grammar; misuse is a ParseError at col."""
    sigs = _FUNC_SIGNATURES.get(name)
    if sigs is None:
        sc.error(f"unknown function {name!r}", col)
    kinds = "".join("e" if isinstance(a, Fraction) else "s" for a in args)
    if kinds not in sigs:
        def text(sig):
            return "(" + ", ".join(_KIND_NAMES[k] for k in sig) + ")"
        sc.error(f"{name} takes {' or '.join(text(sig) for sig in sigs)}, "
                 f"not {text(kinds)}", col)
    s = args[0]
    exps = [ring.descriptor.from_rational(q) for q in args[1:]]
    if name == "inv":
        if not exps and s.prec is INF:
            sc.error("inv of an exact series needs a precision", col)
        return s.inv(*exps)
    if name == "trunc_open":
        return s.truncate_open(*exps)
    if name == "trunc_closed":
        return s.truncate_closed(*exps)
    if name == "slice":
        if args[1] >= args[2]:
            sc.error("slice needs its first exponent below its second", col)
        return s.slice(*exps)
    return s.normalize()


# -- entry point ------------------------------------------------------------------------------


def main(argv=None):
    import argparse  # only the entry point pays for argparse: library callers import cli too
    parser = argparse.ArgumentParser(
        prog="genpuiseux",
        description="Exact generalized Puiseux expansions with verification")
    parser.add_argument("command", choices=["expand", "verify", "arith"])
    parser.add_argument("path", help="problem spec or expression file")
    parser.add_argument("--budget-terms", type=int, default=None)
    parser.add_argument("--prec", type=str, default=None,
                        help="maximal exponent a/b")
    parser.add_argument("--trace", type=str, default=None)
    parser.add_argument("--format", choices=["text", "records"], default=None)
    args = parser.parse_args(argv)
    for flag, value, commands in (
            ("--trace", args.trace, ("expand",)),
            ("--format", args.format, ("expand",)),
            ("--budget-terms", args.budget_terms, ("expand", "verify")),
            ("--prec", args.prec, ("expand", "verify"))):
        if value is not None and args.command not in commands:
            print(f"error: {flag} applies only to {' and '.join(commands)}",
                  file=sys.stderr)
            return 2

    try:
        with open(args.path, encoding="utf-8") as fh:
            text = fh.read()
        if args.budget_terms is not None:
            _count("--budget-terms", args.budget_terms)
        prec = None
        if args.prec is not None:
            try:
                prec = Fraction(args.prec)
            except (ValueError, ZeroDivisionError) as exc:
                raise ParseError(f"bad value for --prec: {args.prec!r}") from exc
        if args.command == "expand":
            spec = parse_problem(text)
            code, out, _ = cmd_expand(spec, fmt=args.format or "text",
                                      trace_path=args.trace,
                                      budget=args.budget_terms, prec=prec)
        elif args.command == "verify":
            spec = parse_problem(text)
            code, out = cmd_verify(spec, budget=args.budget_terms, prec=prec)
        else:
            code, out = 0, cmd_arith(text)
    except (OSError, UnicodeDecodeError) as exc:  # an unreadable spec or trace file
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except EngineError as exc:
        print(f"engine error: {exc}", file=sys.stderr)
        return 1
    try:
        if out:
            print(out, flush=True)
    except BrokenPipeError:  # the reader left, as `| head` does: exit as SIGPIPE would
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return code


if __name__ == "__main__":
    sys.exit(main())
