"""Module boundaries that a grep can keep.

A GenSeries stores raw, uncarried terms and a raw precision; only the
``series`` module reads them (``_raw``, ``_raw_prec``, ``_raw_closed``).
Every other module goes through the carried accessors or a series method.
A coefficient's ``rep`` (nested integer tuples, over Q with a denominator)
is read only in ``coeff``; other modules use its methods.  A value-group
element's exponent form (``num`` over ``den``) is read and built only in
``groups``; other modules use the element's and the descriptor's methods.
A ``functools`` cache lives only inside a call: one at module level would
share results between expansions, and between the ops of one bench process.
"""

import ast
import re
from pathlib import Path

import genpuiseux


def test_only_series_reads_the_raw_series_fields():
    package = Path(genpuiseux.__file__).parent
    readers = [f"{path.name}:{lineno}"
               for path in sorted(package.glob("*.py")) if path.name != "series.py"
               for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
               if "_raw" in line]
    assert readers == []


def test_only_coeff_reads_a_coefficient_rep():
    package = Path(genpuiseux.__file__).parent
    readers = [f"{path.name}:{lineno}"
               for path in sorted(package.glob("*.py")) if path.name != "coeff.py"
               for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
               if re.search(r"\.rep\b", line)]
    assert readers == []


def test_only_groups_reads_an_exponent_form():
    package = Path(genpuiseux.__file__).parent
    readers = [f"{path.name}:{lineno}"
               for path in sorted(package.glob("*.py")) if path.name != "groups.py"
               for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
               if re.search(r"\.num\b|\.den\b|GroupElement\(", line)]
    assert readers == []


def _caches_outside_a_call(source):
    """Lines naming functools' cache or lru_cache outside a function body: a
    decorator on a module-level function or a method, or a module-level call."""
    hits = []

    def visit(node, in_body):
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        if not in_body and name in ("cache", "lru_cache"):
            hits.append(node.lineno)
        for field, value in ast.iter_fields(node):
            inner = in_body or (field == "body" and isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)))
            for child in value if isinstance(value, list) else [value]:
                if isinstance(child, ast.AST):
                    visit(child, inner)

    visit(ast.parse(source), False)
    return hits


def test_no_cache_outlives_a_call():
    assert _caches_outside_a_call("import functools\n@functools.lru_cache(None)\ndef f(x): pass") == [2]
    assert _caches_outside_a_call("class A:\n    @cache\n    def f(self): pass") == [2]
    assert _caches_outside_a_call("g = cache(len)\ndef f():\n    @cache\n    def h(): pass") == [1]
    package = Path(genpuiseux.__file__).parent
    found = [f"{path.name}:{lineno}" for path in sorted(package.glob("*.py"))
             for lineno in _caches_outside_a_call(path.read_text(encoding="utf-8"))]
    assert found == []
