"""One tower per computation: values over two residue towers never meet.

Arithmetic and equality take operands over the same tower (or Witt ring, or
series ring) and nothing else; a state moves all of its values into a taller
tower at once, in ``PuiseuxState.with_tower``.
"""

import ast
import operator
import pathlib

import pytest

from genpuiseux import cli
from genpuiseux.coeff import CoeffElem, FieldTower, WittRing
from genpuiseux.embed import expand
from genpuiseux.errors import EngineInvariantViolation
from genpuiseux.groups import GroupDescriptor
from genpuiseux.series import SeriesRing

SRC = pathlib.Path(cli.__file__).parent
OPERATORS = [operator.add, operator.sub, operator.mul, operator.eq]


def f2_f4():
    f2 = FieldTower.prime_field(2)
    return f2, f2.adjoin((1, 1, 1))  # w^2 + w + 1 = 0


def f3_f9():
    f3 = FieldTower.prime_field(3)
    return f3, f3.adjoin((1, 0, 1))  # w^2 + 1 = 0


def coeff_pair():
    f2, f4 = f2_f4()
    return f2.one(), CoeffElem.generator(f4)


def witt_pair():
    f3, f9 = f3_f9()
    w3, w9 = WittRing(f3, 4), WittRing(f9, 4)
    return w3.from_int(2), w9.lift(CoeffElem.generator(f9))


def series_pair():
    f2, f4 = f2_f4()
    desc = GroupDescriptor([1])
    r2, r4 = SeriesRing(desc, f2), SeriesRing(desc, f4)
    return r2.uniformizer(), r4.const(CoeffElem.generator(f4)) + r4.uniformizer()


@pytest.mark.parametrize("pair", [coeff_pair, witt_pair, series_pair],
                         ids=["coeff", "witt", "series"])
@pytest.mark.parametrize("op", OPERATORS, ids=lambda op: op.__name__)
def test_operands_over_two_towers_raise(pair, op):
    low, high = pair()
    for a, b in ((low, high), (high, low)):
        with pytest.raises(EngineInvariantViolation, match="two"):
            op(a, b)
    # over one tower the same operators run, and ints still mix in
    assert op(high, high) is not None
    if pair is not series_pair:
        assert op(low, 1) is not None


def test_messages_name_both_towers():
    a, b = coeff_pair()
    with pytest.raises(EngineInvariantViolation, match=r"F2>.*F2\[w\]>"):
        a + b
    x, y = witt_pair()
    with pytest.raises(EngineInvariantViolation, match=r"F3> mod 3\^4.*F3\[w\]> mod"):
        x * y


def test_witt_lift_rejects_a_residue_over_another_tower():
    f3, f9 = f3_f9()
    w9 = WittRing(f9, 4)
    with pytest.raises(EngineInvariantViolation, match=r"F3>.*F3\[w\]>"):
        w9.lift(f3.one())
    # a residue over an equal tower built apart is over the same tower
    twin = FieldTower.prime_field(3).adjoin((1, 0, 1))
    assert w9.lift(CoeffElem.generator(twin)).residue() == CoeffElem.generator(f9)


def test_a_witt_ring_of_precision_one_is_not_its_residue_field():
    # both read their leaves mod 3, yet a value of one never meets a value of the other
    f3 = FieldTower.prime_field(3)
    w = WittRing(f3, 1)
    assert w.leaf_mod == f3.leaf_mod and w != f3 and f3 != w
    assert w == WittRing(FieldTower.prime_field(3), 1)
    for op in OPERATORS:
        for a, b in ((w.one(), f3.one()), (f3.one(), w.one())):
            with pytest.raises(EngineInvariantViolation, match="two towers"):
                op(a, b)


def test_a_witt_ring_answers_for_z_mod_p_to_the_n():
    # the ring is Z/3^4 over its residue tower, not that tower
    f3, f9 = f3_f9()
    w3, w9 = WittRing(f3, 4), WittRing(f9, 4)
    assert (w3.char, w3.cardinality(), w9.char, w9.cardinality()) == (81, 81, 81, 81 ** 2)
    assert (f3.char, f3.cardinality(), f9.char, f9.cardinality()) == (3, 3, 3, 9)
    q = FieldTower.rationals()
    assert (q.char, q.cardinality()) == (0, None)
    grown = w3.adjoin((1, 0, 1))
    assert grown == w9 and grown.tower == f9 and grown.precision == 4
    for ring in (w3, w9, q):
        with pytest.raises(ValueError, match="not a finite field"):
            ring.enumerate_elements()
    # mod p^1 the ring is its residue field's size, and lists its elements
    assert list(WittRing(f3, 1).enumerate_elements()) == list(f3.enumerate_elements()) == [0, 1, 2]
    assert len(list(f9.enumerate_elements())) == 9


def test_witt_coercion_refuses_another_precision_and_a_residue():
    f3, f9 = f3_f9()
    w3 = WittRing(f3, 4)
    assert WittRing(f9, 4).coerce(w3.from_int(5)) == WittRing(f9, 4).from_int(5)
    for ring, x in ((WittRing(f9, 5), w3.from_int(5)), (WittRing(f9, 1), f3.one())):
        with pytest.raises(ValueError, match="incompatible towers"):
            ring.coerce(x)


@pytest.mark.parametrize("text, stage", [
    ("char 2\npoly y^2 + t*y + t\n", (1, 1, 1)),     # as-f2, into F4
    ("p 5\nwitt_prec 8\npoly y^2 - 1 - p\n", (3, 0, 1)),  # W(F5), into W(F25)
], ids=["as-f2", "p5"])
def test_with_tower_moves_every_value(text, stage):
    spec = cli.parse_problem(text)
    ring = cli.build_ring(spec)
    state = expand(cli.build_valpoly(spec, ring), ring, max_terms=6).state
    assert state.emitted
    tall = ring.tower.adjoin(stage)
    moved = state.with_tower(tall)
    ring2 = moved.ring
    assert ring2.tower is tall
    # a Witt element's residue tower is its ring's, a tower element's its own
    assert all(getattr(c, "ring", c).tower is tall for _, c in moved.emitted)
    assert [g for g, _ in moved.emitted] == [g for g, _ in state.emitted]
    assert [c for _, c in moved.emitted] == [ring2.coeffs.coerce(c) for _, c in state.emitted]
    assert moved.partial.ring is ring2 and moved.F.ring is ring2
    assert all(e.poly.ring is ring2 for e in moved.chain.entries)
    assert moved.taylor_vector().is_of(moved.F, moved.partial)
    assert all(h.ring is ring2 for h in moved.taylor_vector().entries)
    # the moved values meet each other: the partial gains the last emitted term
    g, c = moved.emitted[-1]
    assert (moved.partial + ring2.monomial(g, c)).ring is ring2


def _functions(tree):
    """(name, node) of each module function and (Class.name, node) of each method."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for fn in node.body:
                if isinstance(fn, ast.FunctionDef):
                    yield f"{node.name}.{fn.name}", fn


def test_one_coercion_site_and_one_hashable_class():
    extends_callers, hashed = set(), set()
    for path in sorted(SRC.glob("*.py")):
        for name, fn in _functions(ast.parse(path.read_text())):
            if name.endswith(".__hash__"):
                hashed.add(name)
            for node in ast.walk(fn):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "extends"):
                    extends_callers.add(name)
    assert extends_callers == {"FieldTower.coerce_rep"}
    # GroupElement is the one dict key (the exponents of a series)
    assert hashed == {"GroupElement.__hash__"}
