"""tools/census.py on one bench op: the function lines it leaves unreached."""

import importlib.util
import os
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("census", ROOT / "tools" / "census.py")
census = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(census)


def test_one_expand_op_leaves_the_other_front_doors_unreached():
    op = census.bench_ops()[0]
    assert op.kind == "expand"
    unreached = census.census([op])
    engine = ROOT / "src" / "genpuiseux"
    assert set(unreached) == {p.name for p in engine.glob("*.py")}
    for name, lines in unreached.items():
        known = census.function_lines(os.path.join(engine, name))
        assert all(known[n] == fn for n, fn in lines), name
    missed = {name: {n for n, _ in lines} for name, lines in unreached.items()}

    def first_line(name, function):
        return min(n for n, fn in census.function_lines(os.path.join(engine, name)).items()
                   if fn == function)

    # an expand op never runs arith or verify, and always takes a step
    for function in ("cmd_arith", "cmd_verify", "_check_min"):
        assert first_line("cli.py", function) in missed["cli.py"], function
    assert first_line("cli.py", "cmd_expand") not in missed["cli.py"]
    assert first_line("embed.py", "step") not in missed["embed.py"]
