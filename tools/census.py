"""Census of the engine's function lines that no benchmark op reaches.

Usage, from anywhere (it takes no options):

    python3 tools/census.py

Every op of ``bench/workloads.all_ops``, over all four workloads, runs once
as ``bench/run.py`` issues it (``run.run_op``: ``cli.cmd_expand`` with the
records format, or ``cli.cmd_verify``) under a ``sys.settrace`` line tracer.
The function lines of a module are the lines that start an instruction in a
function or method code object of ``src/genpuiseux/<module>.py``, the ``def``
line left out.  For each module the census prints one count line,
``<module>.py unreached <n> of <total>``, and then each unreached line as
``  <module>.py:<line> <function>``.  It writes nothing and only reads the
bench files.  A run over all 528 ops takes about 25 s (Python 3.11, one
core of a 2-vCPU x86_64 VM).

The census counts lines, not branches: a line counts as reached when any
of its instructions runs, so the untaken arm of a one-line conditional
counts as reached with the taken one.  Two such arms, since deleted, went
unseen this way: ``truncalg._cut``'s fallback ``else series`` and the
``eps0 is INF`` base of ``truncalg.taylor_form``, both taken by no test
and no bench op.
"""

from __future__ import annotations

import dis
import importlib
import inspect
import os
import sys
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")
ENGINE = os.path.join(ROOT, "src", "genpuiseux")


def function_lines(path):
    """{line: function name} over the function code objects of one source file."""
    with open(path) as fh:
        module = compile(fh.read(), path, "exec")
    out = {}

    def walk(code):
        for const in code.co_consts:
            if not isinstance(const, types.CodeType):
                continue
            if const.co_flags & inspect.CO_NEWLOCALS:  # a function, not a class body
                name = getattr(const, "co_qualname", const.co_name)
                for _, line in dis.findlinestarts(const):
                    if line is not None and line != const.co_firstlineno:
                        out.setdefault(line, name)
            walk(const)

    walk(module)
    return out


def _bench_module(name):
    sys.dont_write_bytecode = True  # leave no __pycache__ under bench/
    if BENCH not in sys.path:
        sys.path.insert(0, BENCH)  # the bench modules import each other by name
    return importlib.import_module(name)


def bench_ops():
    """Every op of every workload, in the order ``workloads.all_ops`` lists them."""
    workloads = _bench_module("workloads")
    return [op for w in workloads.WORKLOADS.values() for op in workloads.all_ops(w)]


def census(ops):
    """{module file name: [(line, function)]} of the function lines no op reached."""
    run = _bench_module("run")
    cli = run.import_engine()
    engine = os.path.dirname(cli.__file__)  # as the code objects name their files
    files = {os.path.join(engine, name): name
             for name in sorted(os.listdir(engine)) if name.endswith(".py")}
    reached = set()

    def line(frame, event, arg):
        if event == "line":
            reached.add((frame.f_code.co_filename, frame.f_lineno))
        return line

    def call(frame, event, arg):
        return line if frame.f_code.co_filename in files else None

    previous = sys.gettrace()
    sys.settrace(call)
    try:
        for op in ops:
            run.run_op(cli, op)
    finally:
        sys.settrace(previous)
    return {name: sorted((n, fn) for n, fn in function_lines(path).items()
                         if (path, n) not in reached)
            for path, name in files.items()}


def main():
    ops = bench_ops()
    unreached = census(ops)
    total = {name: len(function_lines(os.path.join(ENGINE, name))) for name in unreached}
    print(f"census: {len(ops)} ops, {sum(map(len, unreached.values()))} of "
          f"{sum(total.values())} function lines reached by no op")
    for name, lines in unreached.items():
        print(f"{name} unreached {len(lines)} of {total[name]}")
        for n, fn in lines:
            print(f"  {name}:{n} {fn}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
