"""The term-budget ladder: time and output digest of expand, cell by cell.

Usage, from anywhere (it takes no options):

    python3 tools/ladder.py

A cell is one problem at one term budget, run untraced as
``cli.cmd_expand(cli.parse_problem(spec), fmt="records", budget=n)``.  The
problems are ROADMAP's growth table (``as-f2``, ``sq-q``, ``cube-q``,
``sq-f3`` and ``r2-q`` at budgets 16, 32, 64 and 128) and the carry-heavy
``p3-cube`` (``p 3``, ``witt_prec 12``, y^3 - p - p^2) at 12 and 24.  Each
cell prints one line, ``<problem>@<n> <seconds> s <digest>``: the best of
four timed runs, and the first 12 hex digits of the sha256 of the records
output.  Two trees that print the same digests print the same bytes past
the 24 terms the bench goldens reach.  After a problem's cells comes the
ratio of its times at its last two budgets, ``<problem> ×(64→128) <ratio>``.
It writes nothing and only reads the engine sources.  A full run takes
about 5 s (Python 3.11, one core of a 2-vCPU x86_64 VM).
"""

from __future__ import annotations

import hashlib
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

LADDER = (16, 32, 64, 128)
_SQRT2 = ("weights 1 0+1*sqrt(2)", "sqrt_disc 2", "lower_vars u2")
# problem: (spec lines, budgets)
PROBLEMS = {
    "as-f2": (("char 2", "poly y^2 + t*y + t"), LADDER),
    "sq-q": (("char 0", "poly y^2 - 1 - t"), LADDER),
    "cube-q": (("char 0", "poly y^3 - t - t^2"), LADDER),
    "sq-f3": (("char 3", "poly y^2 - 2*t - t^2"), LADDER),
    "r2-q": (("char 0", *_SQRT2, "poly y^2 - t - u2"), LADDER),
    "p3-cube": (("p 3", "witt_prec 12", "poly y^3 - p - p^2"), (12, 24)),
}


def import_engine():
    """genpuiseux.cli from this tree's src."""
    sys.path.insert(0, SRC)
    from genpuiseux import cli
    return cli


def run_cell(cli, problem, budget, repeat=4):
    """The best of repeat timed expands of one cell, in seconds, and the
    first 12 hex digits of the sha256 of its records output."""
    text = "\n".join(PROBLEMS[problem][0]) + "\n"
    best = None
    for _ in range(repeat):
        start = time.perf_counter()
        _, out, _ = cli.cmd_expand(cli.parse_problem(text), fmt="records", budget=budget)
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best, hashlib.sha256(out.encode()).hexdigest()[:12]


def cell_line(problem, budget, seconds, digest):
    return f"{problem}@{budget} {seconds:.5f} s {digest}"


def main():
    cli = import_engine()
    for problem, (_, budgets) in PROBLEMS.items():
        times = {}
        for n in budgets:
            times[n], digest = run_cell(cli, problem, n)
            print(cell_line(problem, n, times[n], digest), flush=True)
        lo, hi = budgets[-2:]
        print(f"{problem} ×({lo}→{hi}) {times[hi] / times[lo]:.2f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
