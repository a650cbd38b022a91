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

Then come the ``verify`` cells, ``verify:<problem>@<n>``: the bench's four
``verify`` problems with its verify lines (``verify all``, ``seed 0``,
``trials 4``) at budgets 8, 16 and 32, where the bench stops at 8, each
run as ``cli.cmd_verify(cli.parse_problem(spec))`` and digested on its
six check lines.  Those lines read the same at all three budgets of a
problem, so a verify digest pins the verdicts and ``ent``'s margin, not
the series; the times give ``verify``'s growth past the bench.  After
each verify cell comes its split, ``<cell> split expand <s> caltron <s>
... taylor <s>``: the best of four timed runs of the expand and of each
check, replayed as ``cmd_verify`` runs them, on one state with the checks
drawing from one seeded rng in turn.  It writes nothing and only reads the
engine sources.  A full run takes about 12 s (Python 3.11, one core of a
2-vCPU x86_64 VM).
"""

from __future__ import annotations

import hashlib
import os
import random
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
VERIFY_LADDER = (8, 16, 32)
# the bench's verify problems: spec lines, run with VERIFY_LINES
VERIFY_PROBLEMS = {
    "as-f2": ("char 2", "poly y^2 + t*y + t"),
    "cusp-f3": ("char 3", "poly y^3 - t*y - t"),
    "sq-q": ("char 0", "poly y^2 - 1 - t"),
    "p5": ("p 5", "witt_prec 8", "poly y^2 - 1 - p"),
}
VERIFY_LINES = ("verify all", "seed 0", "trials 4")


def import_engine():
    """genpuiseux.cli from this tree's src."""
    sys.path.insert(0, SRC)
    from genpuiseux import cli
    return cli


def _best(run, repeat):
    """The best of repeat timed calls of run, in seconds, and the first 12
    hex digits of the sha256 of the text it returns."""
    best = None
    for _ in range(repeat):
        start = time.perf_counter()
        out = run()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best, hashlib.sha256(out.encode()).hexdigest()[:12]


def run_cell(cli, problem, budget, repeat=4):
    """The time and digest of one expand cell, on its records output."""
    text = "\n".join(PROBLEMS[problem][0]) + "\n"
    return _best(lambda: cli.cmd_expand(cli.parse_problem(text), fmt="records",
                                        budget=budget)[1], repeat)


def _verify_spec(cli, problem, budget):
    return cli.parse_problem(
        "\n".join((*VERIFY_PROBLEMS[problem], f"budget_terms {budget}", *VERIFY_LINES)) + "\n")


def run_verify_cell(cli, problem, budget, repeat=4):
    """The time and digest of one verify cell, on its check lines."""
    return _best(lambda: cli.cmd_verify(_verify_spec(cli, problem, budget))[1], repeat)


def run_verify_split(cli, problem, budget, repeat=4):
    """The best of repeat timed runs of one verify cell's expand and of each
    of its checks, by name, replayed as ``cmd_verify`` runs them: one state,
    the checks drawing from one rng seeded by the spec in turn.  Also the
    (name, ok, margin) of each check in the last run."""
    spec = _verify_spec(cli, problem, budget)
    best = {}
    for _ in range(repeat):
        start = time.perf_counter()
        state = cli.run_expand(spec).state
        times, results = {"expand": time.perf_counter() - start}, []
        rng = random.Random(spec.seed)
        for name in spec.verify:
            start = time.perf_counter()
            results.append((name, *cli._CHECKS[name](state, rng, spec.trials)))
            times[name] = time.perf_counter() - start
        best = {k: min(v, best.get(k, v)) for k, v in times.items()}
    return best, results


def cell_line(problem, budget, seconds, digest):
    return f"{problem}@{budget} {seconds:.5f} s {digest}"


def split_line(problem, budget, seconds):
    return f"{problem}@{budget} split " + " ".join(f"{k} {v:.5f}" for k, v in seconds.items())


def _ladder(name, budgets, run, split=None):
    times = {}
    for n in budgets:
        times[n], digest = run(n)
        print(cell_line(name, n, times[n], digest), flush=True)
        if split:
            print(split_line(name, n, split(n)), flush=True)
    lo, hi = budgets[-2:]
    print(f"{name} ×({lo}→{hi}) {times[hi] / times[lo]:.2f}", flush=True)


def main():
    cli = import_engine()
    for problem, (_, budgets) in PROBLEMS.items():
        _ladder(problem, budgets, lambda n: run_cell(cli, problem, n))
    for problem in VERIFY_PROBLEMS:
        _ladder(f"verify:{problem}", VERIFY_LADDER, lambda n: run_verify_cell(cli, problem, n),
                lambda n: run_verify_split(cli, problem, n)[0])
    return 0


if __name__ == "__main__":
    sys.exit(main())
