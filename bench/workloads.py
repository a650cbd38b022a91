"""Workloads of the genpuiseux benchmark: problem specs as text and the ops of a pass.

Every op hands the program a problem spec as text; the program parses it
with ``cli.parse_problem`` and runs it:

- an *expand op* is ``cli.cmd_expand(spec, fmt="records", budget=n)``, which
  is what ``genpuiseux expand --format records`` runs;
- a *verify op* is ``cli.cmd_verify(spec)`` with all six checks, a fixed
  ``trials`` and a ``seed`` drawn from the benchmark's seed.

Each problem runs at a budget n and at 2n, so a pass shows the growth of the
cost in the number of terms.  Why each workload exists is stated in
BENCHMARK.json and, with the layers each one should move, in bench/NOTES.md.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Verify ops draw their spec seed from range(VERIFY_SEEDS); bench/goldens
# holds the expected output for every one of them.
VERIFY_SEEDS = 64
VERIFY_TRIALS = 4

LAYERS = ("groups", "coeff", "series", "keypoly", "embed", "truncalg", "cli")


@dataclass(frozen=True)
class Problem:
    name: str
    lines: tuple      # spec lines without budget, verify, seed or trials
    budgets: tuple    # (n,) or (n, 2n)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str         # "expand" or "verify"
    problems: tuple
    smoke: str        # the problem the self-test runs
    layers: tuple     # layers that must record calls on this workload
    nominal_pass_s: float  # one pass on the reference machine (bench/NOTES.md)


@dataclass(frozen=True)
class Op:
    kind: str
    problem: str
    budget: int
    text: str         # the spec exactly as the program receives it
    spec_seed: int = -1

    @property
    def row(self):
        """The (problem, budget) row this op is reported under."""
        return f"{self.problem}@{self.budget}"

    @property
    def key(self):
        """The golden this op's output must equal."""
        if self.kind == "verify":
            return f"{self.row}#seed{self.spec_seed}"
        return self.row


def _p(name, lines, budgets):
    return Problem(name, tuple(lines), tuple(budgets))


_EXPAND_LAYERS = ("groups", "coeff", "series", "keypoly", "embed", "cli")
_SQRT2 = ("weights 1 0+1*sqrt(2)", "sqrt_disc 2", "lower_vars u2")

WORKLOADS = {w.name: w for w in (
    Workload(
        "expand-t", "expand",
        (_p("as-f2", ["char 2", "poly y^2 + t*y + t"], (12, 24)),
         _p("sq-q", ["char 0", "poly y^2 - 1 - t"], (8, 16)),
         _p("cube-q", ["char 0", "poly y^3 - t - t^2"], (6, 12)),
         _p("sq-f3", ["char 3", "poly y^2 - 2*t - t^2"], (8, 16))),
        "sq-q", _EXPAND_LAYERS, 3.2),
    Workload(
        "expand-p", "expand",
        (_p("p5", ["p 5", "witt_prec 16", "poly y^2 - 1 - p"], (8, 16)),
         _p("p3-2p", ["p 3", "witt_prec 8", "poly y^2 - 2*p"], (10,)),
         _p("p3-sqrt", ["p 3", "poly y^2 - p"], (6,))),
        "p5", _EXPAND_LAYERS, 0.9),
    Workload(
        "expand-sqrt2", "expand",
        (_p("r2-f2", ["char 2", *_SQRT2, "poly y^2 + t*y + u2"], (8, 16)),
         _p("r2-q", ["char 0", *_SQRT2, "poly y^2 - t - u2"], (8, 16))),
        "r2-f2", _EXPAND_LAYERS, 1.3),
    Workload(
        "verify", "verify",
        (_p("as-f2", ["char 2", "poly y^2 + t*y + t"], (4, 8)),
         _p("cusp-f3", ["char 3", "poly y^3 - t*y - t"], (3, 6)),
         _p("sq-q", ["char 0", "poly y^2 - 1 - t"], (4, 8)),
         _p("p5", ["p 5", "witt_prec 8", "poly y^2 - 1 - p"], (3, 6))),
        "as-f2", LAYERS, 1.5),
)}


def spec_text(problem, kind, budget, spec_seed=-1):
    lines = list(problem.lines)
    if kind == "verify":
        lines += [f"budget_terms {budget}", "verify all",
                  f"seed {spec_seed}", f"trials {VERIFY_TRIALS}"]
    return "\n".join(lines) + "\n"


def pass_ops(workload, seed, pass_index, smoke=False):
    """The ops of one pass, in the order the seed gives them.

    For verify, both budgets of a problem share one spec seed, so the ratio
    of their times reflects the budget and not the random draws.
    """
    rng = random.Random(seed * 1_000_003 + pass_index)
    ops = []
    for prob in workload.problems:
        if smoke and prob.name != workload.smoke:
            continue
        spec_seed = rng.randrange(VERIFY_SEEDS) if workload.kind == "verify" else -1
        for n in prob.budgets:
            ops.append(Op(workload.kind, prob.name, n,
                          spec_text(prob, workload.kind, n, spec_seed), spec_seed))
    rng.shuffle(ops)
    return ops


def all_ops(workload):
    """Every op a run of the workload can issue; the goldens cover these."""
    seeds = range(VERIFY_SEEDS) if workload.kind == "verify" else (-1,)
    return [Op(workload.kind, prob.name, n, spec_text(prob, workload.kind, n, s), s)
            for prob in workload.problems for s in seeds for n in prob.budgets]
