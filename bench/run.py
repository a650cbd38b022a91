"""Benchmark of the genpuiseux engine.

Usage, from the root of a checkout:

    python3 bench/run.py --workload expand-t --seed 1 --seconds 20 --trace 0

Runs one workload in this single process as a closed loop: one caller issues
each op only after the previous one returned, with no threads.  The engine is
imported from ``src/`` of the checkout and receives only problem specs as
text.  Every op's output is compared byte for byte with its golden in
``bench/goldens``.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` wraps the layer
modules with ``tracer.Tracer`` and reports the per-layer metrics.  A report
for people goes first on standard output; the last line is one JSON object
with the keys correct, attempted, failed and metrics.  The harness exits
with code 1 (2 when the engine's sources are missing) and prints no JSON
when it cannot vouch for its numbers.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

import reference
import workloads
from workloads import WORKLOADS

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")

SETUP_PROBES = 7
# A run never measures longer than this, so it ends within its time limit
# even on a much slower machine.
MAX_MEASURE_S = 120.0

END_TO_END = {"setup_s": "s", "wall_s": "s", "op_s.p50": "s", "op_s.tail": "s",
              "growth_slope": "log2", "peak_rss_mb": "MiB"}


class BenchError(Exception):
    """The harness cannot vouch for its numbers."""


def import_engine():
    if not os.path.isfile(os.path.join(SRC, "genpuiseux", "__init__.py")):
        raise FileNotFoundError(f"no engine sources under {SRC}")
    sys.path.insert(0, SRC)
    from genpuiseux import cli
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise BenchError(f"genpuiseux imported from {cli.__file__}, not {SRC}")
    return cli


def load_goldens(workload):
    path = os.path.join(BENCH, "goldens", f"{workload.name}.json")
    with open(path) as fh:
        return json.load(fh)


def run_op(cli, op):
    """One op as the program's user issues it; returns (exit code, output)."""
    spec = cli.parse_problem(op.text)
    if op.kind == "expand":
        code, out, _ = cli.cmd_expand(spec, fmt="records", budget=op.budget)
        return code, out
    return cli.cmd_verify(spec)


class Pass:
    """Timings and outcomes of one pass over a list of ops.

    The reference kernel runs before the first op and after every op.  Each
    op's time is divided by the slowdown of the two kernels around it, which
    gives ``op_s``.  ``wall`` sums the corrected op times, ``raw_wall`` the
    measured ones.
    """

    def __init__(self, cli, ops, goldens):
        self.op_s = []          # (row, seconds at nominal speed)
        self.raw_wall = 0.0
        self.failed = 0         # raised, or output differs from the golden
        self.exit1 = 0          # verify ops that report a failed check
        self.problems = []
        before = reference.timed()
        for op in ops:
            t0 = time.perf_counter()
            try:
                code, out = run_op(cli, op)
            except Exception as exc:  # an op that raises counts as failed
                code, out = None, repr(exc)
            dt = time.perf_counter() - t0
            after = reference.timed()
            self.op_s.append((op.row, dt / reference.speed((before + after) / 2)))
            self.raw_wall += dt
            before = after
            gold = goldens.get(op.key)
            if code is None:
                self.failed += 1
                self.problems.append(f"{op.key}: raised {out}")
            elif gold is None or gold["code"] != code or gold["out"] != out:
                self.failed += 1
                self.problems.append(f"{op.key}: output differs from the golden")
            elif code == 1:
                self.exit1 += 1
        self.wall = sum(dt for _, dt in self.op_s)


# -- end-to-end metrics --------------------------------------------------------------


def setup_times(workload, seed, probes):
    """Set-up seconds of fresh processes: import, parse, build rings and ValPolys.

    Each is divided by the slowdown the reference kernel saw in its process.
    """
    out = []
    for _ in range(probes):
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH, "setup_probe.py"),
             workload.name, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise BenchError(f"setup probe failed: {proc.stderr.strip()}")
        setup_s, kernel_s = proc.stdout.split()
        out.append(float(setup_s) / reference.speed(float(kernel_s)))
    return out


def tail(values):
    """(percentile, value) of the highest percentile with ten samples beyond it."""
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return 100.0, xs[-1]
    return 100.0 * (n - 10) / n, xs[n - 11]


def growth_slope(workload, row_median):
    slopes = []
    for prob in workload.problems:
        times = [row_median.get(f"{prob.name}@{n}") for n in prob.budgets]
        if len(times) == 2 and all(times):
            slopes.append(math.log2(times[1] / times[0]))
    return statistics.median(slopes)


def measure(cli, workload, seed, seconds, smoke):
    goldens = load_goldens(workload)
    passes_planned = 1 if smoke else max(1, round(seconds / workload.nominal_pass_s))
    setup = setup_times(workload, seed, 1 if smoke else SETUP_PROBES)
    passes = []
    t_start = time.perf_counter()
    for k in range(passes_planned):
        passes.append(Pass(cli, workloads.pass_ops(workload, seed, k, smoke), goldens))
        if time.perf_counter() - t_start > MAX_MEASURE_S:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    by_row = {}
    for p in passes:
        for row, dt in p.op_s:
            by_row.setdefault(row, []).append(dt)
    row_median = {row: statistics.median(v) for row, v in by_row.items()}
    # Each op sample counts at its row's median.  Every problem runs at n and
    # 2n, so the samples fall in clusters with wide gaps between them, and a
    # percentile of the raw samples lands on a cluster's noisy edge.
    op_s = [row_median[row] for p in passes for row, _ in p.op_s]
    q, tail_s = tail(op_s)
    attempted = len(op_s)
    failed = sum(p.failed for p in passes)
    exit1 = sum(p.exit1 for p in passes)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(p.wall for p in passes),
        "op_s.p50": statistics.median(op_s),
        "op_s.tail": tail_s,
        "growth_slope": growth_slope(workload, row_median),
        "peak_rss_mb": peak_rss_mb,
    }
    report = [f"workload {workload.name}: {len(passes)} passes, {attempted} ops, "
              f"closed loop, one caller",
              f"times are at the reference kernel's nominal speed; the measured "
              f"pass wall median is {statistics.median(p.raw_wall for p in passes):.6g} s",
              f"op_s.tail is p{q:.1f} of {attempted} op samples",
              f"fail_ratio {(failed + exit1) / attempted:.4f} ratio ({failed} raised "
              f"or differ from the golden, {exit1} verify ops exit 1)"]
    for name, unit in END_TO_END.items():
        report.append(f"{name} {metrics[name]:.6g} {unit}")
    for row in sorted(by_row):
        report.append(f"row {row} median {row_median[row]:.6g} s (n={len(by_row[row])})")
    report += [f"problem {msg}" for p in passes for msg in p.problems]
    return report, attempted, failed, {k: (metrics[k], u) for k, u in END_TO_END.items()}


# -- per-layer metrics ---------------------------------------------------------------


def measure_traced(cli, workload, seed, smoke):
    """Untraced, traced, traced, untraced passes over the same ops."""
    from tracer import PER_LAYER, Tracer

    goldens = load_goldens(workload)
    ops = workloads.pass_ops(workload, seed, 0, smoke)
    tracer = Tracer()
    plain = [Pass(cli, ops, goldens)]
    traced, counts = [], []
    tracer.install()
    try:
        for _ in range(2):
            tracer.reset()
            traced.append(Pass(cli, ops, goldens))
            counts.append(tracer.counts())
        metrics = tracer.metrics()
        layer_calls = tracer.layer_calls()
    finally:
        tracer.remove()
    plain.append(Pass(cli, ops, goldens))

    if counts[0] != counts[1]:
        diff = sorted(k for k in counts[0] if counts[0][k] != counts[1].get(k))
        raise BenchError(f"counts differ between two traced passes: {diff}")
    idle = [layer for layer in workload.layers if layer_calls[layer] == 0]
    if idle:
        raise BenchError(f"layers recorded no calls on {workload.name}: {idle}")
    # Per-layer times are measured seconds, not scaled by the reference kernel.
    in_ops = traced[-1].raw_wall
    layer_sum = sum(metrics[f"{layer}.self_s"] for layer in workloads.LAYERS)
    if not 0.9 * in_ops <= layer_sum <= in_ops:
        raise BenchError(f"layer self times sum to {layer_sum:.4f} s, "
                         f"the traced ops took {in_ops:.4f} s")
    metrics["trace.pass_s"] = in_ops
    metrics["trace.overhead_s"] = (statistics.median(p.raw_wall for p in traced)
                                   - statistics.median(p.raw_wall for p in plain))
    passes = plain + traced
    attempted = sum(len(p.op_s) for p in passes)
    failed = sum(p.failed for p in passes)
    report = [f"workload {workload.name}: traced run over {len(ops)} ops; untraced "
              f"passes {plain[0].raw_wall:.4f} s and {plain[1].raw_wall:.4f} s, "
              f"traced {traced[0].raw_wall:.4f} s and {traced[1].raw_wall:.4f} s",
              f"layer self times sum to {layer_sum:.4f} s of {in_ops:.4f} s in ops",
              "layer calls " + " ".join(f"{k}={v}" for k, v in layer_calls.items())]
    report += [f"{name} {metrics[name]:.6g} {unit}" for name, unit in PER_LAYER.items()]
    report += [f"problem {msg}" for p in passes for msg in p.problems]
    return report, attempted, failed, {k: (metrics[k], u) for k, u in PER_LAYER.items()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="one problem per workload and one pass (self-test)")
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]
    try:
        cli = import_engine()
    except (FileNotFoundError, ImportError, BenchError) as exc:
        print(f"bench: cannot import the engine: {exc}", file=sys.stderr)
        return 2
    try:
        if args.trace:
            report, attempted, failed, metrics = measure_traced(
                cli, workload, args.seed, args.smoke)
        else:
            report, attempted, failed, metrics = measure(
                cli, workload, args.seed, args.seconds, args.smoke)
    except (BenchError, OSError, subprocess.SubprocessError, RuntimeError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print("\n".join(report))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
