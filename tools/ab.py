"""Alternating parent/change runs of the benchmark, written as a BENCH file.

Usage, from anywhere:

    python3 tools/ab.py PARENT CHANGE --seeds 3601-3610 --out BENCH_36.json \
        --what "what the change does" [--workloads expand-t,verify] \
        [--seconds 16] [--claim expand-t:wall_s]

PARENT and CHANGE are two checkouts of the repository.  For each seed, and
for each workload within it, ``bench/run.py --trace 0`` runs once in each
checkout, one run at a time: odd seeds run the change first, even seeds the
parent first.  Every ``__pycache__`` under a checkout is removed before each
of its runs, so each run compiles the sources it measures.  The file is
rewritten after every pair, so a cut session leaves the pairs it finished.

The summary gives, per workload and end-to-end metric, the median and the
interquartile range of each side, the change of the medians and a
``verdict`` against the metric's relative bound in ``BENCHMARK.json``
(``verdict`` gives the rule), and per
``row <problem>@<n>`` of the bench report (the rows ``growth_slope`` is
computed from) the median of each side's row medians and their change;
``--claim`` adds, for one workload and metric, the count of pairs where the
change was lower and whether the gain is met (``claim`` gives the rule).
Each run record keeps its row medians under ``rows``.  ``sources`` names
the trees measured: for each side, a sha256 over the names and contents of
its ``src/genpuiseux/*.py``.  ``parent`` is the git revision of PARENT,
which must be the top of its own work tree (made by
``git worktree add --detach DIR REV`` or a ``git clone`` checked out at REV):
any other PARENT is refused before the first run, since a copy outside a
repository has no revision and one inside another work tree would name that
tree's HEAD.  ``parent`` cannot tell uncommitted edits in PARENT from its HEAD.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("expand-t", "expand-p", "expand-sqrt2", "verify")
METRICS = ("setup_s", "wall_s", "op_s.p50", "op_s.tail", "growth_slope", "peak_rss_mb")


def parse_seeds(text):
    """'3601-3610' or '5,7,9' as a list of ints."""
    if "-" in text:
        lo, hi = map(int, text.split("-"))
        return list(range(lo, hi + 1))
    return [int(s) for s in text.split(",")]


def order(seed):
    """The sides in the order they run on a seed: the change first on odd seeds."""
    return ("change", "parent") if seed % 2 else ("parent", "change")


def _iqr(values):
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def _median_iqr(values):
    return round(statistics.median(values), 6), round(_iqr(values), 6)


def _delta(parent, change):
    return f"{(change / parent - 1) * 100:+.1f} %"


def bounds():
    """{metric: relative bound} of the end-to-end metrics in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}


def verdict(parent, change, bound):
    """Whether a lower-is-better metric got worse by more than its relative
    bound: ``worse`` when the change's median is above the parent's median
    times (1 + bound); else ``unresolved`` when the parent's interquartile
    range exceeds bound times its median, unless every change run is below
    every parent run; else ``within``."""
    pm = statistics.median(parent)
    if statistics.median(change) > pm * (1 + bound):
        return "worse"
    if _iqr(parent) > bound * pm and not max(change) < min(parent):
        return "unresolved"
    return "within"


def parse_rows(report):
    """The ``row <problem>@<n> median <s> s (n=<k>)`` lines of a bench report
    as {row: median seconds}."""
    rows = {}
    for line in report.splitlines():
        if line.startswith("row "):
            _, row, _, value, *_ = line.split()
            rows[row] = float(value)
    return rows


def _row_summary(runs):
    """Per row: the median of each side's row medians and their change."""
    out = {}
    for row in sorted({row for r in runs for row in r.get("rows", ())}):
        parent, change = ([r["rows"][row] for r in runs if r["side"] == side
                           and row in r.get("rows", ())] for side in ("parent", "change"))
        if parent and change:
            pm, cm = statistics.median(parent), statistics.median(change)
            out[row] = {"parent_median": float(f"{pm:.6g}"),
                        "change_median": float(f"{cm:.6g}"), "delta": _delta(pm, cm)}
    return out


def summarize(runs):
    """Per workload: median and IQR of each side, the delta of the medians and
    the verdict against the metric's bound, for every end-to-end metric; the
    failed ops of each side; whether every run was correct; and, when the
    runs kept them, the row medians."""
    limits = bounds()
    out = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        entry = {}
        for metric in METRICS:
            sides = {side: [r["metrics"][metric]["value"] for r in mine if r["side"] == side]
                     for side in ("parent", "change")}
            if min(map(len, sides.values())) < 2:
                continue
            (pm, pq), (cm, cq) = _median_iqr(sides["parent"]), _median_iqr(sides["change"])
            entry[metric] = {"parent_median": pm, "parent_iqr": pq, "change_median": cm,
                             "change_iqr": cq, "delta": _delta(statistics.median(sides["parent"]),
                                                               statistics.median(sides["change"])),
                             "verdict": verdict(sides["parent"], sides["change"], limits[metric])}
        entry["failed"] = {side: sum(r["failed"] for r in mine if r["side"] == side)
                           for side in ("parent", "change")}
        entry["correct"] = all(r["correct"] for r in mine)
        if rows := _row_summary(mine):
            entry["rows"] = rows
        out[workload] = entry
    return out


def claim(runs, workload, metric):
    """The pairs of one workload (by seed), how many the change ran lower in,
    and whether the gain is ``met``: at least ten pairs, the change lower in
    at least nine tenths of them (a tie counts for neither side), and its
    median below the parent's by more than the parent's interquartile range.
    None below two pairs."""
    by_seed = {}
    for r in runs:
        if r["workload"] == workload:
            by_seed.setdefault(r["seed"], {})[r["side"]] = r["metrics"][metric]["value"]
    pairs = [p for p in by_seed.values() if len(p) == 2]
    if len(pairs) < 2:
        return None
    parent = [p["parent"] for p in pairs]
    change = [p["change"] for p in pairs]
    lower = sum(p["change"] < p["parent"] for p in pairs)
    gap = statistics.median(parent) - statistics.median(change)
    pm, pq = _median_iqr(parent)
    return {"workload": workload, "metric": metric, "pairs": len(pairs),
            "change_lower_in": lower, "parent_median": pm, "parent_iqr": pq,
            "change_median": _median_iqr(change)[0],
            "delta": _delta(statistics.median(parent), statistics.median(change)),
            "met": len(pairs) >= 10 and lower * 10 >= 9 * len(pairs) and gap > _iqr(parent)}


def _clean(checkout):
    for root, dirs, _ in os.walk(checkout):
        if "__pycache__" in dirs:
            shutil.rmtree(os.path.join(root, "__pycache__"))
            dirs.remove("__pycache__")
        dirs[:] = [d for d in dirs if d != ".git"]


def run_one(checkout, workload, seed, seconds):
    """One untraced bench run in a checkout: the JSON of its last line, with
    the row medians of its report under ``rows``."""
    _clean(checkout)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload, "--seed",
                           str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=checkout, capture_output=True, text=True)
    if proc.returncode:
        raise SystemExit(f"bench/run.py failed in {checkout} ({workload}, seed {seed}):\n"
                         f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return {**json.loads(proc.stdout.strip().splitlines()[-1]), "rows": parse_rows(proc.stdout)}


def _git(checkout, *args):
    return subprocess.run(["git", "-C", checkout, *args],
                          capture_output=True, text=True).stdout.strip()


def _revision(checkout):
    """The short HEAD revision of a checkout that is the top of its own git
    work tree, else None: git walks up from a directory to an enclosing
    repository, whose HEAD is not the checkout's."""
    top = _git(checkout, "rev-parse", "--show-toplevel")
    if not top or not os.path.samefile(top, checkout):
        return None
    return _git(checkout, "rev-parse", "--short", "HEAD") or None


def source_digest(checkout):
    """sha256 over the sorted names of a checkout's src/genpuiseux/*.py, each
    with its length and contents."""
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(checkout, "src", "genpuiseux", "*.py"))):
        with open(path, "rb") as fh:
            data = fh.read()
        digest.update(f"{os.path.basename(path)}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--seeds", required=True, help="3601-3610 or 5,7,9, recorded as given")
    ap.add_argument("--out", required=True)
    ap.add_argument("--what", required=True)
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--seconds", type=float, default=16)
    ap.add_argument("--claim", default=None, help="workload:metric")
    args = ap.parse_args(argv)
    try:
        seeds = parse_seeds(args.seeds)
    except ValueError:
        ap.error(f"argument --seeds: invalid value {args.seeds!r}")
    seconds = f"{args.seconds:g}"
    workloads = args.workloads.split(",")
    checkouts = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    parent = _revision(checkouts["parent"])
    if parent is None:
        ap.error(f"PARENT {args.parent} is not the top of a git work tree, so its revision "
                 "cannot be named; make it with 'git worktree add --detach DIR REV' or a "
                 "'git clone' checked out at REV")
    doc = {
        "what": args.what,
        "command": f"python3 bench/run.py --workload <workload> --seed <seed> "
                   f"--seconds {seconds} --trace 0",
        "parent": parent,
        "sources": {side: source_digest(path) for side, path in checkouts.items()},
        "machine": {"cpu": platform.machine(), "vcpus": os.cpu_count(),
                    "os": platform.platform()},
        "python": platform.python_version(),
        "order": f"for each seed, each of {', '.join(workloads)}; odd seeds ran the change "
                 "first and even seeds the parent first; one run at a time, each in its own "
                 "checkout with __pycache__ removed before the run (tools/ab.py)",
        "seeds": args.seeds,
        "claim": None,
        "summary": {},
        "runs": [],
    }
    for seed in seeds:
        for workload in workloads:
            for side in order(seed):
                result = run_one(checkouts[side], workload, seed, seconds)
                doc["runs"].append({**result, "side": side, "workload": workload, "seed": seed})
                print(f"{workload} seed {seed} {side}: wall_s "
                      f"{result['metrics']['wall_s']['value']:.5f}", flush=True)
            doc["summary"] = summarize(doc["runs"])
            if args.claim:
                doc["claim"] = claim(doc["runs"], *args.claim.split(":"))
            with open(args.out, "w") as fh:
                json.dump(doc, fh, indent=1)
                fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
