"""tools/ab.py's summary and claim on canned runs; no bench run happens here."""

import importlib.util
import json
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("ab", ROOT / "tools" / "ab.py")
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)


def _run(side, seed, wall, workload="expand-t", failed=0):
    metrics = {m: {"value": 1.0, "unit": "s"} for m in ab.METRICS}
    metrics["wall_s"] = {"value": wall, "unit": "s"}
    return {"correct": True, "attempted": 40, "failed": failed, "metrics": metrics,
            "side": side, "workload": workload, "seed": seed}


def test_seeds_and_the_alternating_order():
    assert ab.parse_seeds("3601-3604") == [3601, 3602, 3603, 3604]
    assert ab.parse_seeds("5,7,9") == [5, 7, 9]
    assert ab.order(3601) == ("change", "parent")
    assert ab.order(3602) == ("parent", "change")


def test_summary_median_iqr_and_delta_of_canned_runs():
    parent = [0.030, 0.031, 0.029, 0.032, 0.028]
    change = [0.027, 0.028, 0.026, 0.029, 0.025]
    runs = [_run("parent", s, v) for s, v in enumerate(parent)]
    runs += [_run("change", s, v, failed=int(s == 0)) for s, v in enumerate(change)]
    summary = ab.summarize(runs)["expand-t"]
    # inclusive quartiles of five values are the second and fourth
    assert summary["wall_s"] == {"parent_median": 0.03, "parent_iqr": 0.002,
                                 "change_median": 0.027, "change_iqr": 0.002, "delta": "-10.0 %"}
    assert summary["setup_s"]["delta"] == "+0.0 %"
    assert summary["failed"] == {"parent": 0, "change": 1}
    assert summary["correct"] is True
    claim = ab.claim(runs, "expand-t", "wall_s")
    assert claim == {"workload": "expand-t", "metric": "wall_s", "pairs": 5,
                     "change_lower_in": 5, "parent_median": 0.03, "parent_iqr": 0.002,
                     "change_median": 0.027, "delta": "-10.0 %"}
    # a pair is counted only when both sides ran on its seed
    assert ab.claim(runs[:5] + runs[5:6], "expand-t", "wall_s") is None


def test_summary_reproduces_a_committed_bench_file():
    doc = json.loads((ROOT / "BENCH_35.json").read_text())
    assert ab.summarize(doc["runs"]) == doc["summary"]


# the tail of a bench/run.py report: metric lines, row lines, then the JSON line
_REPORT = """workload expand-p: 12 passes, 480 ops, closed loop, one caller
wall_s 0.0178 s
growth_slope 0.789 log2
row p3-2p@10 median 0.00262 s (n=12)
row p5@16 median 0.00481 s (n=12)
row p5@8 median 0.00285 s (n=12)
problem none
{"correct": true, "attempted": 480, "failed": 0, "metrics": {}}
"""


def test_row_medians_are_parsed_from_the_report():
    assert ab.parse_rows(_REPORT) == {"p3-2p@10": 0.00262, "p5@16": 0.00481, "p5@8": 0.00285}
    assert ab.parse_rows("wall_s 0.0178 s\n") == {}


def test_run_one_keeps_the_row_medians(monkeypatch, tmp_path):
    calls = []

    def fake_run(cmd, **kwargs):
        calls.append((cmd, kwargs["cwd"]))
        return subprocess.CompletedProcess(cmd, 0, stdout=_REPORT, stderr="")

    monkeypatch.setattr(ab.subprocess, "run", fake_run)
    record = ab.run_one(str(tmp_path), "expand-p", 7, "16")
    assert record == {"correct": True, "attempted": 480, "failed": 0, "metrics": {},
                      "rows": {"p3-2p@10": 0.00262, "p5@16": 0.00481, "p5@8": 0.00285}}
    assert calls == [([ab.sys.executable, "bench/run.py", "--workload", "expand-p", "--seed",
                       "7", "--seconds", "16", "--trace", "0"], str(tmp_path))]


def test_summary_gives_each_row_its_medians_and_delta():
    runs = []
    for seed, (p8, c8) in enumerate([(0.0030, 0.0027), (0.0029, 0.0026), (0.0031, 0.0028)]):
        runs.append({**_run("parent", seed, 0.018, "expand-p"), "rows": {"p5@8": p8, "p5@16": 0.005}})
        runs.append({**_run("change", seed, 0.016, "expand-p"), "rows": {"p5@8": c8}})
    rows = ab.summarize(runs)["expand-p"]["rows"]
    # a row that only one side ran is left out
    assert rows == {"p5@8": {"parent_median": 0.003, "change_median": 0.0027, "delta": "-10.0 %"}}
    # runs without row medians (files written before they were kept) give no rows
    assert "rows" not in ab.summarize([_run("parent", 0, 0.01), _run("change", 0, 0.01)])["expand-t"]
