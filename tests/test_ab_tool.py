"""tools/ab.py's summary and claim on canned runs; no bench run happens here."""

import importlib.util
import json
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
