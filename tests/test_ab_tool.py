"""tools/ab.py's summary and claim on canned runs; no bench run happens here."""

import importlib.util
import json
import shutil
import subprocess
from pathlib import Path

import pytest

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


def test_main_records_the_seeds_as_given(monkeypatch, tmp_path):
    ran = []

    def fake_run_one(checkout, workload, seed, seconds):
        ran.append(seed)
        return {"correct": True, "attempted": 1, "failed": 0,
                "metrics": {m: {"value": 0.01, "unit": "s"} for m in ab.METRICS}}

    monkeypatch.setattr(ab, "run_one", fake_run_one)
    monkeypatch.setattr(ab, "_revision", lambda checkout: "abc1234")
    out = tmp_path / "bench.json"
    ab.main([str(tmp_path), str(tmp_path), "--seeds", "5,7,9", "--out", str(out),
             "--what", "seeds", "--workloads", "expand-t"])
    # a list of seeds is recorded as it was given, not as the range 5-9
    assert json.loads(out.read_text())["seeds"] == "5,7,9"
    assert ran == [5, 5, 7, 7, 9, 9]


def _tree(root, files):
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return root


def test_source_digest_reads_the_package_sources_of_each_tree(tmp_path):
    files = {"src/genpuiseux/a.py": "x = 1\n", "src/genpuiseux/b.py": "y = 2\n"}
    a = _tree(tmp_path / "a", files)
    b = _tree(tmp_path / "b", files)
    digest = ab.source_digest(a)
    assert len(digest) == 64 and ab.source_digest(b) == digest
    # files outside src/genpuiseux/*.py do not count
    _tree(b, {"README.md": "text", "src/genpuiseux/notes.txt": "z", "tests/test_a.py": "t"})
    assert ab.source_digest(b) == digest
    # a changed byte, a renamed file and text moved between files each change it
    variants = [{"src/genpuiseux/a.py": "x = 3\n", "src/genpuiseux/b.py": "y = 2\n"},
                {"src/genpuiseux/a.py": "x = 1\n", "src/genpuiseux/c.py": "y = 2\n"},
                {"src/genpuiseux/a.py": "x = 1\ny = 2\n", "src/genpuiseux/b.py": ""}]
    for k, variant in enumerate(variants):
        assert ab.source_digest(_tree(tmp_path / f"v{k}", variant)) != digest, variant


def test_main_records_the_sources_of_both_sides(monkeypatch, tmp_path):
    parent = _tree(tmp_path / "parent", {"src/genpuiseux/a.py": "x = 1\n"})
    change = _tree(tmp_path / "change", {"src/genpuiseux/a.py": "x = 2\n"})
    monkeypatch.setattr(ab, "run_one", lambda checkout, workload, seed, seconds: {
        "correct": True, "attempted": 1, "failed": 0,
        "metrics": {m: {"value": 0.01, "unit": "s"} for m in ab.METRICS}})
    monkeypatch.setattr(ab, "_revision", lambda checkout: "abc1234")
    out = tmp_path / "bench.json"
    ab.main([str(parent), str(change), "--seeds", "5", "--out", str(out),
             "--what", "sources", "--workloads", "expand-t"])
    doc = json.loads(out.read_text())
    assert doc["parent"] == "abc1234"
    assert doc["sources"] == {"parent": ab.source_digest(parent),
                              "change": ab.source_digest(change)}
    assert doc["sources"]["parent"] != doc["sources"]["change"]


def test_summary_median_iqr_and_delta_of_canned_runs():
    parent = [0.030, 0.031, 0.029, 0.032, 0.028]
    change = [0.027, 0.028, 0.026, 0.029, 0.025]
    runs = [_run("parent", s, v) for s, v in enumerate(parent)]
    runs += [_run("change", s, v, failed=int(s == 0)) for s, v in enumerate(change)]
    summary = ab.summarize(runs)["expand-t"]
    # inclusive quartiles of five values are the second and fourth
    assert summary["wall_s"] == {"parent_median": 0.03, "parent_iqr": 0.002,
                                 "change_median": 0.027, "change_iqr": 0.002, "delta": "-10.0 %",
                                 "verdict": "within"}
    assert summary["setup_s"]["delta"] == "+0.0 %"
    assert summary["failed"] == {"parent": 0, "change": 1}
    assert summary["correct"] is True
    claim = ab.claim(runs, "expand-t", "wall_s")
    assert claim == {"workload": "expand-t", "metric": "wall_s", "pairs": 5,
                     "change_lower_in": 5, "parent_median": 0.03, "parent_iqr": 0.002,
                     "change_median": 0.027, "delta": "-10.0 %", "met": False}
    # a pair is counted only when both sides ran on its seed
    assert ab.claim(runs[:5] + runs[5:6], "expand-t", "wall_s") is None


def test_a_claim_is_met_on_nine_tenths_of_the_pairs_past_the_parent_spread():
    parent = [0.0320, 0.0321, 0.0322, 0.0323, 0.0324, 0.0325, 0.0326, 0.0327, 0.0328, 0.0329]

    def met(change):
        runs = [_run(side, s, v) for s, pair in enumerate(zip(parent, change))
                for side, v in zip(("parent", "change"), pair)]
        return ab.claim(runs, "expand-t", "wall_s")

    # lower in 9 of 10 pairs, a tie in the tenth; the medians 16 % apart
    won = met([0.0270, 0.0271, 0.0272, 0.0273, 0.0324, 0.0275, 0.0276, 0.0277, 0.0278, 0.0279])
    assert won["change_lower_in"] == 9 and won["met"] is True
    # lower in 8 of 10: the win count fails, whatever the medians
    few = met([0.0270, 0.0271, 0.0272, 0.0273, 0.0330, 0.0331, 0.0276, 0.0277, 0.0278, 0.0279])
    assert few["change_lower_in"] == 8 and few["met"] is False
    # lower in all 10, but the medians differ by less than the parent's
    # interquartile range (0.032675 - 0.032225)
    close = met([v - 0.0004 for v in parent])
    assert close["change_lower_in"] == 10 and close["parent_iqr"] == 0.00045
    assert close["met"] is False
    # nine pairs are too few, however they read
    nine = met([0.0270] * 9)
    assert nine["pairs"] == 9 and nine["met"] is False


def _verdict(parent, change):
    runs = [_run("parent", s, v) for s, v in enumerate(parent)]
    runs += [_run("change", s, v) for s, v in enumerate(change)]
    return ab.summarize(runs)["expand-t"]["wall_s"]["verdict"]


def test_a_verdict_reads_the_bound_of_benchmark_json():
    assert ab.bounds()["wall_s"] == 0.25 and ab.bounds()["peak_rss_mb"] == 0.05
    parent = [0.030, 0.031, 0.029, 0.032, 0.028]
    # the change's median 0.0376 is above 0.03 * 1.25 = 0.0375
    assert _verdict(parent, [0.0376, 0.0377, 0.0375, 0.0378, 0.0374]) == "worse"
    # 0.0374 is not, and the parent's spread (0.002) is below 0.25 * 0.03
    assert _verdict(parent, [0.0374, 0.0375, 0.0373, 0.0376, 0.0372]) == "within"
    # a parent whose interquartile range (0.01) exceeds 0.25 * its median
    # (0.03) cannot tell a change within the bound from one past it ...
    wide = [0.020, 0.025, 0.030, 0.035, 0.040]
    assert _verdict(wide, [0.029, 0.030, 0.031, 0.032, 0.033]) == "unresolved"
    # ... unless every change run is below every parent run
    assert _verdict(wide, [0.015, 0.016, 0.017, 0.018, 0.019]) == "within"
    # a change median above the bound is worse, however wide the parent
    assert _verdict(wide, [0.040, 0.041, 0.042, 0.043, 0.044]) == "worse"


def test_summary_reproduces_a_committed_bench_file():
    doc = json.loads((ROOT / "BENCH_35.json").read_text())
    summary = ab.summarize(doc["runs"])
    # the file was written before the verdict was kept; all else is as committed
    verdicts = {v.pop("verdict") for entry in summary.values() for metric, v in entry.items()
                if metric in ab.METRICS}
    assert summary == doc["summary"]
    assert verdicts <= {"within", "worse", "unresolved"}


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


def _git(cwd, *args):
    subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args], cwd=cwd,
                   check=True, capture_output=True)


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_a_parent_without_its_own_revision_is_refused_before_any_run(monkeypatch, tmp_path,
                                                                     capsys):
    monkeypatch.setattr(ab, "run_one", lambda *a: pytest.fail("a run started"))
    repo = tmp_path / "repo"
    _tree(repo, {"src/genpuiseux/a.py": "x = 1\n", "copy/src/genpuiseux/a.py": "x = 1\n"})
    _git(repo, "init", "-q")
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", "a")
    outside = _tree(tmp_path / "outside", {"src/genpuiseux/a.py": "x = 1\n"})
    # a copy outside any repository has no revision, and one inside another
    # work tree would be named by that tree's HEAD
    assert ab._revision(str(outside)) is None and ab._revision(str(repo / "copy")) is None
    assert len(ab._revision(str(repo))) >= 7
    out = tmp_path / "bench.json"
    for parent in (outside, repo / "copy"):
        with pytest.raises(SystemExit) as stop:
            ab.main([str(parent), str(repo), "--seeds", "5", "--out", str(out),
                     "--what", "refused", "--workloads", "expand-t"])
        assert stop.value.code == 2
        assert "not the top of a git work tree" in capsys.readouterr().err
        assert not out.exists()
