"""Self-test of the benchmark: a tiny run of every workload, traced and untraced.

Run from the root of a checkout: python3 -m pytest -q bench/test_bench.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import workloads
from tracer import PER_LAYER, Tracer

ROOT = run.ROOT


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run_reports_every_metric(name, trace):
    proc = bench("--workload", name, "--seed", "3", "--seconds", "1",
                 "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = PER_LAYER if trace == "1" else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_missing_engine_fails_without_result(tmp_path):
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = bench("--workload", "expand-p", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_output_that_differs_from_the_golden_fails():
    cli = run.import_engine()
    workload = workloads.WORKLOADS["expand-p"]
    ops = workloads.pass_ops(workload, 1, 0, smoke=True)
    goldens = run.load_goldens(workload)
    assert run.Pass(cli, ops, goldens).failed == 0
    tampered = {k: {"code": g["code"], "out": g["out"] + " "} for k, g in goldens.items()}
    assert run.Pass(cli, ops, tampered).failed == len(ops)


def test_tracer_wraps_by_value_imports_and_leaves_nothing_behind():
    cli = run.import_engine()
    from genpuiseux import coeff, embed, groups, keypoly, series

    plain = (embed.solve_in_closure, keypoly.eval_poly, cli.cmp,
             groups.GroupDescriptor.compare)
    tracer = Tracer()
    tracer.install()
    try:
        for fn in (embed.solve_in_closure, coeff.solve_in_closure,
                   keypoly.eval_poly, series.eval_poly, cli.cmp, embed.cmp,
                   groups.GroupDescriptor.compare):
            assert hasattr(fn, "_bench_original")
        workload = workloads.WORKLOADS["expand-t"]
        op = workloads.pass_ops(workload, 1, 0, smoke=True)[0]
        run.run_op(cli, op)
        assert tracer.layer_calls()["embed"] > 0
    finally:
        tracer.remove()
    assert tracer.leftover_wrappers() == []
    assert (embed.solve_in_closure, keypoly.eval_poly, cli.cmp,
            groups.GroupDescriptor.compare) == plain
