"""Tests of the benchmark itself: metric names, exact per-layer counts, the gates.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import tracing  # noqa: E402
import workloads  # noqa: E402
from turlab.verify import run_suites  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = "0.01"   # seconds: each run still takes its minimum number of samples


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


_traced: dict = {}


def traced(workload: str) -> dict:
    if workload not in _traced:
        _traced[workload] = result_of(bench("--workload", workload, "--seed", "3", "--seconds", TINY, "--trace", "1"))
    return _traced[workload]


def test_spec_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == tracing.metric_specs()
    assert SPEC["paths"] == ["perfbench"]


def test_layer_map_names_known_metrics():
    layer_names = [m["name"] for m in SPEC["per_layer"]]
    e2e_names = {m["name"] for m in SPEC["end_to_end"]}
    for entry in json.loads((HERE / "layer_map.json").read_text())["entries"]:
        for pattern in entry["layer_metrics"]:
            prefix = pattern[:-1] if pattern.endswith("*") else None
            assert any(n.startswith(prefix) if prefix else n == pattern for n in layer_names), pattern
        for ref in entry["moves"] + entry["no_change"]:
            metric, workload = ref.split("@")
            assert metric in e2e_names and workload in workloads.WORKLOADS, ref


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_end_to_end_metric_is_emitted(workload):
    result = result_of(bench("--workload", workload, "--seed", "3", "--seconds", TINY, "--trace", "0"))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_per_layer_metric_is_emitted(workload):
    result = traced(workload)
    assert result["correct"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_calls_per_item_repeat_exactly(workload):
    first = traced(workload)["metrics"]
    second = result_of(bench("--workload", workload, "--seed", "3", "--seconds", TINY, "--trace", "1"))["metrics"]
    counts = [k for k in first if k.endswith(".calls_per_item")]
    assert [first[k]["value"] for k in counts] == [second[k]["value"] for k in counts]
    if workload == "exact-sweep":
        assert first["protocol.correlator_bound-exact.calls_per_item"]["value"] == 4


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "exact-sweep", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_verify_gate_trips_on_injected_fault():
    def report(results):
        return {"all_passed": all(r.passed for r in results), "suites": [dataclasses.asdict(r) for r in results]}

    assert workloads.verify_problems(0, report(run_suites(["scaling"], trials=6, seed=0))) == []
    faulty = report(run_suites(["scaling"], trials=6, seed=0, inject_fault="dv0-sign"))
    assert workloads.verify_problems(0, faulty)


def test_experiment_gate_trips_on_exact_violation_and_changed_output(tmp_path):
    w = workloads.ExperimentWorkload(0, tmp_path, ["--shots", "0", "--variants", "exact,neumann1"], trials=3)
    first, second = w.request(), w.request()
    assert first.problems == [] and second.problems == []
    summary = json.loads((tmp_path / "experiment" / "summary.json").read_text())
    assert workloads.experiment_problems(0, summary, w.reference, w.reference) == []
    summary["violations"]["exact"]["general"] = 1
    assert workloads.experiment_problems(0, summary, w.reference, w.reference)
    del summary["violations"]["exact"]["general"]
    assert workloads.experiment_problems(0, summary, w.reference, w.reference)
    changed = {**w.reference, "trials.csv": "0" * 64}
    summary["violations"]["exact"]["general"] = 0
    assert workloads.experiment_problems(0, summary, changed, w.reference)


def test_bound_gate_checks_holds_and_the_direct_correlator():
    w = workloads.BoundWorkload(0)
    setup, argv = w._query()
    code, _, out, err = workloads.call_main(argv)
    expected = workloads.exact_correlator(setup.rho, setup.channel, setup.a_op, setup.b_op).real
    assert workloads.bound_problems(code, out, expected, err) == []
    assert workloads.bound_problems(code, out, expected + 1e-9, err)
    broken = json.loads(out)
    broken["bound"]["holds"] = False
    assert workloads.bound_problems(code, json.dumps(broken), expected, err)
    assert workloads.bound_problems(3, "", expected, "input error")
