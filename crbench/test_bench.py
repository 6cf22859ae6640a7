"""Tests of the benchmark itself, at the tiny size.

Not part of the repository's test suite; run them with

    PYTHONPATH=src python3 -m pytest crbench -q
"""

from __future__ import annotations

import csv
import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import checks
import run
import spread
import tracing
import workloads
from crpower.cli import main as simulate
from crpower.environment import ActionSpace
from crpower.harness import ExperimentConfig, run_experiment, scenario_for_run
from crpower.oracle import exhaustive_search

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_metric_is_emitted(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    elif workload == "cli-artifacts":
        assert result["metrics"]["harness.execute_run.calls_per_run"]["value"] == 2.0


def tiny_report(name="table-sweep"):
    config = ExperimentConfig.from_dict(workloads.config_doc(name, tiny=True))
    return run_experiment(replace(config, master_seed=3))


def test_run_checks_pass_on_real_results_and_flag_corruption():
    report = tiny_report()
    n_actions = len(ActionSpace.default())
    assert checks.check_aggregate(report) == []
    for m in report.metrics[0]:
        assert checks.check_run_metrics(m, 2, n_actions, 0.01) == []

    m = report.metrics[0][0]
    other = tuple((a + 1) % n_actions for a in m.best_joint_action)
    corrupted = [
        replace(m, outcome="optimal" if m.outcome != "optimal" else "suboptimal"),
        replace(m, joint_policy=m.best_joint_action, outcome="optimal",
                reward=m.best_reward * 0.5),
        replace(m, joint_policy=other, outcome="optimal"),
        replace(m, reward=m.best_reward * 2.0),
        replace(m, joint_policy=(0,)),
        replace(m, outcome="error"),
    ]
    for bad in corrupted:
        assert checks.check_run_metrics(bad, 2, n_actions, 0.01), bad
    report.metrics[0].reverse()
    assert checks.check_aggregate(report)


def test_only_a_floating_point_error_counts_as_divergence():
    m = tiny_report().metrics[0][0]
    error = dict(outcome="error", reward=float("nan"), joint_policy=(),
                 best_joint_action=(), best_reward=float("nan"))
    assert not run.diverged(m)
    assert run.diverged(replace(m, error="FloatingPointError('overflow')", **error))
    assert not run.diverged(replace(m, error="ValueError('bad config')", **error))


def test_oracle_check_flags_corrupted_fixture():
    config = ExperimentConfig.from_dict(workloads.config_doc("oracle-n3"))
    fixture = checks.load_fixture()
    assert len(fixture["scenarios"]) == workloads.ORACLE_POOL_SIZE
    index = 5
    result = exhaustive_search(scenario_for_run(config, 0, index),
                               config.env.reward_mode, tau=config.tau)
    assert checks.check_oracle(index, result, fixture) == []

    for key, value in (("best", [1, 2, 3]), ("n_near", 0),
                       ("near_sha256", checks.near_digest([0]))):
        bad = json.loads(json.dumps(fixture))
        bad["scenarios"][index][key] = value
        assert checks.check_oracle(index, result, bad), key


def test_cli_artifact_check_flags_inconsistent_files(tmp_path):
    doc = workloads.config_doc("cli-artifacts", tiny=True)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert simulate(["run", "--config", str(config_path), "--out", str(out)]) == 0
    args = (doc["n_runs"], doc["agent"]["n_phases"], doc["env"]["n_cr"], 0.01)
    assert checks.check_cli_artifacts(out, *args) == []

    summary = out / "summary.csv"
    rows = list(csv.reader(summary.open()))
    rows[1][1] = "optimal" if rows[1][1] != "optimal" else "suboptimal"
    with summary.open("w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    assert checks.check_cli_artifacts(out, *args)

    (out / "traces" / "point0_run0001.jsonl").unlink()
    assert checks.check_cli_artifacts(out, *args)


def test_tracer_reports_absent_names_and_restores(monkeypatch):
    import crpower.agent
    import crpower.qfunc

    monkeypatch.setattr(tracing, "TRACED", tracing.TRACED + (
        "environment.no_such_function", "no_such_module.f", "agent.NoClass.step"))
    original = crpower.qfunc.table_update
    with tracing.Tracer() as tracer:
        assert crpower.agent.table_update is not original
        tiny_report()
    assert crpower.agent.table_update is original
    assert crpower.qfunc.table_update is original
    snap = tracer.snapshot()
    assert sorted(snap["absent"]) == ["agent.NoClass.step",
                                      "environment.no_such_function",
                                      "no_such_module.f"]
    assert snap["stats"]["qfunc.table_update"][0] == snap["stats"]["agent._AgentBase.step"][0] > 0


def test_spec_describes_every_declared_metric():
    spec = json.loads((BENCH_DIR / "spec.json").read_text())
    declared = {m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    assert set(spec["metrics"]) == declared
    assert set(spec["workloads"]) == {w["name"] for w in SPEC["workloads"]}
    assert isinstance(spec["held_out_seed"], int)
    mapped = {n for group in spec["mapping"] for n in group["per_layer"]}
    assert mapped == {m["name"] for m in SPEC["per_layer"]}


def test_spread_judges_pairs_against_the_parent():
    def side(values):
        return spread.summarize([{"metrics": {"t": {"value": v}}} for v in values], "t")

    parent = side([100, 101, 102, 103, 104, 100, 101, 102, 103, 104])
    faster = side([80, 81, 82, 83, 84, 80, 81, 82, 83, 84])
    slower = side([130, 131, 132, 133, 134, 130, 131, 132, 133, 134])
    assert spread.judge(faster, parent, "lower", 0.25) == "better"
    assert spread.judge(slower, parent, "lower", 0.25) == "worse"
    assert spread.judge(parent, parent, "lower", 0.25) == "within bound"
    assert spread.judge(faster, parent, "higher", 0.1) == "worse"
    wide = side([60, 140, 70, 130, 80, 120, 90, 110, 100, 100])
    assert spread.judge(parent, wide, "lower", 0.25) == "unresolved"
