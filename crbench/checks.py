"""Correctness checks of the crpower benchmark.

Each check reads only public results (RunMetrics, OracleResult, the files
``simulate run`` writes) and returns a list of problems; an empty list
means the output is correct. Run as a script to record the oracle
fixture::

    PYTHONPATH=src python3 crbench/checks.py
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

FIXTURE_PATH = Path(__file__).resolve().parent / "oracle_fixture.json"

OUTCOMES = ("optimal", "near_optimal", "suboptimal", "error")


def check_run_metrics(m, n_cr: int, n_actions: int, tau: float) -> list[str]:
    """Is the outcome of one RunMetrics consistent with its other fields?"""
    where = f"run {m.run}"
    if m.outcome not in OUTCOMES:
        return [f"{where}: unknown outcome {m.outcome!r}"]
    if m.outcome == "error":
        problems = []
        if not m.error:
            problems.append(f"{where}: error outcome without error text")
        if m.joint_policy or not math.isnan(m.reward):
            problems.append(f"{where}: error outcome carries a policy or reward")
        return problems

    problems = []
    for label, joint in (("joint_policy", m.joint_policy),
                         ("best_joint_action", m.best_joint_action)):
        if len(joint) != n_cr or not all(0 <= a < n_actions for a in joint):
            problems.append(f"{where}: {label} {joint} is not a joint action")
    if problems:
        return problems
    if not (math.isfinite(m.reward) and math.isfinite(m.best_reward)
            and 0.0 <= m.reward <= m.best_reward):
        return [f"{where}: reward {m.reward!r} outside [0, best {m.best_reward!r}]"]
    if m.error is not None:
        problems.append(f"{where}: {m.outcome} run carries error text")
    if not (math.isfinite(m.wall_ms) and m.wall_ms > 0.0):
        problems.append(f"{where}: wall_ms {m.wall_ms!r} is not a duration")

    same = tuple(m.joint_policy) == tuple(m.best_joint_action)
    near = m.reward >= m.best_reward * (1.0 - tau)
    if same and m.reward != m.best_reward:
        problems.append(f"{where}: the best joint action scores {m.reward!r} "
                        f"against best_reward {m.best_reward!r}")
    expected = "optimal" if same else ("near_optimal" if near else "suboptimal")
    if m.outcome != expected:
        problems.append(f"{where}: outcome {m.outcome!r} but policy, rewards "
                        f"and tau give {expected!r}")
    return problems


def check_aggregate(report) -> list[str]:
    """Runs of an ExperimentReport in order, and its aggregate against them."""
    problems = []
    for point, rows in enumerate(report.metrics):
        if [m.run for m in rows] != list(range(report.config.n_runs)):
            problems.append(f"point {point}: runs {[m.run for m in rows]}")
    for point, agg in enumerate(report.aggregate()):
        counts = {k: 0 for k in OUTCOMES}
        for m in report.metrics[point]:
            counts[m.outcome] = counts.get(m.outcome, 0) + 1
        if agg["outcomes"] != counts:
            problems.append(f"point {point}: aggregate {agg['outcomes']} "
                            f"but rows give {counts}")
    return problems


# --- oracle fixture -------------------------------------------------------

def near_digest(flat_indices) -> str:
    text = ",".join(str(int(i)) for i in sorted(flat_indices))
    return hashlib.sha256(text.encode()).hexdigest()


def oracle_entry(result) -> dict:
    """Fixture record of one OracleResult: best action and near-optimal set."""
    flat = [result.flat_index(ja) for ja in result.near_optimal]
    return {"best": list(result.best_joint_action),
            "n_near": len(flat),
            "near_sha256": near_digest(flat)}


def check_oracle(pool_index: int, result, fixture: dict) -> list[str]:
    expected = fixture["scenarios"][pool_index]
    got = oracle_entry(result)
    if got != {k: expected[k] for k in got}:
        return [f"pool scenario {pool_index}: oracle gives best "
                f"{got['best']} with {got['n_near']} near-optimal, fixture "
                f"{expected['best']} with {expected['n_near']}"]
    return []


def load_fixture(path: Path = FIXTURE_PATH) -> dict:
    return json.loads(path.read_text())


def record_fixture(path: Path = FIXTURE_PATH) -> None:
    from crpower.harness import ExperimentConfig, scenario_for_run
    from crpower.oracle import exhaustive_search

    import workloads

    config = ExperimentConfig.from_dict(workloads.config_doc("oracle-n3"))
    scenarios = []
    for i in range(workloads.ORACLE_POOL_SIZE):
        scenario = scenario_for_run(config, 0, i)
        result = exhaustive_search(scenario, config.env.reward_mode, tau=config.tau)
        scenarios.append(dict(oracle_entry(result), run=i))
    doc = {"master_seed": config.master_seed, "n_cr": config.env.n_cr,
           "tpc_reference": config.env.tpc_reference,
           "reward_mode": config.env.reward_mode, "tau": config.tau,
           "scenarios": scenarios}
    path.write_text(json.dumps(doc, indent=1) + "\n")


# --- simulate run artifacts ----------------------------------------------

def check_cli_artifacts(out: Path, n_runs: int, n_phases: int, n_cr: int,
                        tau: float) -> list[str]:
    """summary.csv, report.json, oracle/ and traces/ agree with each other.

    The learned joint policy is read back from the last phase record of
    each agent in traces/; its reward in the run's oracle file must equal
    the reward in summary.csv, and scoring it against that file must give
    the outcome in summary.csv.
    """
    try:
        with open(out / "summary.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        report = json.loads((out / "report.json").read_text())
    except (OSError, ValueError) as exc:
        return [f"{out}: {exc!r}"]
    problems = []
    if [int(r["run"]) for r in rows] != list(range(n_runs)):
        problems.append(f"summary.csv lists runs {[r['run'] for r in rows]}")
    counts = {k: 0 for k in OUTCOMES}
    for r in rows:
        counts[r["outcome"]] = counts.get(r["outcome"], 0) + 1
    points = report.get("points", [])
    if len(points) != 1 or points[0].get("outcomes") != counts \
            or points[0].get("runs") != len(rows):
        problems.append(f"report.json points {points} disagree with "
                        f"summary.csv outcomes {counts}")

    oracle_files = sorted(p.name for p in (out / "oracle").glob("*.json"))
    trace_files = sorted(p.name for p in (out / "traces").glob("*.jsonl"))
    stems = [f"point0_run{run:04d}" for run in range(n_runs)]
    if oracle_files != [s + ".json" for s in stems]:
        problems.append(f"oracle/ holds {oracle_files}")
    if trace_files != [s + ".jsonl" for s in stems]:
        problems.append(f"traces/ holds {trace_files}")
    if problems:
        return problems

    for row, stem in zip(rows, stems):
        try:
            oracle = json.loads((out / "oracle" / f"{stem}.json").read_text())
            records = [json.loads(line) for line in
                       (out / "traces" / f"{stem}.jsonl").read_text().splitlines()]
        except (OSError, ValueError) as exc:
            problems.append(f"{stem}: {exc!r}")
            continue
        if len(records) != n_phases * n_cr:
            problems.append(f"{stem}: {len(records)} trace lines, expected "
                            f"{n_phases * n_cr}")
            continue
        last = {rec["agent"]: rec for rec in records if rec["phase"] == n_phases - 1}
        joint = [last[i]["policy_after"][0] for i in range(n_cr)]
        table = oracle["reward_table"]
        reward = table[flat_of(joint, oracle["n_actions"])]
        best = oracle["best_reward"]
        if table[flat_of(oracle["best_joint_action"], oracle["n_actions"])] != best \
                or max(table) != best:
            problems.append(f"{stem}: best_reward does not match reward_table")
        if joint == oracle["best_joint_action"]:
            expected = "optimal"
        elif joint in oracle["near_optimal"]:
            expected = "near_optimal"
        else:
            expected = "suboptimal"
        near = sorted(i for i, v in enumerate(table) if v >= best * (1.0 - tau))
        listed = sorted(flat_of(ja, oracle["n_actions"]) for ja in oracle["near_optimal"])
        if near != listed:
            problems.append(f"{stem}: near_optimal does not match reward_table")
        if row["outcome"] != expected or float(row["reward"]) != reward:
            problems.append(f"{stem}: summary.csv says {row['outcome']} "
                            f"{row['reward']}, artifacts give {expected} {reward!r}")
    return problems


def flat_of(joint, n_actions: int) -> int:
    flat = 0
    for a in joint:
        flat = flat * n_actions + int(a)
    return flat


if __name__ == "__main__":
    record_fixture()
    print(f"wrote {FIXTURE_PATH}")
