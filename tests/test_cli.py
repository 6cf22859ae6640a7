import concurrent.futures
import dataclasses
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import TINY, make_scenario

import crpower
from crpower import cli, environment, harness
from crpower.agent import TUNED_DQL_HYPERPARAMS, PhaseRecord, RunTrace
from crpower.environment import ActionSpace, EnvConfig, Scenario
from crpower.link_adaptation import AmcTable
from crpower.oracle import exhaustive_search
from crpower.topology import ConfigurationError

CONFIG = {
    "learner": "table",
    "n_runs": 3,
    "master_seed": 4,
    "env": {"n_cr": 2, "reward_mode": "global", "tpc_reference": "signal"},
    "agent": {"phase_length": 50, "n_phases": 2},
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(CONFIG))
    return path


def simulate(config_path, out, *extra):
    return cli.main(["run", "--config", str(config_path), "--out", str(out),
                     *extra])


def fresh_python(*args):
    """Run this interpreter on args as a fresh process that imports this
    checkout's crpower, with the default warning filters."""
    src = str(Path(crpower.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=300)


DQL = dict(CONFIG, learner="dql",
           agent=dict(TUNED_DQL_HYPERPARAMS[30], phase_length=50, n_phases=2))
DQL_N3 = dict(DQL, env=dict(CONFIG["env"], n_cr=3))
TABLE_N3 = dict(CONFIG, env=dict(CONFIG["env"], n_cr=3))


def test_outputs_do_not_depend_on_worker_count(tmp_path):
    # name -> (config, the runs that diverge)
    for name, (doc, errored) in {
            "plain": (CONFIG, []), "dql": (DQL, []),
            "dql-n3": (DQL_N3, []), "diverging-n3": (DIVERGING_DQL_N3, [1])}.items():
        config_path = tmp_path / f"{name}.json"
        config_path.write_text(json.dumps(doc))
        one, two = tmp_path / name / "w1", tmp_path / name / "w2"
        assert simulate(config_path, one, "--workers", "1") == 0
        assert simulate(config_path, two, "--workers", "2") == 0
        assert (one / "summary.csv").read_bytes() == (two / "summary.csv").read_bytes()
        rows = (one / "summary.csv").read_text().splitlines()[1:]
        assert [i for i, row in enumerate(rows) if ",error," in row] == errored

        reports = [json.loads((d / "report.json").read_text()) for d in (one, two)]
        # the timings and the output directory differ; all else is equal
        for report in reports:
            assert len(report["wall_ms"]["0"]) == doc["n_runs"]
            assert len(report["layer_ms"]["0"]) == doc["n_runs"]
            del report["wall_ms"], report["layer_ms"], report["config"]["out_dir"]
        assert reports[0] == reports[1]

        for sub in ("oracle", "traces"):
            files = sorted(p.name for p in (one / sub).iterdir())
            assert len(files) == doc["n_runs"] - len(errored)
            for file in files:
                assert (one / sub / file).read_bytes() == (two / sub / file).read_bytes()


def test_report_counts_degenerate_scenarios(tmp_path):
    # local reward, so all-off scores N = 2 and not 10^0: of runs 0-7, run
    # 0 ties everywhere and run 3 has no joint action above all-off
    doc = dict(CONFIG, n_runs=8, master_seed=1,
               env=dict(CONFIG["env"], reward_mode="local"),
               agent=dict(CONFIG["agent"], n_phases=1))
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert simulate(config_path, out) == 0
    kinds = []
    for run in range(doc["n_runs"]):
        oracle = json.loads((out / "oracle" / f"point0_run{run:04d}.json").read_text())
        table, best = oracle["reward_table"], oracle["best_reward"]
        assert table[0] == 2.0
        kinds.append("tied" if min(table) == best
                     else "all_off" if best <= table[0] else None)
    assert kinds == ["tied", None, None, "all_off", None, None, None, None]
    report = json.loads((out / "report.json").read_text())
    assert report["points"][0]["degenerate"] == {"all_off": 1, "tied": 1}
    # the outcome counts keep their four keys
    assert sorted(report["points"][0]["outcomes"]) == [
        "error", "near_optimal", "optimal", "suboptimal"]
    config = harness.ExperimentConfig.from_dict(doc)
    metrics = [harness.execute_run(config, 0, run)[0] for run in (0, 1, 3)]
    assert [m.degenerate for m in metrics] == ["tied", None, "all_off"]


def test_report_counts_unconverged_pn_power_control(tmp_path, monkeypatch):
    # The scenarios of CONFIG settle within the iteration cap; capped at
    # one iteration, none does. report.json counts the runs per point, and
    # summary.csv keeps its four columns.
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(CONFIG))
    settled = harness.run_experiment(harness.ExperimentConfig.from_dict(CONFIG))
    assert [m.pn_power_converged for m in settled.metrics[0]] == [True] * 3
    assert settled.aggregate()[0]["pn_power_unconverged"] == 0
    monkeypatch.setattr(environment, "PN_POWER_MAX_ITERS", 1)
    capped = harness.run_experiment(harness.ExperimentConfig.from_dict(CONFIG))
    assert [m.pn_power_converged for m in capped.metrics[0]] == [False] * 3
    out = tmp_path / "out"
    assert simulate(config_path, out, "--no-artifacts") == 0
    report = json.loads((out / "report.json").read_text())
    assert report["points"][0]["pn_power_unconverged"] == 3
    assert (out / "summary.csv").read_text().splitlines()[0] == "run,outcome,reward,phases"


def test_an_error_row_has_no_pn_power_flag():
    # run 0 of DIVERGING_DQL raises: its row has no flag and is not counted
    report = harness.run_experiment(harness.ExperimentConfig.from_dict(DIVERGING_DQL))
    rows = report.metrics[0]
    assert [m.outcome == "error" for m in rows] == [True, False]
    assert [m.pn_power_converged for m in rows] == [None, True]
    assert report.aggregate()[0]["pn_power_unconverged"] == 0


def test_at_best_curve_of_hand_built_rows():
    # three runs of three phases: hits 0, 1 and 2 of 3 after phases 1-3;
    # the run that raised has no curve and is a miss at every phase
    def row(run, at_best, outcome="suboptimal"):
        return harness.RunMetrics(
            run=run, phases=3, outcome=outcome, reward=1.0, joint_policy=(0, 0),
            best_joint_action=(0, 1), best_reward=2.0, wall_ms=1.0,
            at_best=at_best)

    config = harness.ExperimentConfig.from_dict(
        dict(CONFIG, agent=dict(CONFIG["agent"], n_phases=3)))
    report = harness.ExperimentReport(config=config, metrics=[[
        row(0, (False, True, True)), row(1, (False, False, True)),
        row(2, (), outcome="error")]])
    curve = report.aggregate()[0]["at_best_by_phase"]
    assert [entry["phase"] for entry in curve] == [1, 2, 3]
    for entry, hits in zip(curve, (0, 1, 2)):
        lo, hi = harness.wilson_interval(hits, 3)
        assert entry["percent_at_best"] == 100.0 * hits / 3
        assert entry["ci95_percent_at_best"] == [100.0 * lo, 100.0 * hi]


def test_at_best_counts_a_tie_at_the_best_reward(monkeypatch):
    # identical links: (1, 0) ties the best joint action (0, 1), so a run
    # ending there is at the best reward while its outcome, scored by
    # joint-action equality, stays "near_optimal"
    scenario = make_scenario(
        g_pp=[[1e-10]], g_ps=[[1e-14], [1e-14]],
        g_ss=[[1e-12, TINY], [TINY, 1e-12]], g_sp=[[TINY, TINY]],
        pn_dbm=[0.0], actions=ActionSpace((0.0, 10.0)),
        config=EnvConfig(n_cr=2, reward_mode="global"))

    def record(policy):
        return PhaseRecord(phase=0, policy_before=policy, policy_after=policy,
                           delta=0.0, mean_reward=0.0, changed=False,
                           q_values=np.zeros((2, 3)), candidates=((0,), (0,)))

    # S0 joint policies (0, 0), (0, 1) and (1, 0) after phases 1, 2 and 3
    records = [[record((0, 1)), record((0, 1))], [record((0, 1)), record((1, 1))],
               [record((1, 0)), record((0, 0))]]
    trace = RunTrace(agents=SimpleNamespace(policies=np.array([[1, 0], [0, 0]])),
                     phase_records=records)
    monkeypatch.setattr(harness, "scenario_for_run", lambda *args: scenario)
    monkeypatch.setattr(harness, "learn_for_run", lambda *args, **kwargs: trace)
    config = harness.ExperimentConfig.from_dict(
        dict(CONFIG, agent=dict(CONFIG["agent"], n_phases=3)))
    metrics, oracle, _ = harness.execute_run(config, 0, 0)
    assert oracle.best_joint_action == (0, 1)
    assert oracle.reward_of((1, 0)) == oracle.best_reward > oracle.reward_of((0, 0))
    assert metrics.outcome == "near_optimal"
    assert metrics.at_best == (False, True, True)


def test_at_best_ends_at_the_runs_reward(tmp_path):
    # each run's curve has one entry per phase, and its last says whether
    # the run's final reward is the best; report.json carries the curve
    doc = dict(CONFIG, n_runs=8, master_seed=1,
               agent=dict(CONFIG["agent"], n_phases=3))
    config = harness.ExperimentConfig.from_dict(doc)
    rows = harness.run_experiment(config).metrics[0]
    assert all(len(m.at_best) == 3 for m in rows)
    assert [m.at_best[-1] for m in rows] == [m.reward == m.best_reward for m in rows]
    assert any(m.at_best[-1] for m in rows)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(doc))
    assert simulate(config_path, tmp_path / "out", "--no-artifacts") == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    curve = report["points"][0]["at_best_by_phase"]
    assert [entry["percent_at_best"] for entry in curve] == [
        100.0 * sum(m.at_best[phase] for m in rows) / 8 for phase in range(3)]


def test_pool_is_sized_by_the_job_count(monkeypatch):
    sizes = []

    class RecordingPool:
        """Stands in for ProcessPoolExecutor: records max_workers and maps
        the jobs in this process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    config = harness.ExperimentConfig.from_dict(CONFIG)         # 3 runs
    for workers in (64, 3, 2, 1):
        harness.run_experiment(config, workers)
    harness.run_experiment(harness.ExperimentConfig.from_dict(dict(CONFIG, n_runs=1)), 4)
    assert sizes == [3, 3, 2]


def test_worker_count_must_be_a_positive_int(tmp_path):
    config = harness.ExperimentConfig.from_dict(CONFIG)
    for workers in (0, -1, 1.0, 2.5, "2", True, None, np.int64(2)):
        with pytest.raises(ConfigurationError, match="workers must be an int >= 1"):
            harness.run_experiment(config, workers, artifact_dir=tmp_path / "out")
    assert not (tmp_path / "out").exists()


# In a fresh interpreter: the imports a sweep makes, and when it makes them.
IMPORTS_PROBE = """
import json, sys
from crpower import cli, harness
config_path, out = sys.argv[1:]
with open(config_path) as fh:
    config = harness.ExperimentConfig.from_dict(json.load(fh))
serial = harness.run_experiment(config, 1)
assert cli.main(["oracle", "--config", config_path, "--out", out]) == 0
loaded = [name for name in ("concurrent.futures.process", "multiprocessing")
          if name in sys.modules]
pooled = harness.run_experiment(config, 2)
reports = [json.loads(report.report_json()) for report in (serial, pooled)]
for report in reports:
    del report["wall_ms"], report["layer_ms"]
print(json.dumps({"loaded": loaded,
                  "pool_loaded": "concurrent.futures.process" in sys.modules,
                  "same_summary": serial.summary_csv() == pooled.summary_csv(),
                  "same_report": reports[0] == reports[1]}))
"""


def test_only_a_forking_sweep_imports_the_process_pool(config_path, tmp_path):
    """A config load, a one-worker sweep and simulate oracle leave the
    pool's modules unloaded; a two-worker sweep loads them and reports
    what the serial sweep reported."""
    proc = fresh_python("-c", IMPORTS_PROBE, str(config_path), str(tmp_path / "out"))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result == {"loaded": [], "pool_loaded": True,
                      "same_summary": True, "same_report": True}


NUMPY_RANDOM_PROBE = """
import concurrent.futures, json, sys
from crpower import harness
workers, config_path = int(sys.argv[1]), sys.argv[2]
seen = {"at_import": "numpy.random" in sys.modules, "pool": [], "runs": []}
execute_run = harness.execute_run


def recording_run(*args):
    seen["runs"].append("numpy.random" in sys.modules)
    return execute_run(*args)


class InProcessPool:
    '''Stands in for ProcessPoolExecutor: notes whether numpy.random is
    loaded when the pool is made, and maps the jobs in this process.'''

    def __init__(self, max_workers):
        seen["pool"].append("numpy.random" in sys.modules)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs):
        return map(fn, jobs)


harness.execute_run = recording_run
concurrent.futures.ProcessPoolExecutor = InProcessPool
with open(config_path) as fh:
    harness.run_experiment(harness.ExperimentConfig.from_dict(json.load(fh)), workers)
print(json.dumps(seen))
"""


@pytest.mark.parametrize("workers", [1, 2])
def test_numpy_random_is_loaded_before_the_first_run(config_path, workers):
    """numpy 2 imports numpy.random on first use: the sweep imports it
    before its first run and before it makes a pool, so no run's scenario
    time includes the import; crpower's own import leaves it unloaded."""
    proc = fresh_python("-c", NUMPY_RANDOM_PROBE, str(workers), str(config_path))
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen == {"at_import": False, "pool": [True] if workers > 1 else [],
                    "runs": [True] * CONFIG["n_runs"]}


def test_amc_table_is_parsed_once_per_config(monkeypatch, config_path, tmp_path):
    from_csv = AmcTable.from_csv
    calls = []

    def counting(path, **kwargs):
        calls.append(path)
        return from_csv(path, **kwargs)

    monkeypatch.setattr(AmcTable, "from_csv", staticmethod(counting))
    config = harness.ExperimentConfig.from_dict(CONFIG)
    scenarios = [harness.scenario_for_run(config, 0, 1) for _ in range(2)]
    assert len(calls) == 1
    assert scenarios[0].to_json() == scenarios[1].to_json()
    # the command's overrides go into the document, which is built once
    calls.clear()
    out = tmp_path / "out"
    assert simulate(config_path, out, "--seed", "7", "--runs", "2",
                    "--no-artifacts") == 0
    assert len(calls) == 1
    report = json.loads((out / "report.json").read_text())
    assert (report["master_seed"], report["n_runs"]) == (7, 2)


def test_each_run_executes_once(config_path, tmp_path, monkeypatch):
    real = harness.execute_run
    calls = []

    def counting(config, point, run, **kwargs):
        calls.append((point, run))
        return real(config, point, run, **kwargs)

    # Patch every module holding the function, so that a call through an
    # imported name is counted too.
    for module in (harness, cli):
        if vars(module).get("execute_run") is real:
            monkeypatch.setattr(module, "execute_run", counting)
    assert simulate(config_path, tmp_path / "out", "--workers", "1") == 0
    assert sorted(calls) == [(0, run) for run in range(CONFIG["n_runs"])]


def test_errored_run_is_recorded_and_gets_no_artifacts(config_path, tmp_path,
                                                       monkeypatch, capsys):
    real = harness.execute_run

    def failing(config, point, run):
        if run == 1:
            raise FloatingPointError("training has diverged")
        return real(config, point, run)

    monkeypatch.setattr(harness, "execute_run", failing)
    out = tmp_path / "out"
    assert simulate(config_path, out, "--workers", "1") == 0

    rows = (out / "summary.csv").read_text().splitlines()
    assert rows[2] == "1,error,nan,2"
    assert not (out / "oracle" / "point0_run0001.json").exists()
    assert not (out / "traces" / "point0_run0001.jsonl").exists()
    for run in (0, 2):
        assert (out / "oracle" / f"point0_run{run:04d}.json").exists()
        assert (out / "traces" / f"point0_run{run:04d}.jsonl").exists()
    out_text = capsys.readouterr().out
    assert "% optimal" in out_text
    assert "over 3 runs, 1 errored" in out_text


UNEVEN_DQL = dict(DQL, agent=dict(DQL["agent"], phase_length=110, minibatch=25))


def test_bad_input_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(CONFIG, learner="sarsa")))
    assert simulate(bad, tmp_path / "out") == 2
    assert "unknown learner" in capsys.readouterr().err
    assert simulate(tmp_path / "missing.json", tmp_path / "out") == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "missing.json" in err[0]
    nan_amc = tmp_path / "nan_amc.csv"
    nan_amc.write_text("snr_db,spectral_efficiency\n-6,0.15\nnan,0.5\n")
    # unknown keys at every level, the deleted multi-start keys
    # (n_restarts, probe_phases) and fixed_alpha among them, values of the
    # wrong type, no phase budget, and a document that is not an object:
    # run and traces print one error line that names the key
    for doc, message in (
            (dict(CONFIG, n_run=3), "'n_run'"),
            (dict(CONFIG, restarts=True), "'restarts'"),
            (dict(CONFIG, n_restarts=2), "'n_restarts'"),
            (dict(CONFIG, probe_phases=1), "'probe_phases'"),
            (dict(CONFIG, env=dict(CONFIG["env"], n_crs=3)), "'n_crs'"),
            (dict(CONFIG, agent=dict(CONFIG["agent"], fixed_alpha=True)),
             "'fixed_alpha'"),
            (dict(CONFIG, agent=[CONFIG["agent"], {"alpha": 0.1}]), "'alpha'"),
            (dict(CONFIG, grid={"row": 3}), "'row'"),
            (dict(CONFIG, amc={"xi": 4.0, "csv_path": "amc.csv"}), "'csv_path'"),
            (dict(CONFIG, n_runs="3"), "config key 'n_runs' must be int, not str"),
            (dict(CONFIG, agent=dict(CONFIG["agent"], n_phases="2")),
             "agent key 'n_phases' must be int, not str"),
            (dict(CONFIG, env=dict(CONFIG["env"], epsilon="x")),
             "env key 'epsilon' must be float, not str"),
            (dict(CONFIG, agent=[]), "at least one phase budget"),
            (dict(CONFIG, agent=5), "agent must be a JSON object"),
            ([CONFIG], "must be a JSON object"),
            # bad hyperparameters fail at load, not once per run: JSON as
            # Python reads it has NaN and Infinity
            (dict(DQL, agent=dict(DQL["agent"], activation_cap=0)),
             "activation cap must be positive"),
            (dict(DQL, agent=dict(DQL["agent"], alpha0=float("nan"))),
             "agent key 'alpha0' must be finite, not nan"),
            (dict(DQL, agent=dict(DQL["agent"], zeta=float("nan"))),
             "agent key 'zeta' must be finite, not nan"),
            (dict(CONFIG, agent=dict(CONFIG["agent"], activation_cap=float("nan"))),
             "agent key 'activation_cap' must be finite, not nan"),
            (dict(CONFIG, amc={"xi": float("inf")}), "amc key 'xi' must be finite, not inf"),
            # a config that cannot give one valid run, or whose values
            # would mis-score every run, fails at load too
            (dict(CONFIG, amc={"xi": 0}), "xi must be positive"),
            (dict(CONFIG, amc={"csv": str(tmp_path / "missing.csv")}),
             "No such file or directory"),
            (dict(CONFIG, master_seed=-1), "master_seed must be >= 0"),
            # a table entry cannot move past its target, so the table
            # learner's step size is at most 1 (a network's is not bounded)
            (dict(CONFIG, agent=dict(CONFIG["agent"], alpha0=1.5)),
             "agent key 'alpha0' must be <= 1 for the table learner"),
            # a DQL phase is a whole number of mini-batches
            (UNEVEN_DQL, "agent key 'phase_length' must be a multiple of "
                         "'minibatch' for the DQL learner"),
            (dict(CONFIG, env=dict(CONFIG["env"], n_cr=6)),
             "over the outcome tensor budget"),
            (dict(CONFIG, tau=2.0), "tau must lie in [0, 1)"),
            (dict(CONFIG, tau=-0.5), "tau must lie in [0, 1)"),
            (dict(CONFIG, amc={"snr_gap": 0}), "snr_gap must be positive"),
            (dict(CONFIG, amc={"snr_gap": -1.0}), "snr_gap must be positive"),
            (dict(CONFIG, amc={"bandwidth_hz": 0}), "bandwidth_hz must be positive"),
            # NaN passes the table's ordering checks; the run used to score
            # every run 0% optimal instead of failing
            (dict(CONFIG, amc={"csv": str(nan_amc)}),
             "SNR thresholds and efficiencies must be finite")):
        bad.write_text(json.dumps(doc))
        for command in ("run", "traces"):
            assert cli.main([command, "--config", str(bad),
                             "--out", str(tmp_path / "out")]) == 2
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("error: ")
            assert message in err[0]
    # the network learner loads the step size the table learner rejects,
    # and the table learner runs the phase length the network rejects
    harness.ExperimentConfig.from_dict(dict(DQL, agent=dict(DQL["agent"], alpha0=1.5)))
    bad.write_text(json.dumps(dict(UNEVEN_DQL, learner="table")))
    assert simulate(bad, tmp_path / "uneven-table") == 0
    bad.write_text(json.dumps(CONFIG))
    for command in ("run", "traces"):
        assert cli.main([command, "--config", str(bad), "--seed", "-2",
                         "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: master_seed must be >= 0"]
    bad.write_text(json.dumps(CONFIG))
    for workers in ("0", "-1"):
        assert simulate(bad, tmp_path / "out", "--workers", workers) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: --workers must be >= 1"]
    # a directory as the config, and an existing file as the output
    # directory, fail on the file system: one error line, no traceback
    taken = tmp_path / "taken"
    taken.write_text("")
    for command in ("run", "traces"):
        for args, message in (((tmp_path, tmp_path / "out"), "Is a directory"),
                              ((bad, taken), "File exists")):
            assert cli.main([command, "--config", str(args[0]),
                             "--out", str(args[1])]) == 2
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("error: ")
            assert message in err[0]
    out = tmp_path / "pvr"
    assert cli.main(["p-vs-rho", "--config", str(bad), "--out", str(out),
                     "--rhos=-0.5,1.5,3"]) == 2
    assert "rho must lie" in capsys.readouterr().err
    assert not out.exists()
    # an empty rho list is no sweep: it used to write a header-only CSV and
    # call zero points monotone
    for rhos in (",", ""):
        assert cli.main(["p-vs-rho", "--config", str(bad), "--out", str(out),
                         f"--rhos={rhos}"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: --rhos must name at least one probability"]
        assert not out.exists()
    # a negative run index names the flag, not numpy's seed error
    for command in ("oracle", "traces"):
        assert cli.main([command, "--config", str(bad), "--out", str(out),
                         "--run", "-1"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: --run must be >= 0"]
        assert not out.exists()
    assert not (tmp_path / "out").exists()


def test_oracle_matches_the_run_and_its_scenario(config_path, tmp_path):
    run_out, oracle_out = tmp_path / "run", tmp_path / "oracle"
    assert simulate(config_path, run_out) == 0
    assert cli.main(["oracle", "--config", str(config_path),
                     "--out", str(oracle_out), "--run", "2"]) == 0
    oracle_json = (oracle_out / "oracle_run0002.json").read_bytes()
    assert oracle_json == (run_out / "oracle" / "point0_run0002.json").read_bytes()
    scenario = Scenario.from_json((oracle_out / "scenario_run0002.json").read_text())
    config = harness.ExperimentConfig.from_dict(CONFIG)
    result = exhaustive_search(scenario, config.env.reward_mode, tau=config.tau)
    assert result.to_json().encode() == oracle_json


def test_traces_match_the_run_trace(tmp_path):
    for name, doc in (("plain", CONFIG), ("table-n3", TABLE_N3)):
        config_path = tmp_path / f"{name}.json"
        config_path.write_text(json.dumps(doc))
        run_out, traces_out = tmp_path / name / "run", tmp_path / name / "traces"
        assert simulate(config_path, run_out) == 0
        assert cli.main(["traces", "--config", str(config_path),
                         "--out", str(traces_out), "--run", "0"]) == 0
        assert ((traces_out / "phases_run0000.jsonl").read_bytes()
                == (run_out / "traces" / "point0_run0000.jsonl").read_bytes())
        n_cr = doc["env"]["n_cr"]
        assert sorted(p.name for p in traces_out.glob("qvalues_*")) == [
            f"qvalues_run0000_agent{agent}.csv" for agent in range(n_cr)]
        for agent in range(n_cr):
            rows = (traces_out / f"qvalues_run0000_agent{agent}.csv").read_text()
            assert rows.startswith("step,action,q_0,")


def test_confidence_bounds_are_plain_floats(config_path, tmp_path):
    assert all(type(b) is float for b in harness.wilson_interval(3, 10))

    out = tmp_path / "out"
    assert cli.main(["p-vs-rho", "--config", str(config_path), "--out", str(out),
                     "--rhos", "0.1,0.4"]) == 0
    header, *rows = (out / "p_vs_rho.csv").read_text().splitlines()
    assert header == "rho,p"
    assert len(rows) == 2
    for row in rows:
        for cell in row.split(","):
            float(cell)


def test_p_vs_rho_rows_are_in_rho_order(config_path, tmp_path, capsys):
    # p rises with rho on this scenario; given out of order, the rhos used
    # to be judged in the order given, which read "NOT monotone"
    out = tmp_path / "out"
    assert cli.main(["p-vs-rho", "--config", str(config_path), "--out", str(out),
                     "--seed", "5", "--rhos=0.4,0.1,0.2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == [
        "rho=0.100", "rho=0.200", "rho=0.400", "monotone"]
    assert lines[-1] == "monotone nondecreasing"
    header, *rows = (out / "p_vs_rho.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in rows] == ["0.1", "0.2", "0.4"]
    result = json.loads((out / "p_vs_rho.json").read_text())
    assert [row["rho"] for row in result["rows"]] == [0.1, 0.2, 0.4]
    assert result["nondecreasing"] is True


def test_table_phase_shorter_than_a_minibatch_runs(tmp_path):
    # the table learner takes no mini-batches, so a 10-step phase (under
    # the default minibatch of 25) is a valid table run
    config = tmp_path / "short.json"
    config.write_text(json.dumps({"learner": "table", "agent": {
        "phase_length": 10, "n_phases": 2}}))
    assert simulate(config, tmp_path / "out") == 0
    header, *rows = (tmp_path / "out" / "summary.csv").read_text().splitlines()
    assert rows and all(",error," not in row for row in rows)


# Run 0 of this sweep diverges (FloatingPointError in train_minibatch).
DIVERGING_DQL = {
    "learner": "dql",
    "n_runs": 2,
    "master_seed": 3,
    "env": {"n_cr": 2, "reward_mode": "global", "tpc_reference": "signal"},
    "agent": dict(TUNED_DQL_HYPERPARAMS[30], phase_length=1250, n_phases=2),
}
# Run 1 of this sweep diverges at N=3, a higher-index agent first.
DIVERGING_DQL_N3 = dict(DIVERGING_DQL, master_seed=10,
                        env=dict(DIVERGING_DQL["env"], n_cr=3))


@pytest.mark.parametrize("workers", ["1", "2"])
def test_diverged_run_prints_no_numpy_warnings(tmp_path, workers):
    """simulate run, in a fresh interpreter with the default warning
    filters, records the diverged run and writes no RuntimeWarning."""
    config_path = tmp_path / "dql.json"
    config_path.write_text(json.dumps(DIVERGING_DQL))
    proc = fresh_python("-m", "crpower.cli", "run", "--config", str(config_path),
                        "--out", str(tmp_path / "out"), "--workers", workers)
    assert proc.returncode == 0, proc.stderr
    assert "over 2 runs, 1 errored" in proc.stdout
    assert (tmp_path / "out" / "summary.csv").read_text().splitlines()[1].startswith("0,error,")
    assert "RuntimeWarning" not in proc.stderr


def test_report_of_a_diverging_sweep_is_strict_json(tmp_path):
    """An error row's time is the time its run took until it raised, so
    report.json holds no NaN; summary.csv keeps the row's NaN reward."""
    config_path = tmp_path / "dql.json"
    config_path.write_text(json.dumps(DIVERGING_DQL))
    out = tmp_path / "out"
    assert simulate(config_path, out, "--no-artifacts") == 0
    assert (out / "summary.csv").read_text().splitlines()[1] == "0,error,nan,2"

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    report = json.loads((out / "report.json").read_text(), parse_constant=reject)
    times = report["wall_ms"]["0"]
    assert len(times) == 2
    assert all(isinstance(t, float) and t > 0 for t in times)


def test_traces_of_a_diverging_run_exit_2(tmp_path, capsys):
    config_path = tmp_path / "dql.json"
    config_path.write_text(json.dumps(DIVERGING_DQL))
    assert cli.main(["traces", "--config", str(config_path),
                     "--out", str(tmp_path / "out"), "--run", "0"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: ") and err[0].endswith("training has diverged")
    assert not (tmp_path / "out").exists()


def test_report_splits_each_run_time_by_layer(tmp_path):
    """report.json lists per point each run's time in the scenario, oracle
    and training layers, which add up to no more than its wall_ms; the
    row of a run that raised has no split."""
    config_path = tmp_path / "dql.json"
    config_path.write_text(json.dumps(DIVERGING_DQL))
    out = tmp_path / "out"
    assert simulate(config_path, out, "--no-artifacts") == 0
    report = json.loads((out / "report.json").read_text())
    errored, layers = report["layer_ms"]["0"]
    assert errored == {}
    assert sorted(layers) == ["oracle", "scenario", "training"]
    assert all(isinstance(t, float) and t >= 0 for t in layers.values())
    assert sum(layers.values()) <= report["wall_ms"]["0"][1]


def test_report_config_rebuilds_the_sweep_config(tmp_path):
    """report.json's config is the resolved config, flag overrides
    included, as a document from_dict rebuilds it from; versions names
    the package, numpy and Python."""
    amc = tmp_path / "amc.csv"
    amc.write_text("snr_db,spectral_efficiency\n-6,0.15\n0,0.9\n10,2.5\n")
    doc = dict(CONFIG, n_runs=1, amc={"csv": str(amc), "xi": 3.5},
               agent=[CONFIG["agent"], dict(CONFIG["agent"], n_phases=1, rho=0.2)])
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert simulate(config_path, out, "--seed", "9", "--no-artifacts") == 0
    report = json.loads((out / "report.json").read_text())
    config = harness.ExperimentConfig.from_dict(report["config"])
    assert config == harness.ExperimentConfig.from_dict(
        dict(doc, master_seed=9, out_dir=str(out)))
    assert config.amc_csv == str(amc) and len(config.agent) == 2
    assert report["config"]["amc"]["csv"] == str(amc)
    table = config.amc_table()
    assert table.xi == 3.5
    np.testing.assert_array_equal(table.spectral_efficiencies, [0.15, 0.9, 2.5])
    assert report["versions"] == {
        "crpower": crpower.__version__, "numpy": np.__version__,
        "python": platform.python_version()}


def test_report_config_rebuilds_from_another_directory(tmp_path, monkeypatch):
    """A config naming its AMC CSV by a relative path holds it absolute,
    so report.json's config rebuilds the sweep's table from a sibling
    directory."""
    sweep, other = tmp_path / "sweep", tmp_path / "other"
    sweep.mkdir()
    other.mkdir()
    (sweep / "amc.csv").write_text("snr_db,spectral_efficiency\n-6,0.15\n0,0.9\n")
    (sweep / "config.json").write_text(json.dumps(dict(CONFIG, n_runs=1,
                                                       amc={"csv": "amc.csv"})))
    monkeypatch.chdir(sweep)
    assert simulate("config.json", "out", "--no-artifacts") == 0
    loaded = harness.ExperimentConfig.from_dict(dict(CONFIG, n_runs=1,
                                                     amc={"csv": "amc.csv"}))
    assert loaded.amc_csv == str(sweep / "amc.csv")
    monkeypatch.chdir(other)
    report = json.loads((sweep / "out" / "report.json").read_text())
    assert report["config"]["amc"]["csv"] == str(sweep / "amc.csv")
    config = harness.ExperimentConfig.from_dict(report["config"])
    assert config == dataclasses.replace(loaded, out_dir="out")
    np.testing.assert_array_equal(config.amc_table().spectral_efficiencies,
                                  [0.15, 0.9])
