import json

import pytest

from crpower import cli, harness

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


def test_outputs_do_not_depend_on_worker_count(config_path, tmp_path):
    one, two = tmp_path / "w1", tmp_path / "w2"
    assert simulate(config_path, one, "--workers", "1") == 0
    assert simulate(config_path, two, "--workers", "2") == 0
    assert (one / "summary.csv").read_bytes() == (two / "summary.csv").read_bytes()

    reports = [json.loads((d / "report.json").read_text()) for d in (one, two)]
    for report in reports:
        assert len(report["wall_ms"]["0"]) == CONFIG["n_runs"]
        del report["wall_ms"]
    assert reports[0] == reports[1]

    for sub in ("oracle", "traces"):
        files = sorted(p.name for p in (one / sub).iterdir())
        assert len(files) == CONFIG["n_runs"]
        for name in files:
            assert (one / sub / name).read_bytes() == (two / sub / name).read_bytes()


def test_errored_run_is_recorded_and_gets_no_artifacts(config_path, tmp_path,
                                                       monkeypatch, capsys):
    real = harness.execute_run

    def failing(config, point, run, keep_trace=False):
        if run == 1:
            raise FloatingPointError("training has diverged")
        return real(config, point, run, keep_trace=keep_trace)

    monkeypatch.setattr(harness, "execute_run", failing)
    monkeypatch.setattr(cli, "execute_run", failing)
    out = tmp_path / "out"
    assert simulate(config_path, out, "--workers", "1") == 0

    rows = (out / "summary.csv").read_text().splitlines()
    assert rows[2] == "1,error,nan,2"
    assert not (out / "oracle" / "point0_run0001.json").exists()
    assert not (out / "traces" / "point0_run0001.jsonl").exists()
    for run in (0, 2):
        assert (out / "oracle" / f"point0_run{run:04d}.json").exists()
        assert (out / "traces" / f"point0_run{run:04d}.jsonl").exists()
    assert "% optimal" in capsys.readouterr().out


def test_bad_input_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(CONFIG, learner="sarsa")))
    assert simulate(bad, tmp_path / "out") == 2
    assert "unknown learner" in capsys.readouterr().err
    assert simulate(tmp_path / "missing.json", tmp_path / "out") == 2
