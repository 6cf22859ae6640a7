"""The ``simulate`` command.

Default invocation runs a Monte Carlo sweep from a JSON config; the
``oracle``, ``p-vs-rho`` and ``traces`` subcommands expose the supporting
tools on the same config. Flags override the matching config fields.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .harness import (
    ExperimentConfig,
    emit_qvalue_traces,
    learn_for_run,
    p_vs_rho_csv,
    phase_trace_jsonl,
    run_experiment,
    scenario_for_run,
    sweep_p_vs_rho,
)
from .oracle import exhaustive_search
from .topology import ConfigurationError

SUBCOMMANDS = ("run", "oracle", "p-vs-rho", "traces")


def _add_common(parser):
    parser.add_argument("--config", required=True, help="JSON experiment config")
    parser.add_argument("--seed", type=int, default=None, help="master seed override")
    parser.add_argument("--out", default=None, help="output directory override")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simulate",
        description="Monte Carlo driver for the spectrum-sharing learners")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="full sweep: train, score, aggregate")
    _add_common(run)
    run.add_argument("--runs", type=int, default=None, help="n_runs override")
    run.add_argument("--workers", type=int, default=1)
    run.add_argument("--no-artifacts", action="store_true",
                     help="skip the per-run oracle/trace files, which the "
                          "job that ran each run writes")

    oracle = sub.add_parser("oracle", help="scenario + exhaustive search only")
    _add_common(oracle)
    oracle.add_argument("--run", type=int, default=0, help="run index to pin")

    pvr = sub.add_parser("p-vs-rho", help="exact phase-change probability "
                         "of agent 0 against rho, at the oracle's policy")
    _add_common(pvr)
    pvr.add_argument("--rhos", default="0.05,0.1,0.2,0.4",
                     help="comma-separated experimentation probabilities")

    traces = sub.add_parser("traces", help="one traced run, Q-value CSVs")
    _add_common(traces)
    traces.add_argument("--run", type=int, default=0, help="run index to trace")

    return parser


def load_config(args) -> ExperimentConfig:
    """The config file's document with the --seed, --out and --runs
    overrides applied, built once (and its AMC table parsed once)."""
    with open(args.config) as fh:
        doc = json.load(fh)
    overrides = {"master_seed": args.seed, "out_dir": args.out,
                 "n_runs": getattr(args, "runs", None)}
    if isinstance(doc, dict):       # anything else fails in from_dict
        doc.update((key, value) for key, value in overrides.items()
                   if value is not None)
    return ExperimentConfig.from_dict(doc)


def _outdir(config: ExperimentConfig) -> Path:
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_run(args) -> int:
    if args.workers < 1:
        raise ConfigurationError("--workers must be >= 1")
    config = load_config(args)
    out = _outdir(config)
    report = run_experiment(config, args.workers,
                            artifact_dir=None if args.no_artifacts else out)
    (out / "summary.csv").write_text(report.summary_csv())
    (out / "report.json").write_text(report.report_json())

    for point in report.aggregate():
        errors = point["outcomes"]["error"]
        print(f"phases={point['phases']}: "
              f"{point['percent_optimal']:.1f}% optimal "
              f"(CI95 {point['ci95_percent_optimal'][0]:.1f}"
              f"-{point['ci95_percent_optimal'][1]:.1f}), "
              f"{point['percent_near_optimal']:.1f}% near-optimal "
              f"over {point['runs']} runs"
              + (f", {errors} errored" if errors else ""))
    print(f"wrote {out / 'summary.csv'}")
    return 0


def _check_run(args) -> None:
    if args.run < 0:
        raise ConfigurationError("--run must be >= 0")


def cmd_oracle(args) -> int:
    _check_run(args)
    config = load_config(args)
    scenario = scenario_for_run(config, 0, args.run)
    result = exhaustive_search(scenario, config.env.reward_mode, tau=config.tau)
    out = _outdir(config)
    (out / f"scenario_run{args.run:04d}.json").write_text(scenario.to_json())
    (out / f"oracle_run{args.run:04d}.json").write_text(result.to_json())
    print(f"best joint action {result.best_joint_action} "
          f"reward {result.best_reward:.6g}; "
          f"{len(result.near_optimal)} joint action(s) within "
          f"{100 * result.tau:.1f}%")
    return 0


def cmd_p_vs_rho(args) -> int:
    rhos = [float(r) for r in args.rhos.split(",") if r]
    if not rhos:
        raise ConfigurationError("--rhos must name at least one probability")
    config = load_config(args)
    result = sweep_p_vs_rho(config, rhos)
    out = _outdir(config)
    (out / "p_vs_rho.csv").write_text(p_vs_rho_csv(result))
    (out / "p_vs_rho.json").write_text(json.dumps(result, indent=2))
    for row in result["rows"]:
        print(f"rho={row['rho']:.3f}  p={row['p']:.6f}")
    print("monotone nondecreasing" if result["nondecreasing"]
          else "NOT monotone")
    return 0


def cmd_traces(args) -> int:
    _check_run(args)
    config = load_config(args)
    scenario = scenario_for_run(config, 0, args.run)
    trace = learn_for_run(config, 0, args.run, scenario, record_updates=True)
    out = _outdir(config)
    (out / f"phases_run{args.run:04d}.jsonl").write_text(phase_trace_jsonl(trace))
    records = trace.agents.update_records
    for i, agent_records in enumerate(records):
        csv_text = emit_qvalue_traces(agent_records, len(scenario.actions))
        (out / f"qvalues_run{args.run:04d}_agent{i}.csv").write_text(csv_text)
    print(f"wrote Q-value traces for {len(records)} agents to {out}")
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] not in SUBCOMMANDS and not argv[0] in ("-h", "--help"):
        argv = ["run"] + argv
    args = build_parser().parse_args(argv)
    handlers = {
        "run": cmd_run,
        "oracle": cmd_oracle,
        "p-vs-rho": cmd_p_vs_rho,
        "traces": cmd_traces,
    }
    try:
        return handlers[args.command](args)
    except (ConfigurationError, OSError, FloatingPointError,
            json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
