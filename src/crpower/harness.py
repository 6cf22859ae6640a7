"""Monte Carlo experiment driver.

Every run is a pure function of (config, phase-budget index, run index):
the child seed is derived from the master seed and the indices, the run
samples its own scenario, computes its own oracle, trains, and is scored
against that oracle. Runs therefore execute in any order or in parallel
and still aggregate to byte-identical outputs. Each run executes once:
when the sweep is given an artifact directory, the job that ran a run
also writes that run's oracle and phase-trace files.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
import typing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .agent import AgentHyperparams, RunTrace, run_learning
from .environment import (
    DEFAULT_PN_TARGET_SINR_DB,
    ActionSpace,
    EnvConfig,
    Scenario,
    build_scenario,
    check_outcome_budget,
    phase_change_probability,
)
from .link_adaptation import AmcTable
from .oracle import exhaustive_search, score_policy
from .topology import ConfigurationError, GridSpec

__all__ = [
    "ExperimentConfig",
    "RunMetrics",
    "ExperimentReport",
    "run_experiment",
    "sweep_p_vs_rho",
    "emit_qvalue_traces",
    "wilson_interval",
]


def _field_types(cls) -> dict:
    """Each field name of the dataclass cls with its annotation's types."""
    return {name: typing.get_args(hint) or (hint,)
            for name, hint in typing.get_type_hints(cls).items()}


def _keywords(doc, types: dict, where: str) -> dict:
    """doc as keyword arguments, once it is a JSON object keyed by the names
    of types and each value has one of its key's types: an int also serves
    for a float, and a float must be finite (JSON as Python reads it also
    has NaN and Infinity). A key whose types are None takes any value."""
    if not isinstance(doc, dict):
        raise ConfigurationError(f"{where} must be a JSON object")
    unknown = [key for key in doc if key not in types]
    if unknown:
        raise ConfigurationError(
            f"unknown key(s) in {where}: {', '.join(map(repr, unknown))}")
    for key, value in doc.items():
        allowed = types[key]
        if allowed is not None and type(value) not in allowed + (
                (int,) if float in allowed else ()):
            names = " or ".join("null" if t is type(None) else t.__name__
                                for t in allowed)
            raise ConfigurationError(f"{where} key {key!r} must be {names}, "
                                     f"not {type(value).__name__}")
        if type(value) is float and not math.isfinite(value):
            raise ConfigurationError(f"{where} key {key!r} must be finite, "
                                     f"not {value!r}")
    return dict(doc)


def _build(cls, doc, where: str):
    """The dataclass cls from a JSON object of its field names."""
    return cls(**_keywords(doc, _field_types(cls), where))


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one sweep needs, loadable from a single JSON document."""

    grid: GridSpec = field(default_factory=GridSpec)
    env: EnvConfig = field(default_factory=EnvConfig)
    agent: tuple[AgentHyperparams, ...] = (AgentHyperparams(),)
    learner: str = "dql"
    n_runs: int = 1
    master_seed: int = 0
    n_restarts: int = 1
    probe_phases: int | None = None     # None: every probe runs all phases
    amc_csv: str | None = None
    amc_xi: float = 4.0
    amc_snr_gap: float = 1.0
    amc_bandwidth_hz: float = 180_000.0
    pn_target_sinr_db: float = DEFAULT_PN_TARGET_SINR_DB
    tau: float = 0.01
    out_dir: str = "out"

    def __post_init__(self):
        if self.n_runs < 1:
            raise ConfigurationError("n_runs must be >= 1")
        if self.learner not in ("dql", "table"):
            raise ConfigurationError(f"unknown learner {self.learner!r}")
        agent = (self.agent,) if isinstance(self.agent, AgentHyperparams) else self.agent
        object.__setattr__(self, "agent", tuple(agent))
        if not self.agent:
            raise ConfigurationError("agent must hold at least one phase budget")
        if self.n_restarts < 1:
            raise ConfigurationError("n_restarts must be >= 1")
        if self.probe_phases is not None and self.probe_phases < 1:
            raise ConfigurationError("probe_phases must be >= 1")
        if any((self.probe_phases or 0) > hp.n_phases for hp in self.agent):
            raise ConfigurationError("probe_phases exceeds a point's n_phases")
        # a table entry moves toward its target by at most the whole gap;
        # the network's gradient step takes any positive rate
        if self.learner == "table" and any(hp.alpha0 > 1.0 for hp in self.agent):
            raise ConfigurationError(
                "agent key 'alpha0' must be <= 1 for the table learner")
        # each DQL gradient step learns from one phase's columns alone
        if self.learner == "dql" and any(hp.phase_length % hp.minibatch
                                         for hp in self.agent):
            raise ConfigurationError("agent key 'phase_length' must be a "
                                     "multiple of 'minibatch' for the DQL learner")
        if self.master_seed < 0:
            raise ConfigurationError("master_seed must be >= 0")
        if not 0.0 <= self.tau < 1.0:
            raise ConfigurationError("tau must lie in [0, 1)")
        check_outcome_budget(len(ActionSpace.default()), self.env.n_cr)
        # parsed once per config, so a table that cannot load fails here
        kwargs = dict(xi=self.amc_xi, snr_gap=self.amc_snr_gap,
                      bandwidth_hz=self.amc_bandwidth_hz)
        object.__setattr__(self, "_amc_table", (
            AmcTable.from_csv(self.amc_csv, **kwargs) if self.amc_csv
            else AmcTable.default(**kwargs)))

    def amc_table(self) -> AmcTable:
        """The AMC table of the amc_* fields, parsed once per config."""
        return self._amc_table

    @staticmethod
    def from_dict(doc) -> "ExperimentConfig":
        """The config a JSON document describes: an object keyed by this
        class's field names, an absent key keeping its default. ``grid``,
        ``env`` and ``agent`` (one object, or a list of one per phase
        budget) are objects keyed by the field names of GridSpec, EnvConfig
        and AgentHyperparams. The keys ``csv``, ``xi``, ``snr_gap`` and
        ``bandwidth_hz`` of ``amc`` set the ``amc_*`` fields. An unknown key
        at any level, or a value whose type differs from its field's
        annotation, raises ConfigurationError naming the key."""
        types = _field_types(ExperimentConfig)
        amc_types = {name[len("amc_"):]: types.pop(name)
                     for name in list(types) if name.startswith("amc_")}
        # the keys of these sections are checked against their own fields
        types.update(grid=None, env=None, agent=None, amc=None)
        try:
            kwargs = _keywords(doc, types, "config")
            amc = _keywords(kwargs.pop("amc", {}), amc_types, "amc")
            kwargs.update((f"amc_{key}", value) for key, value in amc.items())
            if "grid" in kwargs:
                kwargs["grid"] = _build(GridSpec, kwargs["grid"], "grid")
            if "env" in kwargs:
                kwargs["env"] = _build(EnvConfig, kwargs["env"], "env")
            if "agent" in kwargs:
                points = kwargs["agent"]
                kwargs["agent"] = [_build(AgentHyperparams, point, "agent") for point
                                   in (points if isinstance(points, list) else [points])]
            return ExperimentConfig(**kwargs)
        except TypeError as exc:
            raise ConfigurationError(str(exc)) from exc


@dataclass
class RunMetrics:
    """Score card of one Monte Carlo run. ``degenerate`` is the oracle's
    kind of degenerate scenario ("tied", "all_off" or None; None for a
    run that raised). ``at_best`` holds, per phase, whether the S0 joint
    policy after that phase scores the oracle's best reward, ties
    included (empty for a run that raised). ``pn_power_converged`` is the
    scenario's flag: whether primary power control converged (None for a
    run that raised)."""

    run: int
    phases: int
    outcome: str
    reward: float
    joint_policy: tuple[int, ...]
    best_joint_action: tuple[int, ...]
    best_reward: float
    wall_ms: float
    error: str | None = None
    degenerate: str | None = None
    at_best: tuple[bool, ...] = ()
    pn_power_converged: bool | None = None


def child_seed(master_seed: int, point: int, run: int) -> np.random.SeedSequence:
    """Deterministic per-run stream, independent of execution order."""
    return np.random.SeedSequence([int(master_seed), int(point), int(run)])


def scenario_for_run(config: ExperimentConfig, point: int, run: int) -> Scenario:
    seq = child_seed(config.master_seed, point, run)
    rng = np.random.default_rng(seq.spawn(2)[0])
    return build_scenario(config.grid, config.env, config.amc_table(), rng,
                          pn_target_sinr_db=config.pn_target_sinr_db)


def learn_for_run(config: ExperimentConfig, point: int, run: int,
                  scenario: Scenario, record_updates: bool = False) -> RunTrace:
    """Train the run's agents on its scenario, with the config's restarts:
    n_restarts probes of probe_phases phases each, a plain run for one."""
    train_seq = child_seed(config.master_seed, point, run).spawn(2)[1]
    return run_learning(scenario, config.agent[point], train_seq, config.learner,
                        n_restarts=config.n_restarts,
                        probe_phases=config.probe_phases,
                        record_updates=record_updates)


def execute_run(config: ExperimentConfig, point: int, run: int):
    """One complete run: scenario, oracle, training, scoring.

    Returns the run's metrics, its oracle result and its training trace.
    """
    start = time.perf_counter()
    scenario = scenario_for_run(config, point, run)
    oracle = exhaustive_search(scenario, config.env.reward_mode, tau=config.tau)
    trace = learn_for_run(config, point, run, scenario)

    joint = trace.joint_policy()
    metrics = RunMetrics(
        run=run,
        phases=config.agent[point].n_phases,
        outcome=score_policy(joint, oracle),
        reward=oracle.reward_of(joint),
        joint_policy=joint,
        best_joint_action=oracle.best_joint_action,
        best_reward=oracle.best_reward,
        wall_ms=(time.perf_counter() - start) * 1e3,
        degenerate=oracle.degenerate,
        pn_power_converged=scenario.pn_power_converged,
    )
    # scored after wall_ms is taken: the curve is not part of the run
    metrics.at_best = tuple(
        oracle.reward_of([record.policy_after[0] for record in records])
        == oracle.best_reward for records in trace.phase_records)
    return metrics, oracle, trace


def _run_job(args) -> RunMetrics:
    """Execute one run; write its artifact files if a directory is given.

    A run that raises is recorded as an "error" row, with the time it
    took until it raised, and gets no files. A failing file write is not a
    run outcome and propagates.
    """
    config, point, run, artifact_dir = args
    start = time.perf_counter()
    try:
        metrics, oracle, trace = execute_run(config, point, run)
    except Exception as exc:  # record the failure, keep sweeping
        hp = config.agent[point]
        return RunMetrics(run=run, phases=hp.n_phases, outcome="error",
                          reward=float("nan"), joint_policy=(),
                          best_joint_action=(), best_reward=float("nan"),
                          wall_ms=(time.perf_counter() - start) * 1e3,
                          error=repr(exc))
    if artifact_dir is not None:
        stem = f"point{point}_run{run:04d}"
        (artifact_dir / "oracle" / f"{stem}.json").write_text(oracle.to_json())
        (artifact_dir / "traces" / f"{stem}.jsonl").write_text(
            phase_trace_jsonl(trace))
    return metrics


def wilson_interval(successes: int, trials: int, z: float = 1.96):
    """95% score interval for a binomial proportion."""
    if trials == 0:
        return (0.0, 1.0)
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1.0 - p) / trials + z * z / (4 * trials * trials)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


@dataclass
class ExperimentReport:
    """Aggregated sweep results plus the per-run rows behind them."""

    config: ExperimentConfig
    metrics: list[list[RunMetrics]]       # [point][run]

    def aggregate(self) -> list[dict]:
        """Per phase budget, the outcome and degenerate counts with the
        percent optimal, ``pn_power_unconverged``, the count of runs whose
        scenario's primary power control did not converge (a run that
        raised is not counted), and ``at_best_by_phase``: for each phase,
        the percent of runs whose S0 joint policy after it scores the best
        reward, with its Wilson interval (a run that raised is a miss)."""
        points = []
        for point, rows in enumerate(self.metrics):
            n = len(rows)
            counts = {"optimal": 0, "near_optimal": 0, "suboptimal": 0, "error": 0}
            degenerate = {"all_off": 0, "tied": 0}
            for m in rows:
                counts[m.outcome] += 1
                if m.degenerate is not None:
                    degenerate[m.degenerate] += 1
            lo, hi = wilson_interval(counts["optimal"], n)
            at_best = []
            for phase in range(self.config.agent[point].n_phases):
                hits = sum(m.at_best[phase] for m in rows if m.at_best)
                at_best.append({"phase": phase + 1,
                                "percent_at_best": 100.0 * hits / n,
                                "ci95_percent_at_best": [
                                    100.0 * p for p in wilson_interval(hits, n)]})
            points.append({
                "phases": self.config.agent[point].n_phases,
                "runs": n,
                "percent_optimal": 100.0 * counts["optimal"] / n,
                "percent_near_optimal": 100.0 * counts["near_optimal"] / n,
                "ci95_percent_optimal": [100.0 * lo, 100.0 * hi],
                "outcomes": counts,
                "degenerate": degenerate,
                "pn_power_unconverged": sum(m.pn_power_converged is False
                                            for m in rows),
                "at_best_by_phase": at_best,
            })
        return points

    def summary_csv(self) -> str:
        """Deterministic per-run table: run, outcome, reward, phases."""
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["run", "outcome", "reward", "phases"])
        for rows in self.metrics:
            for m in rows:
                writer.writerow([m.run, m.outcome, repr(float(m.reward)), m.phases])
        return buf.getvalue()

    def report_json(self) -> str:
        """Strict JSON: every value is finite (an error row's reward, which
        is NaN, stays in summary_csv)."""
        doc = {
            "learner": self.config.learner,
            "n_runs": self.config.n_runs,
            "master_seed": self.config.master_seed,
            "n_restarts": self.config.n_restarts,
            "probe_phases": self.config.probe_phases,
            "points": self.aggregate(),
            "wall_ms": {
                str(point): [m.wall_ms for m in rows]
                for point, rows in enumerate(self.metrics)
            },
        }
        return json.dumps(doc, indent=2, allow_nan=False)


def run_experiment(config: ExperimentConfig, workers: int = 1,
                   artifact_dir: Path | None = None) -> ExperimentReport:
    """Run every (phase budget, run index) job and aggregate.

    Jobs are independent; with workers > 1 they execute on a process pool
    of at most one worker per job and are re-sorted by index, so the
    report does not depend on the schedule. Given ``artifact_dir``, each
    job writes its run's ``oracle/point{p}_run{r:04d}.json`` and
    ``traces/point{p}_run{r:04d}.jsonl``.
    """
    if artifact_dir is not None:
        for sub in ("oracle", "traces"):
            (artifact_dir / sub).mkdir(parents=True, exist_ok=True)
    jobs = [(config, point, run, artifact_dir)
            for point in range(len(config.agent))
            for run in range(config.n_runs)]
    workers = min(workers, len(jobs))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_job, jobs))
    else:
        results = [_run_job(job) for job in jobs]

    metrics: list[list[RunMetrics]] = [[] for _ in config.agent]
    for (_, point, _, _), m in zip(jobs, results):
        metrics[point].append(m)
    for rows in metrics:
        rows.sort(key=lambda m: m.run)
    return ExperimentReport(config=config, metrics=metrics)


def sweep_p_vs_rho(config: ExperimentConfig, rhos, run: int = 0) -> dict:
    """Phase-change probability against experimentation rate.

    Uses the oracle's best joint action as the S0-keeping policy on the
    run's scenario. The rows are in rho order, whatever order ``rhos``
    gives them in.
    """
    scenario = scenario_for_run(config, 0, run)
    oracle = exhaustive_search(scenario, config.env.reward_mode, tau=config.tau)
    rows = [{"rho": rho,
             "p": phase_change_probability(scenario, oracle.best_joint_action, rho)}
            for rho in sorted(map(float, rhos))]
    return {
        "policy": list(oracle.best_joint_action),
        "rows": rows,
        "nondecreasing": bool(np.all(np.diff([r["p"] for r in rows]) >= 0)),
    }


def p_vs_rho_csv(result: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["rho", "p"])
    for row in result["rows"]:
        writer.writerow([repr(row["rho"]), repr(row["p"])])
    return buf.getvalue()


def emit_qvalue_traces(update_records, n_actions: int) -> str:
    """Per-update CSV: step, action, all S0 Q-values, candidate threshold.

    The threshold column is max(Q) - delta at that update, i.e. the
    candidate-set cutoff curve of the Q-evolution plots.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["step", "action"]
                    + [f"q_{a}" for a in range(n_actions)] + ["threshold"])
    for rec in update_records:
        writer.writerow([rec.step, rec.action]
                        + [repr(float(v)) for v in rec.q_s0]
                        + [repr(rec.threshold)])
    return buf.getvalue()


def phase_trace_jsonl(trace: RunTrace) -> str:
    """One JSON line per (phase, agent) with the boundary bookkeeping."""
    lines = []
    for phase_records in trace.phase_records:
        for agent_idx, rec in enumerate(phase_records):
            doc = {"agent": agent_idx}
            doc.update(rec.to_jsonable())
            lines.append(json.dumps(doc))
    return "\n".join(lines) + "\n"
