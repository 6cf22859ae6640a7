"""The crpower benchmark.

    python3 crbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the package is imported from
``src/`` next to this directory, never from elsewhere. The workload
(see workloads.py) runs through crpower's public API for S seconds, its
outputs are checked (checks.py), and the last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end metrics of
BENCHMARK.json. Their timings are medians scaled to a fixed host speed:
on a shared host the speed of the whole machine drifts up to twofold
within minutes, so a fixed reference is timed between operations and
each median is divided by the reference's own median (see
pace_reference). The raw wall times, their quartiles and tail are
printed beside. With ``--trace 1`` the first half of the time runs under
the span tracer (tracing.py) and the same calls are then replayed
untraced; the metrics are the per-layer metrics, including the tracing
overhead. ``--tiny`` shrinks every workload for the benchmark's own tests.

An operation is a learning run (table-sweep, dql-sweep), a scenario
(oracle-n3) or a ``simulate run`` invocation (cli-artifacts). It fails
when the program reports an error for it or its output fails a check,
with one exception: a DQL run that the harness reports as diverged (its
error is a FloatingPointError) is the learner's known outcome, not a
fault of the run. It counts as attempted and not failed, adds wall time
but no steps or latency sample, and shows in ``error_rate`` and
``qfunc.diverged`` instead, so that a stability fix moves those.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import checks
import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".crbench_work"                  # scratch space, removed at exit
SETUP_REPEATS = 16
CHILD_TIMEOUT_S = 120
REF_SHARE = 0.05         # share of the timed time given to the reference
REF_KERNEL_S = 0.005     # reference kernel time that scaled timings assume
REF_PROBE_S = 0.1        # reference probe time that scaled timings assume

# Repeated in fresh interpreters to time set-up: start-up, imports, config
# and AMC table load, everything a user pays before the first timed call.
SETUP_PROBE = """
import sys
sys.path[:0] = [{src!r}, {bench!r}]
import crpower, crpower.cli, workloads
config = crpower.ExperimentConfig.from_dict(workloads.config_doc({name!r}, {tiny!r}))
config.amc_table()
"""
# The reference for operations that are whole interpreter runs: start-up
# and imports load the host differently from in-process work, and the
# reference kernel follows them less closely. It runs no crpower code.
REF_PROBE = "import numpy"


@dataclass
class Segment:
    """What one stretch of timed calls did."""

    call_s: list = field(default_factory=list)     # wall time per call
    op_s: list = field(default_factory=list)       # latency per good operation
    search_s: list = field(default_factory=list)   # exhaustive_search alone
    good: list = field(default_factory=list)       # good operations per call
    ref_s: list = field(default_factory=list)      # reference times
    process_ops: bool = False                      # operations are child processes
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    reports: list = field(default_factory=list)    # harness outcome counts
    runs: int = 0                                  # learning runs attempted
    good_steps: int = 0
    diverged: int = 0                              # learning runs that diverged
    artifact_files: int = 0
    artifact_bytes: int = 0
    child_rss_mb: float = 0.0                      # largest simulate run process tree

    @property
    def calls(self) -> int:
        return len(self.call_s)

    @property
    def wall_s(self) -> float:
        return sum(self.call_s)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def import_crpower():
    """Import crpower from this checkout's src/, or exit without a result."""
    sys.path.insert(0, str(SRC))
    try:
        import crpower
        import crpower.cli  # noqa: F401
    except ImportError as exc:
        sys.exit(f"crbench: cannot import crpower from {SRC}: {exc}")
    if Path(crpower.__file__).resolve().parent.parent != SRC:
        sys.exit(f"crbench: crpower imported from {crpower.__file__}, not {SRC}")
    return crpower


@dataclass
class Child:
    returncode: int
    stdout: str
    stderr: str
    wall_s: float
    peak_rss_mb: float       # the child and the children it waited for


def run_child(cmd: list[str]) -> Child:
    """Run a child process to completion.

    os.wait4 reaps it, so its peak RSS covers its own process tree and no
    other child of the benchmark. A timer kills a child that outlives
    CHILD_TIMEOUT_S; waiting with a timeout instead would poll in steps of
    up to 50 ms and blur the timings by as much.
    """
    with tempfile.TemporaryFile(dir=WORK_DIR) as out, \
            tempfile.TemporaryFile(dir=WORK_DIR) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=out, stderr=err)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        elapsed = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Child(proc.returncode, out.read().decode(errors="replace"),
                     err.read().decode(errors="replace"), elapsed,
                     usage.ru_maxrss / 1024.0)


_REF_MATRIX = np.linspace(0.0, 1.0, 196).reshape(14, 14)


def time_reference_kernel() -> float:
    """Wall time of one pass of a fixed kernel that shares no code with crpower.

    It does the kind of work crpower's hot paths do: Python loops around
    dict lookups and small numpy arrays.
    """
    start = time.perf_counter()
    counts = {}
    for i in range(25000):
        counts[i % 997] = counts.get(i % 997, 0) + i
    total = 0.0
    for _ in range(400):
        total += float((_REF_MATRIX * 1.5 + _REF_MATRIX).sum())
    return time.perf_counter() - start


def time_reference_probe() -> float:
    child = run_child([sys.executable, "-c", REF_PROBE])
    if child.returncode != 0:
        sys.exit(f"crbench: reference probe failed: {child.stderr.strip()[-500:]}")
    return child.wall_s


def pace_reference(ref_s: list, timed_s: float, process: bool) -> None:
    """After a timed stretch, time the reference at least once and until it
    has had REF_SHARE of the time timed so far.

    The reference is the probe when the timed operations are child
    processes, else the kernel. Either slows with the host: over one run,
    the ratio of an operation's median time to its reference's median
    time drifts less than either does.
    """
    timer = time_reference_probe if process else time_reference_kernel
    ref_s.append(timer())
    while sum(ref_s) < REF_SHARE * timed_s:
        ref_s.append(timer())


def at_reference_speed(samples: list[float], ref_s: list[float], process: bool) -> float:
    """The samples' median, scaled to a host on which the reference's median
    takes REF_PROBE_S (process) or REF_KERNEL_S."""
    nominal_s = REF_PROBE_S if process else REF_KERNEL_S
    return statistics.median(samples) * nominal_s / statistics.median(ref_s)


def measure_setup(name: str, tiny: bool, repeats: int, times: list, ref_s: list):
    """Append the wall times of `repeats` set-up probes to `times`, pacing
    the reference probe into `ref_s` between them."""
    code = SETUP_PROBE.format(src=str(SRC), bench=str(BENCH_DIR), name=name,
                              tiny=tiny)
    for _ in range(repeats):
        child = run_child([sys.executable, "-c", code])
        if child.returncode != 0:
            sys.exit(f"crbench: set-up probe failed: {child.stderr.strip()[-500:]}")
        times.append(child.wall_s)
        pace_reference(ref_s, sum(times), process=True)


def _more(seg: Segment, start: float, seconds: float | None, calls: int | None):
    if seg.calls:
        pace_reference(seg.ref_s, seg.wall_s, seg.process_ops)
    if calls is not None:
        return seg.calls < calls
    return time.perf_counter() - start < seconds


def run_sweep(name, seed, tiny, seconds=None, calls=None) -> Segment:
    from crpower.environment import ActionSpace
    from crpower.harness import ExperimentConfig, run_experiment

    base = ExperimentConfig.from_dict(workloads.config_doc(name, tiny))
    hp = base.agent[0]
    n_actions = len(ActionSpace.default())
    seg = Segment()
    start = time.perf_counter()
    while _more(seg, start, seconds, calls):
        config = replace(base, master_seed=workloads.call_seed(seed, seg.calls))
        t0 = time.perf_counter()
        report = run_experiment(config, workers=1)
        elapsed = time.perf_counter() - t0
        rows = [m for point in report.metrics for m in point]
        problems = checks.check_aggregate(report)
        good = []
        diverged_before = seg.diverged
        for m in rows:
            row_problems = checks.check_run_metrics(m, config.env.n_cr, n_actions,
                                                    config.tau)
            problems += row_problems
            if row_problems:
                continue
            if m.outcome != "error":
                good.append(m)
            elif diverged(m):
                seg.diverged += 1
        seg.call_s.append(elapsed)
        seg.op_s += [m.wall_ms / 1e3 for m in good]
        seg.good.append(len(good))
        seg.attempted += len(rows)
        seg.runs += len(rows)
        seg.failed += len(rows) - len(good) - (seg.diverged - diverged_before)
        seg.problems += problems
        seg.reports += [point["outcomes"] for point in report.aggregate()]
        seg.good_steps += len(good) * hp.n_phases * hp.phase_length
    return seg


def diverged(m) -> bool:
    """Did the harness report this run as a learner divergence?"""
    return m.outcome == "error" and "FloatingPointError" in (m.error or "")


def run_oracle(name, seed, tiny, seconds=None, calls=None) -> Segment:
    from crpower.harness import ExperimentConfig, scenario_for_run
    from crpower.oracle import exhaustive_search

    config = ExperimentConfig.from_dict(workloads.config_doc(name, tiny))
    fixture = checks.load_fixture()
    order = workloads.oracle_order(seed)
    seg = Segment()
    start = time.perf_counter()
    while _more(seg, start, seconds, calls):
        index = int(order[seg.calls % len(order)])
        t0 = time.perf_counter()
        scenario = scenario_for_run(config, 0, index)
        t1 = time.perf_counter()
        result = exhaustive_search(scenario, config.env.reward_mode, tau=config.tau)
        t2 = time.perf_counter()
        problems = checks.check_oracle(index, result, fixture)
        seg.call_s.append(t2 - t0)
        if not problems:
            seg.op_s.append(t2 - t0)
            seg.search_s.append(t2 - t1)
        seg.good.append(0 if problems else 1)
        seg.attempted += 1
        seg.failed += 1 if problems else 0
        seg.problems += problems
    return seg


def run_cli(name, seed, tiny, seconds=None, calls=None, trace_dir=None) -> Segment:
    from crpower.harness import ExperimentConfig

    doc = workloads.config_doc(name, tiny)
    config = ExperimentConfig.from_dict(doc)
    hp = config.agent[0]
    work = Path(tempfile.mkdtemp(prefix="cli-", dir=WORK_DIR))
    config_path = work / "config.json"
    config_path.write_text(json.dumps(doc))
    if trace_dir is None:
        launcher = [sys.executable, "-m", "crpower.cli"]
    else:
        launcher = [sys.executable, str(BENCH_DIR / "tracing.py"), str(trace_dir)]
    seg = Segment(process_ops=True)
    start = time.perf_counter()
    while _more(seg, start, seconds, calls):
        out = work / f"out{seg.calls}"
        cmd = launcher + ["run", "--config", str(config_path),
                          "--seed", str(workloads.call_seed(seed, seg.calls)),
                          "--out", str(out),
                          "--workers", str(workloads.CLI_WORKERS)]
        child = run_child(cmd)
        seg.child_rss_mb = max(seg.child_rss_mb, child.peak_rss_mb)
        if child.returncode != 0:
            problems = [f"simulate run exited {child.returncode}: "
                        f"{child.stderr.strip()[-300:]}"]
        else:
            problems = checks.check_cli_artifacts(
                out, config.n_runs, hp.n_phases, config.env.n_cr, config.tau)
            if "% optimal" not in child.stdout:
                problems.append("simulate run printed no aggregate line")
        if not problems:
            report = json.loads((out / "report.json").read_text())
            seg.reports.append(report["points"][0]["outcomes"])
            files = [p for p in out.rglob("*") if p.is_file()]
            seg.artifact_files += len(files)
            seg.artifact_bytes += sum(p.stat().st_size for p in files)
            seg.good_steps += config.n_runs * hp.n_phases * hp.phase_length
        shutil.rmtree(out, ignore_errors=True)
        seg.runs += config.n_runs
        seg.call_s.append(child.wall_s)
        if not problems:
            seg.op_s.append(child.wall_s)
        seg.good.append(0 if problems else 1)
        seg.attempted += 1
        seg.failed += 1 if problems else 0
        seg.problems += problems
    shutil.rmtree(work, ignore_errors=True)
    return seg


def run_segment(name, seed, tiny, seconds=None, calls=None, trace_dir=None):
    if name == "cli-artifacts":
        return run_cli(name, seed, tiny, seconds, calls, trace_dir)
    runner = run_oracle if name == "oracle-n3" else run_sweep
    if trace_dir is None:
        return runner(name, seed, tiny, seconds, calls)
    with tracing.Tracer(trace_dir) as tracer:
        seg = runner(name, seed, tiny, seconds, calls)
    tracer.dump()
    return seg


# --- metrics ----------------------------------------------------------------

def quartiles(values) -> tuple[float, float, float]:
    values = sorted(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def tail(values) -> tuple[float, float] | None:
    """Highest percentile with at least ten samples beyond it (nearest rank)."""
    values = sorted(values)
    k = len(values) - 11
    if k < 0:
        return None
    return 100.0 * (k + 1) / len(values), values[k]


def peak_rss_mb(seg: Segment) -> float:
    """The simulate run process tree on cli-artifacts, else this process."""
    if seg.child_rss_mb:
        return seg.child_rss_mb
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def outcome_percent(seg: Segment, outcome: str) -> float:
    """Percent of the learning runs the harness scored with this outcome."""
    runs = sum(sum(counts.values()) for counts in seg.reports)
    hits = sum(counts.get(outcome, 0) for counts in seg.reports)
    return 100.0 * hits / runs if runs else 0.0


def error_rate(seg: Segment) -> float:
    """Share of the operations that diverged or failed."""
    return (seg.diverged + seg.failed) / seg.attempted


def end_to_end(seg: Segment, setup: list[float], setup_ref_s: list[float]) -> dict:
    """Metric -> (value, unit, raw samples behind it or None)."""
    if not seg.op_s:
        sys.exit("crbench: no operation finished without error; nothing to time")
    op_ms = [s * 1e3 for s in seg.op_s]
    return {
        "setup_s": (at_reference_speed(setup, setup_ref_s, process=True), "s", setup),
        "op_ms_norm": (at_reference_speed(op_ms, seg.ref_s, seg.process_ops), "ms", op_ms),
        "peak_rss_mb": (peak_rss_mb(seg), "MB", None),
    }


def spread_text(samples, unit: str) -> str:
    """Median, quartiles and tail of a run's raw samples."""
    q1, med, q3 = quartiles(samples)
    t = tail(samples)
    tail_text = f", p{t[0]:.1f} {t[1]:.6g}" if t else ""
    return (f"(raw {unit}: median {med:.6g}, q1 {q1:.6g}, q3 {q3:.6g}{tail_text}, "
            f"n={len(samples)})")


def workload_lines(name: str, seg: Segment) -> list[str]:
    """The workload's own named metrics, printed beside the JSON."""
    lines = []
    wall = seg.wall_s
    if name == "oracle-n3":
        search_ms = [s * 1e3 for s in seg.search_s]
        lines.append(f"oracle_ms_p50 {statistics.median(search_ms):.3f} ms "
                     f"(n={len(search_ms)})")
        t = tail(search_ms)
        lines.append("oracle_ms_tail " + (f"{t[1]:.3f} ms (p{t[0]:.1f} of "
                                          f"n={len(search_ms)})" if t else
                                          f"n/a (n={len(search_ms)} < 11)"))
        lines.append(f"scenarios_per_s {sum(seg.good) / wall:.4f} 1/s")
    else:
        lines.append(f"steps_per_s {seg.good_steps / wall:.1f} 1/s "
                     "(steps of runs without error / wall)")
        lines.append(f"pct_optimal {outcome_percent(seg, 'optimal'):.2f} % "
                     f"pct_near_optimal {outcome_percent(seg, 'near_optimal'):.2f} % "
                     f"(of {seg.runs} runs)")
    if name == "cli-artifacts":
        cli_s = seg.op_s
        lines.append(f"cli_s {statistics.median(cli_s):.4f} s (median of n={len(cli_s)})")
    lines.append(f"error_rate {error_rate(seg):.4f} ({seg.diverged} diverged "
                 f"and {seg.failed} failed of {seg.attempted} operations)")
    return lines


def per_layer(traced: Segment, untraced: Segment, trace: dict) -> dict:
    stats, pairs, counts = trace["stats"], trace["pairs"], trace["counts"]

    def calls(span):
        return stats.get(span, [0, 0.0, 0.0])[0]

    def mean(span, scale, index=1):
        stat = stats.get(span)
        return stat[index] / stat[0] * scale if stat and stat[0] else 0.0

    def pair(caller, callee):
        return pairs.get((caller, callee), [0, 0.0])

    agent_self = sum(stats.get(s, [0, 0.0, 0.0])[2] for s in (
        "agent.run_exploration_phase", "agent._AgentBase.step",
        "agent._AgentBase.update_policy"))
    agent_steps = calls("agent._AgentBase.step")
    cache_calls = calls("environment.ObservationCache.__call__")
    oracle_s = stats.get("oracle.exhaustive_search", [0, 0.0, 0.0])[1]
    run_experiment_s = stats.get("harness.run_experiment", [0, 0.0, 0.0])[1]
    worker_busy = trace["worker_stats"].get("harness.execute_run", [0, 0.0, 0.0])[1]
    pool_idle = (1.0 - worker_busy / (workloads.CLI_WORKERS * run_experiment_s)
                 if worker_busy and run_experiment_s else 0.0)
    invocations = max(traced.attempted, 1)
    values = {
        "qfunc.table_update.calls": calls("qfunc.table_update"),
        "qfunc.table_update.us": mean("qfunc.table_update", 1e6),
        "agent.steps": agent_steps,
        "agent.self_us_per_step": agent_self / agent_steps * 1e6 if agent_steps else 0.0,
        "agent.run_exploration_phase.ms": mean("agent.run_exploration_phase", 1e3),
        "agent.update_policy.calls": calls("agent._AgentBase.update_policy"),
        "environment.reward.calls": calls("environment.reward"),
        "environment.reward.us": mean("environment.reward", 1e6),
        "environment.cache.hit_ratio": (
            1.0 - pair("environment.ObservationCache.__call__",
                       "environment.observe")[0] / cache_calls
            if cache_calls else 0.0),
        "qfunc.train_minibatch.calls": calls("qfunc.train_minibatch"),
        "qfunc.train_minibatch.us": mean("qfunc.train_minibatch", 1e6),
        "qfunc.q_matrix.calls": calls("qfunc.q_matrix"),
        "qfunc.q_matrix.us": mean("qfunc.q_matrix", 1e6),
        "qfunc.refresh_target.calls": calls("qfunc.refresh_target"),
        "qfunc.diverged": traced.diverged,
        "environment.observe.calls": calls("environment.observe"),
        "environment.observe.us": mean("environment.observe", 1e6),
        "link_adaptation.throughput.calls": calls("link_adaptation.throughput"),
        "link_adaptation.relative_throughput_change.calls":
            calls("link_adaptation.relative_throughput_change"),
        "oracle.exhaustive_search.ms": mean("oracle.exhaustive_search", 1e3),
        "oracle.joint_actions": counts.get("oracle.joint_actions", 0),
        "oracle.observe_share": (pair("oracle.exhaustive_search",
                                      "environment.observe")[1] / oracle_s
                                 if oracle_s else 0.0),
        "topology.sample_placement.ms": mean("topology.sample_placement", 1e3),
        "channel.build_gains.ms": mean("channel.build_gains", 1e3),
        "environment.pn_power_control.ms": mean("environment.pn_power_control", 1e3),
        "environment.build_scenario.self_ms": mean("environment.build_scenario",
                                                   1e3, index=2),
        "harness.execute_run.calls_per_run": (
            calls("harness.execute_run") / traced.runs if traced.runs else 0.0),
        "harness.execute_run.ms": mean("harness.execute_run", 1e3),
        "harness.pool_idle_share": pool_idle,
        "cli.artifact_files": traced.artifact_files / invocations,
        "cli.artifact_bytes": traced.artifact_bytes / invocations,
        "environment.pn_power_unconverged": counts.get("environment.pn_power_unconverged", 0),
        "oracle.all_off": counts.get("oracle.all_off", 0),
        "oracle.tied": counts.get("oracle.tied", 0),
        "harness.pct_optimal": outcome_percent(traced, "optimal"),
        "harness.pct_near_optimal": outcome_percent(traced, "near_optimal"),
        "harness.error_rate": error_rate(traced),
        "trace.overhead": (
            at_reference_speed([traced.wall_s], traced.ref_s, traced.process_ops)
            / at_reference_speed([untraced.wall_s], untraced.ref_s,
                                 untraced.process_ops) - 1.0),
        "trace.absent": len(trace["absent"]),
    }
    return values


# --- main -------------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink the workload (the benchmark's own tests)")
    return parser.parse_args(argv)


def timed_run(args, spec) -> tuple[dict, list[Segment]]:
    """End-to-end metrics of an untraced run, printed with their spread."""
    # Half the set-up probes run before the workload and half after it, so
    # they span the run's own stretch of machine load. The first probe only
    # fills __pycache__ and is not counted.
    setup, setup_ref_s = [], []
    measure_setup(args.workload, args.tiny, 1, [], [])
    measure_setup(args.workload, args.tiny, SETUP_REPEATS // 2, setup, setup_ref_s)
    seg = run_segment(args.workload, args.seed, args.tiny, seconds=args.seconds)
    measure_setup(args.workload, args.tiny, SETUP_REPEATS - len(setup), setup,
                  setup_ref_s)
    values = end_to_end(seg, setup, setup_ref_s)
    metrics = {}
    for m in spec["end_to_end"]:
        value, unit, samples = values[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": unit}
        spread = "  " + spread_text(samples, unit) if samples else ""
        print(f"  {m['name']:14s} {value:.6g} {unit}{spread}")
    for what, ref_s, process in (("set-up probes", setup_ref_s, True),
                                 ("operations", seg.ref_s, seg.process_ops)):
        med = statistics.median(ref_s)
        nominal_s = REF_PROBE_S if process else REF_KERNEL_S
        print(f"  reference {'probe' if process else 'kernel'} between {what}: "
              f"median {med * 1e3:.3f} ms of n={len(ref_s)} "
              f"(host at {nominal_s / med:.3f} x reference speed)")
    for line in workload_lines(args.workload, seg):
        print("  " + line)
    return metrics, [seg]


def traced_run(args, spec) -> tuple[dict, list[Segment]]:
    """Per-layer metrics: half the time traced, then the same calls untraced."""
    trace_dir = Path(tempfile.mkdtemp(prefix="trace-", dir=WORK_DIR))
    traced = run_segment(args.workload, args.seed, args.tiny,
                         seconds=args.seconds / 2, trace_dir=trace_dir)
    untraced = run_segment(args.workload, args.seed, args.tiny, calls=traced.calls)
    trace = tracing.merge([json.loads(p.read_text())
                           for p in sorted(trace_dir.glob("stats-*.json"))])
    shutil.rmtree(trace_dir, ignore_errors=True)
    if trace["absent"]:
        print("  absent from crpower, reported as 0: " + ", ".join(trace["absent"]))
    values = per_layer(traced, untraced, trace)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer"]}
    for key in sorted(metrics):
        print(f"  {key:50s} {metrics[key]['value']:.6g} {metrics[key]['unit']}")
    return metrics, [traced, untraced]


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    crpower = import_crpower()
    import numpy

    print(f"crbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}{' tiny' if args.tiny else ''}: crpower "
          f"{crpower.__version__}, python {platform.python_version()}, numpy "
          f"{numpy.__version__}, nproc {os.cpu_count()}, {platform.machine()}")
    WORK_DIR.mkdir(exist_ok=True)
    try:
        metrics, segments = (traced_run if args.trace else timed_run)(args, spec)
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)

    problems = [p for s in segments for p in s.problems]
    for p in problems[:20]:
        print(f"CHECK FAILED: {p}")
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(s.attempted for s in segments),
        "failed": sum(s.failed for s in segments),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
