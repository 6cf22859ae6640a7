"""Span tracing of crpower's public functions, from outside the package.

The tracer replaces module attributes named in TRACED with timing
wrappers. A function that other crpower modules imported by name is
replaced there too, so calls through ``from .qfunc import table_update``
are seen. A name missing from the package (deleted or renamed by a later
change) is reported in ``absent`` instead of failing.

Each span records its duration, its self time (duration minus the wrapped
calls it made) and the time and count of each (caller, callee) pair.
Stats live in memory; a process forked while tracing (the process pool of
``simulate run``) starts from zero and writes its own stats file at exit.

Run as a script to execute the ``simulate`` command under the tracer::

    PYTHONPATH=src python3 crbench/tracing.py STATS_DIR run --config ...
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from multiprocessing import util as mp_util
from pathlib import Path

TRACED = (
    "topology.sample_placement",
    "channel.build_gains",
    "link_adaptation.throughput",
    "link_adaptation.relative_throughput_change",
    "environment.pn_power_control",
    "environment.build_scenario",
    "environment.observe",
    "environment.reward",
    "environment.ObservationCache.__call__",
    "qfunc.table_update",
    "qfunc.train_minibatch",
    "qfunc.q_matrix",
    "qfunc.refresh_target",
    "agent.run_exploration_phase",
    "agent._AgentBase.step",
    "agent._AgentBase.update_policy",
    "oracle.exhaustive_search",
    "harness.scenario_for_run",
    "harness.execute_run",
    "harness.run_experiment",
    "cli.cmd_run",
)


class Tracer:
    """Installs wrappers on enter, restores the originals on exit."""

    def __init__(self, stats_dir: Path | None = None):
        self.stats_dir = stats_dir
        self.role = "main"
        self.stack: list[list] = []
        self.stats: dict[str, list] = {}        # name -> [calls, total_s, self_s]
        self.pairs: dict[tuple, list] = {}      # (caller, callee) -> [calls, s]
        self.counts: dict[str, int] = {}
        self.absent: list[str] = []
        self._restore: list[tuple] = []

    # -- installation ------------------------------------------------------

    def __enter__(self):
        modules = [m for name, m in sys.modules.items()
                   if name == "crpower" or name.startswith("crpower.")]
        for name in TRACED:
            module_name, _, attr_path = name.partition(".")
            try:
                owner = importlib.import_module(f"crpower.{module_name}")
                *parents, attr = attr_path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            if parents:
                self._patch(owner, attr, wrapper)
            else:
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, wrapper)
        mp_util.register_after_fork(self, Tracer._after_fork)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        return False

    def _patch(self, owner, attr, wrapper):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, name, fn):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack, pairs = self.stack, self.pairs
        inspect = _INSPECTORS.get(name)
        counts = self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - frame[1]
                if stack:
                    caller = stack[-1]
                    caller[1] += elapsed
                    pair = pairs.get((caller[0], name))
                    if pair is None:
                        pair = pairs[(caller[0], name)] = [0, 0.0]
                    pair[0] += 1
                    pair[1] += elapsed
            if inspect is not None:
                inspect(result, counts)
            return result

        return wrapper

    # -- forked workers ----------------------------------------------------

    def _after_fork(self):
        """Start a forked worker from zero and dump its stats at exit."""
        self.role = "worker"
        del self.stack[:]
        for stat in self.stats.values():
            stat[:] = [0, 0.0, 0.0]
        for pair in self.pairs.values():
            pair[:] = [0, 0.0]
        self.counts.clear()
        if self.stats_dir is not None:
            mp_util.Finalize(self, self.dump, exitpriority=0)

    # -- results -----------------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "role": self.role,
            "stats": {k: list(v) for k, v in self.stats.items()},
            "pairs": [[a, b, n, s] for (a, b), (n, s) in self.pairs.items()],
            "counts": dict(self.counts),
            "absent": list(self.absent),
        }

    def dump(self):
        path = Path(self.stats_dir) / f"stats-{os.getpid()}.json"
        path.write_text(json.dumps(self.snapshot()))


def _count(counts: dict, key: str, by: int = 1):
    counts[key] = counts.get(key, 0) + by


def _inspect_scenario(scenario, counts):
    if not getattr(scenario, "pn_power_converged", True):
        _count(counts, "environment.pn_power_unconverged")


def _inspect_oracle(result, counts):
    _count(counts, "oracle.joint_actions", len(result.reward_table))
    if not any(result.best_joint_action):
        _count(counts, "oracle.all_off")
    if len(result.near_optimal) > 1:
        _count(counts, "oracle.tied")


_INSPECTORS = {
    "environment.build_scenario": _inspect_scenario,
    "oracle.exhaustive_search": _inspect_oracle,
}


def merge(snapshots: list[dict]) -> dict:
    """Sum the snapshots of several processes into one."""
    out = {"stats": {}, "pairs": {}, "counts": {}, "absent": [],
           "worker_stats": {}}
    for snap in snapshots:
        targets = [out["stats"]]
        if snap["role"] == "worker":
            targets.append(out["worker_stats"])
        for target in targets:
            for name, (calls, total, own) in snap["stats"].items():
                stat = target.setdefault(name, [0, 0.0, 0.0])
                stat[0] += calls
                stat[1] += total
                stat[2] += own
        for a, b, calls, total in snap["pairs"]:
            pair = out["pairs"].setdefault((a, b), [0, 0.0])
            pair[0] += calls
            pair[1] += total
        for key, value in snap["counts"].items():
            out["counts"][key] = out["counts"].get(key, 0) + value
        out["absent"] = sorted(set(out["absent"]) | set(snap["absent"]))
    return out


def main(argv: list[str]) -> int:
    stats_dir = Path(argv[0])
    import crpower  # noqa: F401  (loads every library module)
    import crpower.cli

    with Tracer(stats_dir) as tracer:
        code = crpower.cli.main(argv[1:])
    tracer.dump()
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
