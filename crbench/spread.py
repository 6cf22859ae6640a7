"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 crbench/spread.py [--workload NAME ...] [--seeds 1-10]
                              [--parent DIR] [--out FILE]

Runs crbench/run.py untraced for BENCHMARK.json's run_seconds, once per
seed and workload, one run at a time. For each metric it reports the
median, the quartiles (statistics.quantiles, n=4) and their distance as
a share of the median, which should stay below a third of the metric's
bound.

With ``--parent DIR`` (another checkout with the same crbench/, at the
parent commit) every seed runs on both checkouts, alternating which goes
first, so both sides see the same stretch of host load. Each metric is
then judged as in a later change's review: ``better`` when this
checkout wins at least nine tenths of the pairs and the medians differ by
more than the parent's quartile distance; ``worse`` when its median is
worse than the parent's by more than the bound; ``unresolved`` when the
parent's own spread is wider than the bound and the sides overlap;
``within bound`` otherwise.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import quartiles

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(root: Path, workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "crbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise RuntimeError(f"{root} {workload} seed {seed} exited "
                           f"{proc.returncode}: {proc.stderr[-500:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"{root.name} {workload} seed {seed}: correct={result['correct']} "
          f"failed={result['failed']}/{result['attempted']} "
          + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
          flush=True)
    return result


def summarize(runs: list[dict], metric: str) -> dict:
    values = [r["metrics"][metric]["value"] for r in runs]
    q1, med, q3 = quartiles(values)
    return {"median": med, "q1": q1, "q3": q3, "iqr_share": (q3 - q1) / med,
            "values": values}


def judge(change: dict, parent: dict, better: str, bound: float) -> str:
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(change["values"], parent["values"]))
    wins = sum(1 for c, p in pairs if sign * (c - p) > 0)
    gain = sign * (change["median"] - parent["median"])
    if wins >= 0.9 * len(pairs) and gain > parent["q3"] - parent["q1"]:
        return "better"
    if -gain > bound * parent["median"]:
        return "worse"
    every_run_better = (min(sign * c for c in change["values"])
                        > max(sign * p for p in parent["values"]))
    if parent["iqr_share"] > bound and not every_run_better:
        return "unresolved"
    return "within bound"


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names,
                        help="repeatable; default: every workload")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--parent", type=Path, default=None,
                        help="checkout of the parent commit to alternate with")
    parser.add_argument("--out", default=None, help="write the runs and summary as JSON")
    args = parser.parse_args(argv)

    seconds = spec["run_seconds"]
    seeds = parse_seeds(args.seeds)
    report = {"seconds": seconds, "seeds": seeds, "workloads": {}}
    for workload in args.workload or names:
        sides = {"change": [], "parent": []}
        for i, seed in enumerate(seeds):
            order = [("change", ROOT), ("parent", args.parent)]
            if i % 2:
                order.reverse()
            for side, root in order:
                if root is not None:
                    sides[side].append(run_once(root.resolve(), workload, seed, seconds))
        entry = {}
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            change = summarize(sides["change"], name)
            line = (f"{workload:14s} {name:12s} median {change['median']:.6g}  "
                    f"q1 {change['q1']:.6g}  q3 {change['q3']:.6g}  "
                    f"iqr/median {change['iqr_share']:.4f} "
                    f"(bound {bound}: {'ok' if change['iqr_share'] < bound / 3 else 'WIDE'})")
            entry[name] = {"unit": m["unit"], "change": change}
            if args.parent is not None:
                parent = summarize(sides["parent"], name)
                verdict = judge(change, parent, m["better"], bound)
                entry[name].update(parent=parent, verdict=verdict)
                line += (f"  parent median {parent['median']:.6g} "
                         f"iqr/median {parent['iqr_share']:.4f}: {verdict}")
            print(line, flush=True)
        report["workloads"][workload] = {
            "failed_of_attempted": [[r["failed"], r["attempted"]]
                                    for r in sides["change"]],
            "metrics": entry}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
