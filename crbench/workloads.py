"""Workload definitions of the crpower benchmark.

Every workload is a JSON experiment config (the document ``simulate``
reads) plus the size of one timed call. All of them use
``tpc_reference="signal"`` and ``reward_mode="global"``: with the default
``"noise"`` reference the oracle optimum is all-off in every scenario, so
the benchmark would time a degenerate problem.

Importing this module imports nothing from crpower, so the set-up probe
can time those imports itself.
"""

from __future__ import annotations

import numpy as np

# Master seed of the fixed N=3 scenario pool behind oracle-n3 and its
# reference fixture (run index i of the pool is scenario_for_run(cfg, 0, i)).
ORACLE_POOL_SEED = 2205
ORACLE_POOL_SIZE = 256

ENV = {"reward_mode": "global", "tpc_reference": "signal"}

# The values of crpower.agent.TUNED_DQL_HYPERPARAMS[30] when the benchmark
# was written, spelled out so it keeps measuring the same learner if the
# table changes.
TUNED_DQL_30 = {"alpha0": 0.05, "zeta": 5.0, "rho": 0.10, "lam": 0.25, "c": 50}

PAPER_PHASE_LENGTH = 6250


def _sweep(learner: str, agent: dict, runs: int) -> dict:
    return {"learner": learner, "n_runs": runs,
            "env": dict(ENV, n_cr=2), "agent": agent}


# name -> config document, in full size and in the tiny size the
# benchmark's own tests use. On the sweeps n_runs is the number of runs in
# one timed run_experiment call; on cli-artifacts, in one invocation.
WORKLOADS = {
    "table-sweep": {
        "full": _sweep("table", {"phase_length": PAPER_PHASE_LENGTH, "n_phases": 2}, 4),
        "tiny": _sweep("table", {"phase_length": 50, "n_phases": 2}, 2),
    },
    "dql-sweep": {
        "full": _sweep("dql", dict(TUNED_DQL_30, phase_length=PAPER_PHASE_LENGTH,
                                   n_phases=2), 4),
        "tiny": _sweep("dql", dict(TUNED_DQL_30, phase_length=50, n_phases=2), 2),
    },
    "oracle-n3": {
        "full": {"learner": "table", "n_runs": 1, "master_seed": ORACLE_POOL_SEED,
                 "env": dict(ENV, n_cr=3)},
        "tiny": {"learner": "table", "n_runs": 1, "master_seed": ORACLE_POOL_SEED,
                 "env": dict(ENV, n_cr=3)},
    },
    "cli-artifacts": {
        "full": _sweep("table", {"phase_length": 1250, "n_phases": 2}, 4),
        "tiny": _sweep("table", {"phase_length": 50, "n_phases": 2}, 2),
    },
}

CLI_WORKERS = 2


def config_doc(workload: str, tiny: bool = False) -> dict:
    return WORKLOADS[workload]["tiny" if tiny else "full"]


def call_seed(seed: int, call: int) -> int:
    """Master seed of the call-th timed call of a run with this seed."""
    return int(np.random.SeedSequence([seed, call]).generate_state(1)[0])


def oracle_order(seed: int, pool_size: int = ORACLE_POOL_SIZE) -> np.ndarray:
    """Pool indices in the order a run with this seed visits them."""
    return np.random.default_rng(seed).permutation(pool_size)
