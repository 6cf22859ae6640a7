"""Distributed multi-agent Q-learning for underlay spectrum sharing.

Library layers, bottom to top: topology (wrap-around grid geometry),
channel (gains and SINR), link_adaptation (SINR-to-throughput and the
relative-throughput-change limit), environment (states, rewards, step
semantics), qfunc (table and network Q backends), agent (exploration
phases and best reply with inertia), oracle (brute-force optimum), and
harness (seeded Monte Carlo sweeps, also exposed as the ``simulate``
CLI).
"""

# set before the submodules load: harness records it in report.json
__version__ = "0.1.0"

from .agent import (
    AgentHyperparams,
    DqlAgents,
    TableAgents,
    run_learning,
)
from .channel import ChannelGains, path_gain, sn_sinrs
from .environment import (
    ActionSpace,
    EnvConfig,
    Outcomes,
    Scenario,
    build_scenario,
    outcome_tensor,
    phase_change_probability,
    pn_power_control,
)
from .harness import ExperimentConfig, RunMetrics, run_experiment, sweep_p_vs_rho
from .link_adaptation import AmcTable, relative_throughput_change
from .oracle import OracleResult, exhaustive_search, score_policy
from .qfunc import MlpParams, table_update, train_minibatch
from .topology import GridSpec, NodePlacement, sample_placement
