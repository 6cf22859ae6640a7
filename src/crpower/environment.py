"""Multi-agent environment: scenario build, states, rewards, step semantics.

A Scenario freezes one sampled network (geometry, shadowed gains, primary
powers); build_scenario sets the primary powers on the primary links
alone, the radios silent, as in the underlay setting. Each cognitive
radio monitors the primary link it hears loudest and is in state S0
while the relative throughput change it inflicts there stays within the
configured limit. Rewards are 10^throughput in S0 and zero in S1, either
per link or summed over links (global mode).

The joint action space is small (|A|^N), so a scenario evaluates all of it
at once into one outcome tensor; the oracle, the learning loop and the
phase-change probability all read from that tensor: per joint action,
the joint state (every agent's state as one bit) and each agent's reward
under both reward modes. The states, |T%| values and throughputs behind
them are temporaries of the evaluation. A throughput takes one of a few
AMC levels, so the tensor's rewards are scalar pows taken once per AMC
mode (local) and once per distinct combination of the links' modes
(global), not once per row.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from . import channel
from .channel import ChannelGains, dbm_to_mw, received_power_mw, sn_sinrs
from .link_adaptation import AmcTable, amc_mode, relative_throughput_change
from .qfunc import _clip
from .topology import ConfigurationError, GridSpec, NodePlacement, sample_placement

__all__ = [
    "ActionSpace",
    "EnvConfig",
    "Outcomes",
    "Scenario",
    "build_scenario",
    "pn_power_control",
    "outcome_tensor",
    "check_outcome_budget",
    "phase_change_probability",
]

STATE_S0 = 0
STATE_S1 = 1

DEFAULT_PN_TARGET_SINR_DB = 10.0
PN_POWER_MIN_DBM, PN_POWER_MAX_DBM = -20.0, 40.0
PN_POWER_MAX_ITERS = 100        # pn_power_control's iteration cap
PN_POWER_TOL_DB = 0.01          # and its per-AP convergence tolerance

# Largest outcome tensor outcome_tensor() builds, in bytes of its peak
# working set; the joint action space grows as |A|^N.
OUTCOME_MEMORY_BUDGET = 1 << 30

# Most slots of the table _rewards keys rows into by their AMC modes:
# 16^5, the default AMC table at N = 5. Beyond it (large custom tables)
# each row's global reward is taken on its own.
REWARD_KEY_SLOTS_MAX = 16 ** 5


@dataclass(frozen=True)
class ActionSpace:
    """Ordered CR transmit options; index 0 is always "off".

    powers_dbm holds the dBm level of indices 1.., finite and strictly
    increasing.
    """

    powers_dbm: tuple[float, ...]

    def __post_init__(self):
        levels = np.asarray(self.powers_dbm, dtype=float)
        if not (np.all(np.isfinite(levels)) and np.all(np.diff(levels) > 0)):
            raise ConfigurationError(
                "transmit levels must be finite and strictly increasing")

    @staticmethod
    @cache
    def default() -> "ActionSpace":
        """Off plus 13 levels from -10 to 20 dBm in 2.5 dBm steps (14 total).

        Every call returns one shared instance, built on the first, so its
        levels and their linear powers are computed once per process.
        """
        space = ActionSpace(tuple(np.arange(-10.0, 20.0 + 1e-9, 2.5)))
        if len(space) != 14:
            raise ConfigurationError(
                f"default action space has {len(space)} actions, expected 14")
        return space

    def __len__(self) -> int:
        return len(self.powers_dbm) + 1

    @cached_property
    def powers_mw(self) -> np.ndarray:
        """Linear power of each action ("off" is 0.0), by the scalar pow
        per level, which numpy's array pow can miss in the last bit."""
        powers = np.array([0.0] + [float(dbm_to_mw(p)) for p in self.powers_dbm])
        powers.flags.writeable = False          # the default space is shared
        return powers


@dataclass(frozen=True)
class EnvConfig:
    """Shared environment knobs.

    tpc_reference picks the power the secondary interference is compared
    against inside the relative-throughput-change formula: "noise" (the
    AWGN floor; the conservative default) or "signal" (the monitored
    link's received signal power, i.e. a protection-ratio style limit).
    With "noise" and the default geometry even the lowest transmit level
    usually breaks the 5% limit, so optima collapse to all-off; "signal"
    spreads them over the action range.
    """

    epsilon: float = 0.05           # limit on |T%| at the monitored link
    reward_mode: str = "global"     # "global" (sum) or "local" (own throughput)
    n_cr: int = 2
    tpc_reference: str = "noise"    # "noise" or "signal"

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise ConfigurationError("epsilon must lie in (0, 1)")
        if self.reward_mode not in ("local", "global"):
            raise ConfigurationError(f"unknown reward mode {self.reward_mode!r}")
        if self.n_cr < 1:
            raise ConfigurationError("need at least one CR")
        if self.tpc_reference not in ("noise", "signal"):
            raise ConfigurationError(
                f"unknown tpc reference {self.tpc_reference!r}")


@dataclass(frozen=True)
class Scenario:
    """One immutable network instance the agents learn on; its primary
    powers must lie in [-20, 40] dBm (ValueError otherwise)."""

    placement: NodePlacement
    gains: ChannelGains
    pn_powers_dbm: np.ndarray
    actions: ActionSpace
    amc: AmcTable
    config: EnvConfig
    pn_power_converged: bool = True

    def __post_init__(self):
        p = np.asarray(self.pn_powers_dbm, dtype=float)
        # written so that NaN fails too
        if not np.all((p >= PN_POWER_MIN_DBM) & (p <= PN_POWER_MAX_DBM)):
            raise ValueError("PN powers outside [-20, 40] dBm")

    @property
    def n_cr(self) -> int:
        return self.gains.n_cr

    def monitored_links(self) -> np.ndarray:
        """Per CR, the primary link received with the largest power."""
        received = self.gains.g_sp * dbm_to_mw(self.pn_powers_dbm)[:, None]
        return np.argmax(received, axis=0)

    @cached_property
    def outcomes(self) -> "Outcomes":
        """The outcome tensor, built on first use and then shared by the
        oracle, the learners and the phase-change probability."""
        return outcome_tensor(self)

    def to_json(self) -> str:
        return json.dumps({
            "placement": json.loads(self.placement.to_json()),
            "gains": json.loads(self.gains.to_json()),
            "pn_powers_dbm": np.asarray(self.pn_powers_dbm).tolist(),
            "action_powers_dbm": list(self.actions.powers_dbm),
            "amc": {
                "snr_thresholds_db": self.amc.snr_thresholds_db.tolist(),
                "spectral_efficiencies": self.amc.spectral_efficiencies.tolist(),
                "bandwidth_hz": self.amc.bandwidth_hz,
                "snr_gap": self.amc.snr_gap,
                "xi": self.amc.xi,
            },
            "epsilon": self.config.epsilon,
            "reward_mode": self.config.reward_mode,
            "n_cr": self.config.n_cr,
            "tpc_reference": self.config.tpc_reference,
            "pn_power_converged": self.pn_power_converged,
        }, indent=2)

    @staticmethod
    def from_json(text: str) -> "Scenario":
        doc = json.loads(text)
        amc = doc["amc"]
        return Scenario(
            placement=NodePlacement.from_json(json.dumps(doc["placement"])),
            gains=ChannelGains.from_json(json.dumps(doc["gains"])),
            pn_powers_dbm=np.asarray(doc["pn_powers_dbm"], dtype=float),
            actions=ActionSpace(tuple(doc["action_powers_dbm"])),
            amc=AmcTable(np.asarray(amc["snr_thresholds_db"], dtype=float),
                         np.asarray(amc["spectral_efficiencies"], dtype=float),
                         bandwidth_hz=amc["bandwidth_hz"],
                         snr_gap=amc["snr_gap"], xi=amc["xi"]),
            config=EnvConfig(epsilon=doc["epsilon"],
                             reward_mode=doc["reward_mode"],
                             n_cr=doc["n_cr"],
                             tpc_reference=doc["tpc_reference"]),
            pn_power_converged=doc["pn_power_converged"],
        )


def pn_power_control(gains: ChannelGains,
                     target_sinr_db: float = DEFAULT_PN_TARGET_SINR_DB
                     ) -> tuple[np.ndarray, bool]:
    """Fixed-point primary power allocation toward a common SINR target.

    With the CRs silent, a primary link's SINR is its own received power
    over the other APs' plus noise. From 0 dBm, each AP scales its power
    by target/SINR, clipped to [-20, 40] dBm, until no AP moves by
    PN_POWER_TOL_DB. Returns the powers in dBm and whether that happened
    within PN_POWER_MAX_ITERS; an infeasible target rails the powers.

    The loop runs on ufuncs alone (the dBm/mW conversions inline, the
    clip ufunc, maximum.reduce): on a few primary links numpy's Python
    wrappers (np.clip, np.max, np.asarray) cost more than the arithmetic.
    """
    target = 10.0 ** (target_sinr_db / 10.0)
    own_gain = np.diag(gains.g_pp)
    g_pp_t, noise = gains.g_pp.T, gains.noise_power_mw
    p_dbm = np.zeros(gains.n_pn)
    for _ in range(PN_POWER_MAX_ITERS):
        p_mw = 10.0 ** (p_dbm / 10.0)
        signal = own_gain * p_mw
        sinr = signal / (g_pp_t @ p_mw - signal + noise)
        new_dbm = _clip(10.0 * np.log10(p_mw * (target / sinr)),
                        PN_POWER_MIN_DBM, PN_POWER_MAX_DBM)
        if np.maximum.reduce(np.abs(new_dbm - p_dbm)) < PN_POWER_TOL_DB:
            return new_dbm, True
        p_dbm = new_dbm
    return p_dbm, False


def build_scenario(grid: GridSpec,
                   config: EnvConfig,
                   amc: AmcTable,
                   rng: np.random.Generator,
                   pn_target_sinr_db: float = DEFAULT_PN_TARGET_SINR_DB) -> Scenario:
    """Sample a placement, freeze gains, and run primary power control,
    with the default action space."""
    placement = sample_placement(grid, config.n_cr, rng)
    gains = channel.build_gains(placement, rng)
    pn_dbm, converged = pn_power_control(gains, pn_target_sinr_db)
    return Scenario(placement=placement, gains=gains, pn_powers_dbm=pn_dbm,
                    actions=ActionSpace.default(), amc=amc, config=config,
                    pn_power_converged=converged)


@dataclass(frozen=True)
class Outcomes:
    """A block of joint actions of one scenario, evaluated at once.

    Row k of every array belongs to the block's k-th joint action. In the
    full tensor of outcome_tensor() the rows are all |A|^N joint actions
    in lexicographic order, so row k is the joint action with flat index
    k. joint_states[k] is the joint state after it, agent i's state
    (STATE_S0 or STATE_S1) in bit N-1-i, so 0 means every agent is in S0.
    The reward arrays are row-major, a row's N entries side by side, as a
    walk gathers them. A reward in S0 is the scalar pow 10.0 ** v of the
    link's AMC level (local) or of the row's float throughput sum
    (global), bit for bit whether the row is evaluated alone or in a
    block.
    """

    joint_states: np.ndarray         # (K,) joint state, agent i in bit N-1-i
    local_rewards: np.ndarray        # (K, N) reward of each agent, local mode
    global_rewards: np.ndarray       # (K, N) reward of each agent, global mode

    def rewards(self, mode: str) -> np.ndarray:
        """(K, N) per-agent rewards in the given reward mode."""
        if mode == "local":
            return self.local_rewards
        if mode == "global":
            return self.global_rewards
        raise ValueError(f"unknown reward mode {mode!r}")


def _representatives(keys: np.ndarray, n_keys: int) -> np.ndarray:
    """Indices of one element per distinct value of keys, ints in
    [0, n_keys): whichever element lands in that key's slot."""
    elements = np.arange(keys.size)
    slot = np.empty(n_keys, dtype=np.intp)
    slot[keys] = elements
    return np.flatnonzero(slot[keys] == elements)


def _rewards(states: np.ndarray, modes: np.ndarray, tputs: np.ndarray):
    """Per-agent (local, global) rewards of each row of a (K, N) block.

    modes are the amc_mode indices of the SN links and tputs their
    throughputs in Mbps. A reward is zero whenever the agent's own state
    is S1; otherwise 10.0 ** T with T its own throughput (local) or the
    row's float sum over all SN links (global). Rewards are defined by the
    scalar pow, which numpy's vectorised pow can miss in the last bit, so
    it is taken once per AMC mode (local) and once per distinct row of
    modes, keyed by the modes read as digits (global). Rows with equal
    modes have equal throughputs and sums, so one row stands for all.
    """
    k, n = modes.shape
    base = int(modes.max()) + 1
    if base ** n <= REWARD_KEY_SLOTS_MAX:
        row_keys, n_keys = np.ravel_multi_index(modes.T, (base,) * n), base ** n
    else:
        row_keys, n_keys = np.arange(k), k
    rows = _representatives(row_keys, n_keys)
    row_pow = np.empty(n_keys)
    row_pow[row_keys[rows]] = [10.0 ** v for v in tputs[rows].sum(axis=-1)]
    rep_modes, rep_tputs = modes[rows].ravel(), tputs[rows].ravel()
    links = _representatives(rep_modes, base)
    mode_pow = np.empty(base)
    mode_pow[rep_modes[links]] = [10.0 ** v for v in rep_tputs[links]]
    # row-major like the modes, so the rewards come out row-major too
    s0 = np.ascontiguousarray(states == STATE_S0)
    return (np.where(s0, mode_pow[modes], 0.0),
            np.where(s0, row_pow[row_keys][:, None], 0.0))


def _evaluate(scenario: Scenario, joint_actions) -> Outcomes:
    """Evaluate a (K, N) block of joint actions; pure in its arguments."""
    joint = np.asarray(joint_actions, dtype=np.intp)
    gains = scenario.gains
    pn_mw = dbm_to_mw(scenario.pn_powers_dbm)
    cr_mw = scenario.actions.powers_mw[joint]

    monitored = scenario.monitored_links()
    # total SN interference arriving at each CR's monitored PN receiver
    interference_mw = received_power_mw(cr_mw, gains.g_ps[:, monitored])
    if scenario.config.tpc_reference == "signal":
        reference_mw = np.diag(gains.g_pp) * pn_mw
    else:
        reference_mw = np.full(gains.n_pn, gains.noise_power_mw)
    with np.errstate(divide="ignore"):      # no interference: -inf dB, T% = 0
        i_db = 10.0 * np.log10(interference_mw / reference_mw[monitored])
    tpc = np.abs(relative_throughput_change(i_db, scenario.amc))
    states = np.where(tpc <= scenario.config.epsilon, STATE_S0, STATE_S1)
    modes = amc_mode(sn_sinrs(gains, pn_mw, cr_mw), scenario.amc)
    local, global_ = _rewards(states, modes,
                              scenario.amc.mode_throughputs_mbps[modes])
    joint_states = states[:, 0]
    for column in states.T[1:]:
        joint_states = joint_states << 1 | column
    return Outcomes(joint_states=joint_states, local_rewards=local,
                    global_rewards=global_)


def check_outcome_budget(n_actions: int, n_cr: int) -> None:
    """Raise ConfigurationError when the outcome tensor of n_cr CRs with
    n_actions actions each would exceed OUTCOME_MEMORY_BUDGET."""
    rows = n_actions ** n_cr
    # peak working set: about 16 float64 values per row and CR, whatever
    # the number of primary links, since no array is wider than (K, N)
    # (10.5 to 14.6 measured with tracemalloc at N = 2..5, M = 7 and 40);
    # the tensor kept afterwards is 2N + 1 values per row
    peak_bytes = rows * n_cr * 8 * 16
    if peak_bytes > OUTCOME_MEMORY_BUDGET:
        raise ConfigurationError(
            f"{rows} joint actions need about {peak_bytes} bytes, over the "
            f"outcome tensor budget of {OUTCOME_MEMORY_BUDGET} bytes")


def outcome_tensor(scenario: Scenario) -> Outcomes:
    """Every joint action of the scenario, in lexicographic order.

    Raises ConfigurationError when the tensor would exceed
    OUTCOME_MEMORY_BUDGET.
    """
    n_actions, n = len(scenario.actions), scenario.n_cr
    check_outcome_budget(n_actions, n)
    grid = np.indices((n_actions,) * n).reshape(n, n_actions ** n).T
    return _evaluate(scenario, grid)


def phase_change_probability(scenario: Scenario, policy, rho: float) -> float:
    """Probability that co-agent experimentation puts agent 0 in S1 at
    one step of an exploration phase.

    policy is one action index per agent and must keep every agent in S0
    when nobody experiments. The step's joint action follows the
    exploration-phase distribution of agent.phase_draws: agent 0 plays its
    policy action, and each other agent j plays a uniform draw from the
    whole action space with probability rho and policy[j] otherwise, so
    action a has probability rho/|A| + (1 - rho)[a == policy[j]]. The
    probability is the sum of agent 0's S1 indicator over the outcome
    tensor under that product distribution, taken one agent's axis at a
    time. Raises ValueError unless rho lies in [0, 1].
    """
    if not 0.0 <= rho <= 1.0:
        raise ValueError("rho must lie in [0, 1]")
    n, n_actions = scenario.n_cr, len(scenario.actions)
    policy = [int(a) for a in policy]
    if len(policy) != n:
        raise ValueError(f"expected {n} actions, got {len(policy)}")
    if not all(0 <= a < n_actions for a in policy):
        raise ValueError(f"policy {policy} leaves the action space")
    joint_states = scenario.outcomes.joint_states
    if joint_states[np.ravel_multi_index(policy, (n_actions,) * n)] != 0:
        raise ValueError("policy must keep every agent in S0 absent experimentation")

    # agent 0's state is the joint state's top bit
    p = ((joint_states >> (n - 1)) & 1).astype(float).reshape((n_actions,) * n)
    for j in reversed(range(n)):            # contract the last axis: agent j
        explore = 0.0 if j == 0 else rho    # agent 0 never experiments
        weights = np.full(n_actions, explore / n_actions)
        weights[policy[j]] += 1.0 - explore
        p = p @ weights
    return float(p)
