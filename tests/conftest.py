"""Shared fixtures: hand-built scenarios with chosen gains.

Building Scenario objects directly from gain matrices keeps the expected
numbers computable by hand; the helpers below fabricate the placement
geometry only to satisfy the dataclass shape. The outcome tensor stores a
joint state per joint action; decode_states gives back the per-agent
states, and restated_tpc and restated_throughputs recompute the |T%| and
throughput values behind the states and rewards from the scenario.
mlp_params, select_networks and scale_networks build new DQL parameter
sets from per-layer arrays.
"""

import numpy as np
import pytest

from crpower.channel import ChannelGains, dbm_to_mw, received_power_mw, sn_sinrs
from crpower.environment import ActionSpace, EnvConfig, Scenario
from crpower.link_adaptation import AmcTable, amc_mode, relative_throughput_change
from crpower.qfunc import MlpParams
from crpower.topology import GridSpec, NodePlacement

TINY = 1e-30


def make_scenario(g_pp, g_ps, g_ss, g_sp, pn_dbm, config=None, actions=None,
                  amc=None, noise_mw=1e-13):
    """Scenario straight from gain matrices (placement is a stub)."""
    g_pp = np.asarray(g_pp, dtype=float)
    g_ss = np.asarray(g_ss, dtype=float)
    m, n = g_pp.shape[0], g_ss.shape[0]
    grid = GridSpec(rows=max(m, 1), cols=1, spacing_m=200.0, active_ap_count=m)
    placement = NodePlacement(
        ap_positions=np.zeros((max(m, 1), 2)),
        active_ap_indices=tuple(range(m)),
        pn_rx_positions=np.zeros((m, 2)),
        cr_tx_positions=np.zeros((n, 2)),
        cr_rx_positions=np.zeros((n, 2)),
        grid=grid,
    )
    gains = ChannelGains(
        g_pp=g_pp,
        g_ps=np.asarray(g_ps, dtype=float),
        g_ss=g_ss,
        g_sp=np.asarray(g_sp, dtype=float),
        noise_power_mw=noise_mw,
    )
    return Scenario(
        placement=placement,
        gains=gains,
        pn_powers_dbm=np.asarray(pn_dbm, dtype=float),
        actions=actions or ActionSpace.default(),
        amc=amc or AmcTable.default(xi=4.0, snr_gap=1.0),
        config=config or EnvConfig(n_cr=n),
    )


@pytest.fixture
def one_ap_one_cr():
    """Single PN link, single CR whose |T%| crosses the 5% limit between
    17.5 dBm (|T%| = 0.0472) and 20 dBm (|T%| = 0.08 exactly)."""
    # 20 dBm = 100 mW; |T%| = 0.08 with xi=4 needs I/noise = 2^0.32 - 1
    iota = 2.0 ** 0.32 - 1.0
    g_cr_to_rx = iota * 1e-13 / 100.0
    return make_scenario(
        g_pp=[[1e-10]],
        g_ps=[[g_cr_to_rx]],
        g_ss=[[1e-12]],
        g_sp=[[TINY]],
        pn_dbm=[0.0],
        config=EnvConfig(n_cr=1),
    )


@pytest.fixture
def bernoulli_probe_scenario():
    """One PN link, two CRs.

    Agent 0 at 20 dBm sits at |T%| = 0.04; agent 1 (policy off) pushes the
    link past the 5% limit only at its top three power levels, and its
    cross gain onto agent 0's receiver is negligible, so agent 0's reward
    is exactly Bernoulli under co-agent experimentation.
    """
    iota0 = 2.0 ** 0.16 - 1.0                 # |T%| = 0.04 at the policy
    g0 = iota0 * 1e-13 / 100.0
    g1 = 1e-16   # agent 1 exceeds the remaining margin above ~15 dBm
    return make_scenario(
        g_pp=[[1e-10]],
        g_ps=[[g0], [g1]],
        g_ss=[[1e-12, TINY], [TINY, 1e-12]],
        g_sp=[[TINY, TINY]],
        pn_dbm=[0.0],
        config=EnvConfig(n_cr=2, reward_mode="local"),
    )


def decode_states(joint_states, n_cr):
    """(K, N) per-agent states of a (K,) joint-state column, agent i's
    state in bit N-1-i."""
    return (np.asarray(joint_states)[:, None] >> np.arange(n_cr - 1, -1, -1)) & 1


def pack_states(states):
    """The joint state of each row of a (K, N) block of per-agent states."""
    states = np.asarray(states)
    return (states << np.arange(states.shape[1] - 1, -1, -1)).sum(axis=1)


def restated_tpc(scenario, joint_actions):
    """(K, N) |T%| at each CR's monitored primary link: the CRs' summed
    interference there, in dB over the scenario's reference power,
    through relative_throughput_change."""
    gains = scenario.gains
    cr_mw = scenario.actions.powers_mw[np.asarray(joint_actions)]
    monitored = scenario.monitored_links()
    interference = received_power_mw(cr_mw, gains.g_ps[:, monitored])
    if scenario.config.tpc_reference == "signal":
        reference = np.diag(gains.g_pp) * dbm_to_mw(scenario.pn_powers_dbm)
    else:
        reference = np.full(gains.n_pn, gains.noise_power_mw)
    with np.errstate(divide="ignore"):
        i_db = 10.0 * np.log10(interference / reference[monitored])
    return np.abs(relative_throughput_change(i_db, scenario.amc))


def restated_throughputs(scenario, joint_actions):
    """(K, N) AMC throughput in Mbps of each CR link under each joint
    action."""
    cr_mw = scenario.actions.powers_mw[np.asarray(joint_actions)]
    sinrs = sn_sinrs(scenario.gains, dbm_to_mw(scenario.pn_powers_dbm), cr_mw)
    return scenario.amc.mode_throughputs_mbps[amc_mode(sinrs, scenario.amc)]


def joint_action_grid(n_actions, n_cr):
    """Every joint action, (n_actions^N, N), in lexicographic order."""
    return np.array(np.unravel_index(np.arange(n_actions ** n_cr),
                                     (n_actions,) * n_cr)).T


def mlp_params(weights, biases, cap):
    """A new parameter set copied from per-layer arrays: (fan_in, fan_out)
    weights and (fan_out,) biases of one network, or (N, fan_in, fan_out)
    weights and (N, fan_out), (N, 1, fan_out) or (N, 2, fan_out) biases of
    N stacked networks. Each bias goes to both of its state rows."""
    n = int(np.prod(np.shape(weights[0])[:-2]))
    sizes = (np.shape(weights[0])[-2],) + tuple(np.shape(w)[-1] for w in weights)
    params = MlpParams(n, sizes, cap)
    for view, w in zip(params.weights, weights):
        view[...] = np.reshape(w, view.shape)
    for view, b in zip(params.biases, biases):
        view[...] = np.reshape(b, (n, -1, view.shape[2]))
    return params


def select_networks(params, networks):
    """A new parameter set of the given networks of a stack, in order."""
    return mlp_params(tuple(w[networks] for w in params.weights),
                      tuple(b[networks] for b in params.biases), params.cap)


def scale_networks(params, scales):
    """A new parameter set whose network i is network i of params with
    every weight and bias times scales[i]."""
    scales = np.asarray(scales, dtype=float)[:, None, None]
    return mlp_params(tuple(w * scales for w in params.weights),
                      tuple(b * scales for b in params.biases), params.cap)
