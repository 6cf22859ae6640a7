import itertools

import numpy as np
import pytest

from conftest import TINY, make_scenario, restated_throughputs

from crpower.environment import (
    ActionSpace,
    EnvConfig,
    _evaluate,
    build_scenario,
)
from crpower.link_adaptation import AmcTable
from crpower.oracle import exhaustive_search, score_policy
from crpower.topology import ConfigurationError, GridSpec


def tiny_scenario():
    """1 AP, 2 CRs, 3 actions (off, 0 dBm, 10 dBm); numbers chosen so the
    whole 3x3 reward table is computable by hand.

    Both CRs hit the PN receiver with gain 1e-14, so the interference-to-
    noise ratio is 0.1 per mW. |T%| <= 0.05 (xi=4) allows iota <= 2^0.2-1
    ~ 0.1487: only (off,off), (off,1mW), (1mW,off) stay in S0.
    """
    return make_scenario(
        g_pp=[[1e-10]],
        g_ps=[[1e-14], [1e-14]],
        g_ss=[[1e-12, TINY], [TINY, 2e-12]],
        g_sp=[[TINY, TINY]],
        pn_dbm=[0.0],
        actions=ActionSpace((0.0, 10.0)),
        config=EnvConfig(n_cr=2, reward_mode="global"),
    )


def manual_reward_table():
    """Hand enumeration of the tiny scenario, lexicographic order.

    SN SINRs at 1 mW: link 0 -> 10 (10 dB, AMC 2.41 b/s/Hz), link 1 -> 20
    (13.01 dB, 3.32 b/s/Hz). S1 zeroes everything else.
    """
    t0 = 2.41 * 0.18     # Mbps on link 0 at 1 mW
    t1 = 3.32 * 0.18     # Mbps on link 1 at 1 mW
    return np.array([
        1.0,              # (off, off)
        10.0 ** t1,       # (off, 1 mW)
        0.0,              # (off, 10 mW): iota = 1.0 -> S1
        10.0 ** t0,       # (1 mW, off)
        0.0,              # (1 mW, 1 mW): iota = 0.2 -> S1
        0.0, 0.0, 0.0, 0.0,
    ])


def test_exhaustive_search_matches_manual_enumeration():
    sc = tiny_scenario()
    res = exhaustive_search(sc, "global")
    assert res.reward_table.shape == (9,)
    np.testing.assert_allclose(res.reward_table, manual_reward_table(),
                               rtol=1e-12)
    assert res.best_joint_action == (0, 1)
    assert res.best_reward == pytest.approx(10.0 ** (3.32 * 0.18), rel=1e-12)
    assert res.near_optimal == ((0, 1),)


def test_forced_silence_optimum():
    sc = make_scenario(
        g_pp=[[1e-10]],
        g_ps=[[1e-10], [1e-10]],    # any transmission wrecks the link
        g_ss=[[1e-12, TINY], [TINY, 1e-12]],
        g_sp=[[TINY, TINY]],
        pn_dbm=[0.0],
        config=EnvConfig(n_cr=2, reward_mode="global"),
    )
    res = exhaustive_search(sc, "global")
    assert res.best_joint_action == (0, 0)
    assert res.best_reward == 1.0


def test_196_evaluations_for_default_space():
    rng = np.random.default_rng(17)
    sc = build_scenario(GridSpec(), EnvConfig(reward_mode="global"),
                        AmcTable.default(), rng)
    res = exhaustive_search(sc)
    assert res.reward_table.shape == (14 ** 2,)
    assert res.reward_table[res.flat_index(res.best_joint_action)] == \
        res.best_reward


def test_flat_index_rejects_joint_actions_outside_the_table():
    sc = build_scenario(GridSpec(), EnvConfig(reward_mode="global",
                                              tpc_reference="signal"),
                        AmcTable.default(), np.random.default_rng(3))
    res = exhaustive_search(sc)
    # the corners of the table, numpy integers too
    assert res.flat_index((0, 0)) == 0
    assert res.flat_index(np.array([13, 13])) == 14 ** 2 - 1
    assert res.reward_of((0, 13)) == res.reward_table[13]
    # (0, 14) would read (1, 0)'s row and (-1, 5) row 14 * -1 + 5, wrapped
    # around to (13, 5); a single action or three would read some row too
    for bad in ((0, 14), (-1, 5), (14, 0), (3,), (1, 2, 3), ()):
        with pytest.raises(ValueError, match="joint action"):
            res.flat_index(bad)
        with pytest.raises(ValueError, match="joint action"):
            res.reward_of(bad)
        with pytest.raises(ValueError, match="joint action"):
            score_policy(bad, res)


def reference_objective(scenario, joint_action, mode):
    """Scalar objective of one joint action: zero unless a one-row
    evaluation leaves every agent in S0 (joint state 0), else from the
    links' restated throughputs."""
    if _evaluate(scenario, [joint_action]).joint_states[0] != 0:
        return 0.0
    tputs = restated_throughputs(scenario, [joint_action])[0]
    if mode == "global":
        return float(10.0 ** np.sum(tputs))
    return float(np.sum(10.0 ** tputs))


def test_agreement_with_reversed_enumeration():
    rng = np.random.default_rng(23)
    for trial in range(24):
        mode = ("global", "local")[trial % 2]
        reference = ("noise", "signal", "signal")[trial % 3]
        sc = build_scenario(GridSpec(), EnvConfig(reward_mode=mode,
                                                  tpc_reference=reference),
                            AmcTable.default(), rng)
        res = exhaustive_search(sc, mode)
        # independent enumeration with reversed loop nesting
        best_val, best_ja, values = -1.0, None, {}
        n = len(sc.actions)
        for a1 in range(n):
            for a0 in range(n):
                val = values[(a0, a1)] = reference_objective(sc, (a0, a1), mode)
                better = val > best_val
                tie_lower = (val == best_val and (a0, a1) < best_ja)
                if better or tie_lower:
                    best_val, best_ja = val, (a0, a1)
        assert res.best_joint_action == best_ja
        assert res.best_reward == pytest.approx(best_val, rel=4e-15)
        near = tuple(sorted(ja for ja, v in values.items()
                            if v >= best_val * (1.0 - res.tau)))
        assert res.near_optimal == near
        for ja, v in values.items():
            assert res.reward_of(ja) == pytest.approx(v, rel=4e-15)


def test_oracle_upper_bounds_every_policy():
    rng = np.random.default_rng(29)
    sc = build_scenario(GridSpec(), EnvConfig(reward_mode="global"),
                        AmcTable.default(), rng)
    res = exhaustive_search(sc)
    for ja in itertools.product(range(14), repeat=2):
        assert res.reward_of(ja) <= res.best_reward + 1e-15


def test_score_policy_cases():
    sc = tiny_scenario()
    res = exhaustive_search(sc, "global")
    assert score_policy((0, 1), res) == "optimal"
    assert score_policy((0, 0), res) == "suboptimal"
    assert score_policy((1, 0), res) == "suboptimal"   # gap 27% > tau


def test_symmetric_swap_scores_near_optimal():
    # identical low-SINR links: swapping the two CRs' actions keeps the
    # global reward unchanged, so the swap sits inside the tau gap
    sc = make_scenario(
        g_pp=[[1e-10]],
        g_ps=[[1e-14], [1e-14]],
        g_ss=[[1e-12, TINY], [TINY, 1e-12]],
        g_sp=[[TINY, TINY]],
        pn_dbm=[0.0],
        actions=ActionSpace((0.0, 10.0)),
        config=EnvConfig(n_cr=2, reward_mode="global"),
    )
    res = exhaustive_search(sc, "global")
    assert res.best_joint_action == (0, 1)
    assert (1, 0) in res.near_optimal
    assert score_policy((1, 0), res) == "near_optimal"
    assert score_policy((0, 1), res) == "optimal"


def test_local_mode_sums_individual_rewards():
    sc = tiny_scenario()
    res = exhaustive_search(sc, "local")
    t0, t1 = 2.41 * 0.18, 3.32 * 0.18
    # (off, 1 mW): 10^0 + 10^t1
    assert res.reward_of((0, 1)) == pytest.approx(1.0 + 10.0 ** t1, rel=1e-12)
    assert res.reward_of((1, 0)) == pytest.approx(10.0 ** t0 + 1.0, rel=1e-12)


def test_degenerate_kinds():
    def scenario(g_ps, g_ss, mode):
        return make_scenario(g_pp=[[1e-10]], g_ps=g_ps, g_ss=g_ss,
                             g_sp=[[TINY, TINY]], pn_dbm=[0.0],
                             actions=ActionSpace((0.0, 10.0)),
                             config=EnvConfig(n_cr=2, reward_mode=mode))

    # each CR alone pushes the PN link out of S0: only all-off scores;
    # silent CR links: every joint action scores all-off's reward
    loud = [[1e-8], [1e-8]], [[1e-12, TINY], [TINY, 2e-12]]
    silent = [[TINY], [TINY]], [[TINY, TINY], [TINY, TINY]]
    for mode, all_off in (("global", 1.0), ("local", 2.0)):
        res = exhaustive_search(scenario(*loud, mode), mode)
        assert res.best_joint_action == (0, 0) and res.best_reward == all_off
        assert res.reward_table.min() == 0.0
        assert res.degenerate == "all_off"
        res = exhaustive_search(scenario(*silent, mode), mode)
        assert res.reward_table.tolist() == [all_off] * 9
        assert res.degenerate == "tied"
        # the tiny scenario's best, (off, 1 mW), beats all-off
        res = exhaustive_search(tiny_scenario(), mode)
        assert res.best_reward > all_off == res.reward_table[0]
        assert res.degenerate is None


def test_enumeration_guard():
    sc = make_scenario(
        g_pp=[[1e-10]],
        g_ps=[[1e-14]] * 7,
        g_ss=(np.eye(7) * 1e-12 + (1 - np.eye(7)) * TINY).tolist(),
        g_sp=[[TINY] * 7],
        pn_dbm=[0.0],
        config=EnvConfig(n_cr=7, reward_mode="global"),
    )
    with pytest.raises(ConfigurationError):
        exhaustive_search(sc)     # 14^7 joint actions: over the memory budget


def test_oracle_json_roundtrip_fields():
    import json
    res = exhaustive_search(tiny_scenario(), "global")
    doc = json.loads(res.to_json())
    assert doc["best_joint_action"] == [0, 1]
    assert len(doc["reward_table"]) == 9
    assert doc["tau"] == 0.01
