import numpy as np
import pytest

from conftest import (
    TINY,
    decode_states,
    joint_action_grid,
    make_scenario,
    pack_states,
    restated_throughputs,
    restated_tpc,
)

from crpower.channel import dbm_to_mw
from crpower.environment import (
    ActionSpace,
    EnvConfig,
    STATE_S0,
    STATE_S1,
    Scenario,
    _evaluate,
    _rewards,
    build_scenario,
    outcome_tensor,
    phase_change_probability,
    pn_power_control,
)
from crpower.harness import wilson_interval
from crpower.link_adaptation import AmcTable
from crpower.oracle import exhaustive_search
from crpower.topology import ConfigurationError, GridSpec


def test_action_space_default():
    space = ActionSpace.default()
    assert len(space) == 14
    assert space.powers_mw[0] == 0.0
    assert space.powers_dbm[0] == -10.0
    assert space.powers_dbm[-1] == 20.0
    np.testing.assert_allclose(np.diff(space.powers_dbm), 2.5)
    assert space.powers_mw[13] == pytest.approx(100.0)
    assert space.powers_mw.shape == (14,)
    assert space.powers_mw is space.powers_mw          # built once
    # the scalar pow per level, which numpy's array pow may miss by a bit
    for a in range(1, 14):
        assert space.powers_mw[a] == 10.0 ** (space.powers_dbm[a - 1] / 10.0)


def test_action_space_default_pins_14_actions(monkeypatch):
    # the count is a contract that raises, not an assert that -O strips
    # (the shared instance is dropped so that the call builds one; a build
    # that raises is not cached)
    arange = np.arange
    monkeypatch.setattr(np, "arange", lambda *a, **k: arange(*a, **k)[:-1])
    ActionSpace.default.cache_clear()
    with pytest.raises(ConfigurationError, match="13 actions, expected 14"):
        ActionSpace.default()
    monkeypatch.undo()
    assert len(ActionSpace.default()) == 14


def test_action_space_default_is_shared():
    # every scenario and config reads one instance, built once, whose
    # linear powers are the scalar pows bit for bit and cannot be written
    space = ActionSpace.default()
    assert ActionSpace.default() is space
    scalar = [0.0] + [10.0 ** (p / 10.0) for p in space.powers_dbm]
    assert space.powers_mw.tobytes() == np.array(scalar).tobytes()
    with pytest.raises(ValueError):
        space.powers_mw[1] = 0.0
    rng = np.random.default_rng(0)
    assert build_scenario(GridSpec(), EnvConfig(), AmcTable.default(),
                          rng).actions is space


def test_action_space_rejects_unordered_levels():
    with pytest.raises(ConfigurationError):
        ActionSpace((0.0, -5.0))
    # a NaN level compares false both ways, so it must fail explicitly
    for levels in ((0.0, float("nan")), (float("nan"), 1.0),
                   (0.0, float("inf")), (float("-inf"), 0.0)):
        with pytest.raises(ConfigurationError, match="must be finite"):
            ActionSpace(levels)


def test_env_config_validation():
    with pytest.raises(ConfigurationError):
        EnvConfig(epsilon=0.0)
    with pytest.raises(ConfigurationError):
        EnvConfig(reward_mode="average")
    with pytest.raises(ConfigurationError):
        EnvConfig(tpc_reference="interference")


def test_all_off_gives_s0_everywhere():
    rng = np.random.default_rng(2)
    sc = build_scenario(GridSpec(), EnvConfig(), AmcTable.default(), rng)
    out = sc.outcomes                       # flat index 0 is all-off
    assert out.joint_states[0] == 0         # every agent in S0
    tpc = restated_tpc(sc, [(0, 0)])[0]
    assert np.all(tpc == 0.0)
    assert np.all(sc.config.epsilon - tpc == sc.config.epsilon)


def test_power_sweep_nondecreasing_tpc():
    rng = np.random.default_rng(3)
    sc = build_scenario(GridSpec(), EnvConfig(), AmcTable.default(), rng)
    joints = [(a, 0) for a in range(14)]
    tpc = restated_tpc(sc, joints)[:, 0].tolist()
    assert all(b >= a for a, b in zip(tpc, tpc[1:]))
    assert tpc[0] == 0.0
    # agent 0 leaves S0 exactly where its |T%| passes the limit
    states = decode_states(sc.outcomes.joint_states[::14], 2)[:, 0]
    assert states.tolist() == [int(t > sc.config.epsilon) for t in tpc]


def test_handbuilt_crossing(one_ap_one_cr):
    sc = one_ap_one_cr
    out = sc.outcomes
    tpc = restated_tpc(sc, [(12,), (13,)])[:, 0]
    assert out.joint_states[12] == STATE_S0
    assert tpc[0] == pytest.approx(0.047153, abs=1e-5)
    assert out.joint_states[13] == STATE_S1
    assert tpc[1] == pytest.approx(0.08, abs=1e-12)
    margin = sc.config.epsilon - tpc[1]
    assert margin == pytest.approx(-0.03, abs=1e-12)


def test_state_label_matches_margin_sign():
    rng = np.random.default_rng(4)
    sc = build_scenario(GridSpec(), EnvConfig(), AmcTable.default(), rng)
    states = decode_states(sc.outcomes.joint_states, 2)
    for a0 in range(0, 14, 3):
        for a1 in range(0, 14, 3):
            k = a0 * 14 + a1
            tpc = restated_tpc(sc, [(a0, a1)])[0]
            for i in range(2):
                s0 = tpc[i] <= sc.config.epsilon
                assert (states[k, i] == STATE_S0) == s0
                assert (sc.config.epsilon - tpc[i] >= 0.0) == s0


def test_row_evaluation_is_pure():
    rng = np.random.default_rng(5)
    sc = build_scenario(GridSpec(), EnvConfig(), AmcTable.default(), rng)
    a = _evaluate(sc, [(5, 7)])
    b = _evaluate(sc, [(5, 7)])
    np.testing.assert_array_equal(a.joint_states, b.joint_states)
    np.testing.assert_array_equal(a.local_rewards, b.local_rewards)
    np.testing.assert_array_equal(a.global_rewards, b.global_rewards)


def test_phase_change_probe_rejects_bad_input():
    rng = np.random.default_rng(6)
    sc = build_scenario(GridSpec(), EnvConfig(), AmcTable.default(), rng)
    with pytest.raises(ValueError):
        phase_change_probability(sc, (0,), 0.1)
    with pytest.raises(ValueError):
        phase_change_probability(sc, (14, 0), 0.1)
    # all-off keeps both agents in S0, so only rho is at fault
    assert type(phase_change_probability(sc, (0, 0), 0.1)) is float
    for rho in (-0.5, 1.5, float("nan")):
        with pytest.raises(ValueError, match="rho"):
            phase_change_probability(sc, (0, 0), rho)


def test_reward_zero_iff_s1(one_ap_one_cr):
    # the rewards of one row: agent 0 in S0, agent 1 in S1, on AMC
    # modes 3 and 2 with throughputs 1.0 and 0.5 Mbps
    local, global_ = _rewards(np.array([[STATE_S0, STATE_S1]]),
                              np.array([[3, 2]]), np.array([[1.0, 0.5]]))
    assert local[0, 1] == 0.0
    assert global_[0, 1] == 0.0
    assert local[0, 0] == pytest.approx(10.0)
    # global: 10^(1.0 + 0.5)
    assert global_[0, 0] == pytest.approx(31.6227766, rel=1e-8)
    with pytest.raises(ValueError):
        one_ap_one_cr.outcomes.rewards("other")


def test_reward_one_when_own_link_off(one_ap_one_cr):
    out = one_ap_one_cr.outcomes
    assert restated_throughputs(one_ap_one_cr, [(0,)])[0, 0] == 0.0
    assert out.local_rewards[0, 0] == 1.0


def test_local_reward_shape_in_own_action(one_ap_one_cr):
    """Nondecreasing up to the first S1-causing action, then zero."""
    out = one_ap_one_cr.outcomes
    rewards = out.rewards("local")[:, 0].tolist()
    first_s1 = next(a for a in range(14) if out.joint_states[a] == STATE_S1)
    ramp = rewards[1:first_s1]
    assert all(b >= a for a, b in zip(ramp, ramp[1:]))
    assert all(r == 0.0 for r in rewards[first_s1:])
    assert all(r >= 1.0 for r in rewards[1:first_s1])


def test_pn_power_control_single_link_hits_target():
    # closed form: G*P/noise = target -> P = -15 dBm for G=1e-10, 15 dB
    sc = make_scenario(g_pp=[[1e-10]], g_ps=[[TINY]], g_ss=[[1e-12]],
                       g_sp=[[TINY]], pn_dbm=[0.0],
                       config=EnvConfig(n_cr=1))
    pn_dbm, converged = pn_power_control(sc.gains, target_sinr_db=15.0)
    assert converged
    assert pn_dbm[0] == pytest.approx(-15.0, abs=0.1)
    # one primary link, CR silent: own received power over noise
    gamma_db = 10 * np.log10(1e-10 * dbm_to_mw(pn_dbm[0]) / 1e-13)
    assert gamma_db == pytest.approx(15.0, abs=0.1)


def test_pn_power_control_clips_low():
    sc = make_scenario(g_pp=[[1e-10]], g_ps=[[TINY]], g_ss=[[1e-12]],
                       g_sp=[[TINY]], pn_dbm=[0.0],
                       config=EnvConfig(n_cr=1))
    pn_dbm, _ = pn_power_control(sc.gains, target_sinr_db=-40.0)
    assert pn_dbm[0] == -20.0


def test_pn_power_control_seven_links_bounded():
    rng = np.random.default_rng(7)
    sc = build_scenario(GridSpec(), EnvConfig(), AmcTable.default(), rng)
    pn_dbm, converged = pn_power_control(sc.gains, target_sinr_db=10.0)
    assert np.all(pn_dbm >= -20.0 - 1e-9)
    assert np.all(pn_dbm <= 40.0 + 1e-9)
    assert isinstance(converged, bool)


def _reference_pn_power_control(gains, target_sinr_db):
    """The loop pn_power_control replaced, on numpy's wrappers: each
    primary link's SINR with every CR silent is its own received power
    over the other APs' plus noise."""
    target = 10.0 ** (target_sinr_db / 10.0)
    signal_gain = np.diag(gains.g_pp)
    p_dbm = np.zeros(gains.n_pn)
    for _ in range(100):
        p_mw = dbm_to_mw(p_dbm)
        signal = signal_gain * p_mw
        pn = signal / (gains.g_pp.T @ p_mw - signal + gains.noise_power_mw)
        new_dbm = np.clip(10.0 * np.log10(dbm_to_mw(p_dbm) * (target / pn)),
                          -20.0, 40.0)
        if np.max(np.abs(new_dbm - p_dbm)) < 0.01:
            return new_dbm, True
        p_dbm = new_dbm
    return p_dbm, False


def test_pn_power_control_matches_reference_loop():
    """Bit for bit, on build_scenario draws at N = 1..3 (three of the 30
    do not converge) and at a second target."""
    rng = np.random.default_rng(3)
    flags = []
    for n_cr in (1, 2, 3):
        for _ in range(10):
            sc = build_scenario(GridSpec(), EnvConfig(n_cr=n_cr),
                                AmcTable.default(), rng)
            for target in (10.0, 20.0):
                ref_dbm, ref_converged = _reference_pn_power_control(sc.gains, target)
                pn_dbm, converged = pn_power_control(sc.gains, target)
                np.testing.assert_array_equal(pn_dbm, ref_dbm)
                assert converged is ref_converged
            np.testing.assert_array_equal(sc.pn_powers_dbm,
                                          pn_power_control(sc.gains)[0])
            flags.append(sc.pn_power_converged)
    assert flags.count(False) == 3


def test_scenario_rejects_pn_powers_out_of_range():
    for pn_dbm in (-20.5, 40.5, float("nan"), float("inf")):
        with pytest.raises(ValueError, match=r"PN powers outside \[-20, 40\] dBm"):
            make_scenario(g_pp=[[1e-10]], g_ps=[[TINY]], g_ss=[[1e-12]],
                          g_sp=[[TINY]], pn_dbm=[pn_dbm],
                          config=EnvConfig(n_cr=1))
    for pn_dbm in (-20.0, 40.0):                # the bounds themselves are in
        make_scenario(g_pp=[[1e-10]], g_ps=[[TINY]], g_ss=[[1e-12]],
                      g_sp=[[TINY]], pn_dbm=[pn_dbm], config=EnvConfig(n_cr=1))


def test_outcome_tensor_matches_row_evaluation():
    rng = np.random.default_rng(8)
    for n_cr in (2, 3):
        rows = 14 ** n_cr
        for mode in ("local", "global"):
            for reference in ("noise", "signal"):
                sc = build_scenario(GridSpec(),
                                    EnvConfig(n_cr=n_cr, reward_mode=mode,
                                              tpc_reference=reference),
                                    AmcTable.default(), rng)
                out = sc.outcomes
                assert out is sc.outcomes              # built once per scenario
                assert out.joint_states.shape == (rows,)
                assert out.global_rewards.shape == (rows, n_cr)
                # lexicographic order: row k is flat index k, evaluated
                # alone (every fifth at N = 3)
                joints = joint_action_grid(14, n_cr)
                picked = range(0, rows, 1 if n_cr == 2 else 5)
                alone = [_evaluate(sc, joints[k:k + 1]) for k in picked]
                for name in ("joint_states", "local_rewards", "global_rewards"):
                    np.testing.assert_array_equal(
                        getattr(out, name)[picked],
                        np.concatenate([getattr(row, name) for row in alone]))
    with pytest.raises(ValueError):
        out.rewards("other")


def test_joint_states_pack_each_rows_states():
    """A block of joint actions in any row order stores, per row, its
    agents' states as bits (agent i in bit N-1-i; S1 where the restated
    |T%| passes the limit), and the full tensor's joint state and rewards
    at that row's flat index. Both store their rewards row-major."""
    rng = np.random.default_rng(14)
    bits = []
    for n_cr, reference in ((1, "noise"), (2, "signal"), (3, "noise"),
                            (4, "noise"), (4, "signal")):
        sc = build_scenario(GridSpec(), EnvConfig(n_cr=n_cr,
                                                  tpc_reference=reference),
                            AmcTable.default(), rng)
        out = sc.outcomes
        rows = rng.permutation(14 ** n_cr)[:500]
        joints = joint_action_grid(14, n_cr)[rows]
        block = _evaluate(sc, joints)
        states = np.where(restated_tpc(sc, joints) <= sc.config.epsilon,
                          STATE_S0, STATE_S1)
        bits.append(states.ravel())
        np.testing.assert_array_equal(block.joint_states, pack_states(states))
        np.testing.assert_array_equal(block.joint_states, out.joint_states[rows])
        for name in ("local_rewards", "global_rewards"):
            np.testing.assert_array_equal(getattr(block, name),
                                          getattr(out, name)[rows])
            for outcomes in (out, block):
                assert getattr(outcomes, name).flags.c_contiguous
    bits = np.concatenate(bits)
    assert 0 < bits.sum() < bits.size          # both states occur


def test_rewards_use_scalar_pow():
    # the learners' rewards are 10.0 ** np.float64 exactly, not the
    # vectorised pow, which may differ in the last bit
    rng = np.random.default_rng(10)
    for n_cr in (2, 3):
        for mode in ("local", "global"):
            for reference in ("noise", "signal"):
                sc = build_scenario(GridSpec(),
                                    EnvConfig(n_cr=n_cr, reward_mode=mode,
                                              tpc_reference=reference),
                                    AmcTable.default(), rng)
                out = sc.outcomes
                picked = range(0, 14 ** n_cr, 5)
                joints = joint_action_grid(14, n_cr)[picked]
                states = decode_states(out.joint_states[picked], n_cr)
                for row, k in enumerate(picked):
                    tputs = restated_throughputs(sc, joints[row:row + 1])[0]
                    for i in range(n_cr):
                        s0 = states[row, i] == STATE_S0
                        assert out.local_rewards[k, i] == (
                            10.0 ** tputs[i] if s0 else 0.0)
                        assert out.global_rewards[k, i] == (
                            10.0 ** np.sum(tputs) if s0 else 0.0)


def test_equal_sums_of_different_modes_get_equal_global_rewards():
    # modes (1, 4), (2, 3) and (4, 1) at 0.25, 0.5, 0.75 and 1.0 Mbps all
    # sum to 1.25 exactly: three mode keys, one reward
    levels = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    modes = np.array([[1, 4], [2, 3], [4, 1], [2, 2]])
    states = np.array([[STATE_S0, STATE_S0]] * 3 + [[STATE_S0, STATE_S1]])
    local, global_ = _rewards(states, modes, levels[modes])
    np.testing.assert_array_equal(global_[:3], 10.0 ** np.float64(1.25))
    assert global_[3, 0] == 10.0 ** np.float64(1.0) and global_[3, 1] == 0.0
    np.testing.assert_array_equal(
        local[:3], [[10.0 ** levels[a] for a in row] for row in modes[:3]])
    assert local[3, 0] == 10.0 ** levels[2] and local[3, 1] == 0.0


def test_rewards_do_not_depend_on_the_mode_key_table(monkeypatch):
    # past REWARD_KEY_SLOTS_MAX (large AMC tables) every row's global
    # reward is taken on its own; the values are the same
    from crpower import environment
    rng = np.random.default_rng(13)
    for n_cr in (2, 3):
        sc = build_scenario(GridSpec(), EnvConfig(n_cr=n_cr,
                                                  tpc_reference="signal"),
                            AmcTable.default(), rng)
        keyed = outcome_tensor(sc)
        monkeypatch.setattr(environment, "REWARD_KEY_SLOTS_MAX", 1)
        per_row = outcome_tensor(sc)
        monkeypatch.undo()
        for name in ("local_rewards", "global_rewards"):
            np.testing.assert_array_equal(getattr(per_row, name),
                                          getattr(keyed, name))


def test_outcome_tensor_memory_budget(monkeypatch):
    from crpower import environment
    rng = np.random.default_rng(12)
    sc = build_scenario(GridSpec(), EnvConfig(), AmcTable.default(), rng)
    monkeypatch.setattr(environment, "OUTCOME_MEMORY_BUDGET", 1000)
    with pytest.raises(ConfigurationError):
        outcome_tensor(sc)


def test_outcome_budget_does_not_grow_with_the_primary_network():
    """The tensor holds no per-primary-link array, so five CRs load beside
    40 active APs as beside the default 7; a sixth CR is over budget."""
    from crpower.harness import ExperimentConfig
    wide = {"learner": "table", "env": {"n_cr": 5},
            "grid": {"rows": 7, "cols": 7, "active_ap_count": 40}}
    assert ExperimentConfig.from_dict(wide).grid.active_ap_count == 40
    ExperimentConfig.from_dict({"learner": "table", "env": {"n_cr": 5}})
    with pytest.raises(ConfigurationError, match="outcome tensor budget"):
        ExperimentConfig.from_dict({"learner": "table", "env": {"n_cr": 6}})


def sampled_phase_change(scenario, policy, rho, steps, rng) -> int:
    """Reference for phase_change_probability: how many of ``steps``
    sampled steps put agent 0 in S1. Each step, agent 0 plays its policy
    action and every other agent draws uniformly from the action space
    with probability rho, else plays its policy action."""
    n_actions = len(scenario.actions)
    states = decode_states(scenario.outcomes.joint_states,
                           scenario.n_cr)[:, 0].tolist()
    flips = 0
    for _ in range(steps):
        k = 0
        for j, a in enumerate(policy):
            if j and rng.random() < rho:
                a = int(rng.integers(n_actions))
            k = k * n_actions + a
        flips += states[k] == STATE_S1
    return flips


def test_phase_change_probe_rho_zero(bernoulli_probe_scenario):
    assert phase_change_probability(bernoulli_probe_scenario, (13, 0), 0.0) == 0.0


def test_phase_change_probe_rejects_s1_policy(one_ap_one_cr):
    with pytest.raises(ValueError, match="S0"):
        phase_change_probability(one_ap_one_cr, (13,), 0.1)


def test_phase_change_probability_value(bernoulli_probe_scenario):
    # agent 1 breaks the link at its top 3 of 14 actions: p = rho * 3/14
    for rho in (0.1, 0.2, 1.0):
        p = phase_change_probability(bernoulli_probe_scenario, (13, 0), rho)
        assert p == pytest.approx(rho * 3.0 / 14.0, rel=1e-12)


def test_phase_change_monotone_in_rho(bernoulli_probe_scenario):
    probes = [phase_change_probability(bernoulli_probe_scenario, (13, 0), rho)
              for rho in (0.0, 0.1, 0.4, 0.7, 1.0)]
    assert all(a <= b for a, b in zip(probes, probes[1:]))
    assert probes[0] < probes[-1]


@pytest.mark.parametrize("n_cr", [2, 3])
def test_phase_change_probability_matches_sampling(n_cr):
    """The exact value lies in the z = 3.29 Wilson interval of 4,000
    sampled steps, on the first four scenarios where agent 0 can be
    knocked out of S0 at the oracle's best joint action."""
    rng = np.random.default_rng(20)
    config = EnvConfig(n_cr=n_cr, reward_mode="global", tpc_reference="signal")
    checked = 0
    while checked < 4:
        sc = build_scenario(GridSpec(), config, AmcTable.default(), rng)
        policy = exhaustive_search(sc, "global").best_joint_action
        if phase_change_probability(sc, policy, 0.4) == 0.0:
            continue
        for seed, rho in enumerate((0.1, 0.4)):
            p = phase_change_probability(sc, policy, rho)
            flips = sampled_phase_change(sc, policy, rho, 4000,
                                         np.random.default_rng([checked, seed]))
            lo, hi = wilson_interval(flips, 4000, z=3.29)
            assert lo <= p <= hi, (policy, rho, p, flips)
        checked += 1


def test_scenario_json_contains_gains_and_powers():
    import json
    rng = np.random.default_rng(9)
    sc = build_scenario(GridSpec(), EnvConfig(), AmcTable.default(), rng)
    doc = json.loads(sc.to_json())
    assert len(doc["pn_powers_dbm"]) == 7
    assert len(doc["action_powers_dbm"]) == 13
    assert doc["epsilon"] == 0.05
    assert np.asarray(doc["gains"]["g_pp"]).shape == (7, 7)


def test_scenario_from_json_rejects_bad_values():
    import json
    rng = np.random.default_rng(13)
    text = build_scenario(GridSpec(), EnvConfig(), AmcTable.default(), rng).to_json()
    Scenario.from_json(text)
    nan = float("nan")
    cases = [
        (("pn_powers_dbm", 0), 40.5, ValueError, "PN powers outside"),
        (("pn_powers_dbm", 3), -21.0, ValueError, "PN powers outside"),
        (("pn_powers_dbm", 1), nan, ValueError, "PN powers outside"),
        (("gains", "g_pp", 0, 0), nan, ValueError, "g_pp entries"),
        (("gains", "g_ss", 1, 0), nan, ValueError, "g_ss entries"),
        (("gains", "noise_power_mw"), nan, ValueError, "noise power"),
        (("action_powers_dbm", 4), nan, ConfigurationError, "must be finite"),
        (("action_powers_dbm", 12), float("inf"), ConfigurationError,
         "must be finite"),
        (("amc", "snr_thresholds_db", 2), nan, ValueError, "must be finite"),
        (("amc", "spectral_efficiencies", 0), nan, ValueError, "must be finite"),
    ]
    for path, value, error, message in cases:
        doc = json.loads(text)
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        with pytest.raises(error, match=message):
            Scenario.from_json(json.dumps(doc))


def test_scenario_json_roundtrip():
    rng = np.random.default_rng(11)
    for n_cr, reference in ((2, "signal"), (3, "noise")):
        sc = build_scenario(GridSpec(),
                            EnvConfig(n_cr=n_cr, reward_mode="global",
                                      tpc_reference=reference),
                            AmcTable.default(xi=3.0, snr_gap=1.5), rng)
        back = Scenario.from_json(sc.to_json())
        assert back.config == sc.config
        assert back.actions == sc.actions
        assert back.pn_power_converged == sc.pn_power_converged
        np.testing.assert_array_equal(back.amc.spectral_efficiencies,
                                      sc.amc.spectral_efficiencies)
        assert (back.amc.xi, back.amc.snr_gap) == (3.0, 1.5)
        for name in ("joint_states", "local_rewards", "global_rewards"):
            np.testing.assert_array_equal(getattr(back.outcomes, name),
                                          getattr(sc.outcomes, name))
        a, b = exhaustive_search(sc), exhaustive_search(back)
        assert a.best_joint_action == b.best_joint_action
        assert a.near_optimal == b.near_optimal
        np.testing.assert_array_equal(a.reward_table, b.reward_table)
