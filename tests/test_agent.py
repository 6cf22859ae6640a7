import copy

import numpy as np
import pytest

from conftest import TINY, make_scenario

from crpower.agent import (
    AgentHyperparams,
    DqlAgent,
    TableAgent,
    TUNED_DQL_HYPERPARAMS,
    candidate_sets,
    choose_action,
    make_agents,
    run_exploration_phase,
    run_learning,
    run_with_restarts,
)
from crpower.environment import EnvConfig


def small_hp(**over):
    base = dict(rho=0.1, lam=0.25, gamma=0.5, phase_length=100, n_phases=4,
                alpha0=0.1, zeta=2.0, c=2, minibatch=25, std_window=50,
                activation_cap=1.0)
    base.update(over)
    return AgentHyperparams(**base)


@pytest.fixture
def two_cr_scenario():
    # agent 0 can transmit up to 17.5 dBm; agent 1's top 3 levels break
    # the limit; cross coupling between the SN links is negligible
    iota0 = 2.0 ** 0.16 - 1.0
    return make_scenario(
        g_pp=[[1e-10]],
        g_ps=[[iota0 * 1e-13 / 100.0], [1e-16]],
        g_ss=[[1e-12, TINY], [TINY, 1e-12]],
        g_sp=[[TINY, TINY]],
        pn_dbm=[0.0],
        config=EnvConfig(n_cr=2, reward_mode="local"),
    )


# ------------------------------------------------------------ choose_action

def test_choose_action_rho_zero_always_policy():
    rng = np.random.default_rng(0)
    policy = np.array([5, 9])
    for _ in range(200):
        assert choose_action(0, policy, 0.0, rng, 14) == 5
        assert choose_action(1, policy, 0.0, rng, 14) == 9


def test_choose_action_rho_one_is_uniform():
    rng = np.random.default_rng(1)
    policy = np.array([5, 9])
    draws = np.array([choose_action(0, policy, 1.0, rng, 14)
                      for _ in range(100_000)])
    freqs = np.bincount(draws, minlength=14) / draws.size
    np.testing.assert_allclose(freqs, 1.0 / 14.0, atol=0.01)


def test_choose_action_policy_probability():
    # total probability of the policy action is 1 - rho + rho/|A|
    rho = 0.15
    rng = np.random.default_rng(2)
    policy = np.array([3, 0])
    n = 200_000
    hits = sum(choose_action(0, policy, rho, rng, 14) == 3 for _ in range(n))
    expected = 1.0 - rho + rho / 14.0
    assert hits / n == pytest.approx(expected, abs=0.005)


def test_choose_action_validates_rho():
    with pytest.raises(ValueError):
        choose_action(0, np.array([0, 0]), 1.5, np.random.default_rng(0), 14)


# ------------------------------------------------------------ candidates

def test_candidate_set_by_tolerance():
    q = np.array([[5.0, 4.9, 3.0, 1.0], [2.0, 2.0, 1.0, 0.0]])
    cands = candidate_sets(q, 0.2)
    assert cands[0] == (0, 1)
    assert cands[1] == (0, 1)


def test_candidate_set_zero_delta_argmax_tiebreak():
    q = np.zeros((2, 14))
    cands = candidate_sets(q, 0.0)
    assert cands == ((0,), (0,))
    q2 = np.array([[1.0, 2.0, 2.0], [0.0, 0.0, 1.0]])
    assert candidate_sets(q2, 0.0) == ((1,), (2,))


def test_candidate_set_always_contains_argmax():
    rng = np.random.default_rng(3)
    for _ in range(100):
        q = rng.normal(size=(2, 6))
        delta = float(rng.uniform(0, 2))
        cands = candidate_sets(q, delta)
        for s in range(2):
            assert int(np.argmax(q[s])) in cands[s]


# ------------------------------------------------------------ hyperparams

def test_hyperparams_validation():
    with pytest.raises(ValueError):
        small_hp(rho=1.0)
    with pytest.raises(ValueError):
        small_hp(lam=1.5)
    with pytest.raises(ValueError):
        small_hp(gamma=0.0)
    with pytest.raises(ValueError):
        small_hp(phase_length=10, minibatch=25)
    with pytest.raises(ValueError):
        small_hp(zeta=0.5)


def test_tuned_hyperparams_rows():
    row = TUNED_DQL_HYPERPARAMS[100]
    assert row == dict(alpha0=0.050, zeta=5.0, rho=0.10, lam=0.25, c=50)
    assert TUNED_DQL_HYPERPARAMS[75] == dict(alpha0=0.015, zeta=2.0, rho=0.05,
                                             lam=0.25, c=50)
    hp = AgentHyperparams(n_phases=100, **TUNED_DQL_HYPERPARAMS[100])
    assert hp.alpha0 == 0.05 and hp.c == 50


# ------------------------------------------------------------ phase loop

def test_dql_updates_per_phase(two_cr_scenario):
    # 6250 steps at mini-batch 25 -> exactly 250 gradient updates
    hp = small_hp(phase_length=6250)
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(0).spawn(2)]
    agents = make_agents("dql", hp, 2, 14, rngs)
    run_exploration_phase(agents, two_cr_scenario, rngs)
    assert all(ag.updates == 250 for ag in agents)


def test_table_one_update_per_step(two_cr_scenario):
    hp = small_hp(phase_length=120)
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(1).spawn(2)]
    agents = make_agents("table", hp, 2, 14, rngs)
    before = [ag.table.values.copy() for ag in agents]
    run_exploration_phase(agents, two_cr_scenario, rngs)
    assert all(ag.step_count == 120 for ag in agents)
    assert all(ag.windows.filled == 50 for ag in agents)   # window saturated
    assert any(not np.array_equal(b, ag.table.values)
               for b, ag in zip(before, agents))


def test_stationary_rewards_when_nobody_experiments(two_cr_scenario):
    hp = small_hp(rho=0.0, phase_length=60, minibatch=25)
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(2).spawn(2)]
    agents = make_agents("table", hp, 2, 14, rngs)
    agents[0].policy = np.array([12, 12])   # within limit alone
    agents[1].policy = np.array([0, 0])     # silent
    seen = []
    run_exploration_phase(agents, two_cr_scenario, rngs,
                          step_hook=lambda joint, k: seen.append((joint, k)))
    # the hook also gets the joint action's flat index: 12 * 14 + 0
    assert all(s == ((12, 0), 168) for s in seen)
    assert agents[0].phase_step_count == 0          # reset at boundary
    rec = agents[0].last_record
    assert rec.mean_reward > 0.0


def test_policy_frozen_within_phase(two_cr_scenario):
    hp = small_hp(phase_length=200)
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(3).spawn(2)]
    agents = make_agents("table", hp, 2, 14, rngs)
    snapshots = []
    run_exploration_phase(
        agents, two_cr_scenario, rngs,
        step_hook=lambda joint, k: snapshots.append(
            tuple(tuple(ag.policy) for ag in agents)))
    assert len(set(snapshots)) == 1


def test_alpha_decays_once_per_phase(two_cr_scenario):
    hp = small_hp(alpha0=0.05, zeta=5.0, n_phases=3, phase_length=50,
                  minibatch=25)
    trace = run_learning(two_cr_scenario, hp, np.random.SeedSequence(4),
                         "table", n_phases=3)
    # after k completed phases alpha = alpha0 / zeta^k
    assert trace.agents[0].alpha == pytest.approx(0.05 / 5.0 ** 3)


def test_fixed_alpha_mode(two_cr_scenario):
    hp = small_hp(alpha0=0.01, fixed_alpha=True, phase_length=50)
    trace = run_learning(two_cr_scenario, hp, np.random.SeedSequence(5),
                         "dql", n_phases=3)
    assert trace.agents[0].alpha == 0.01


def test_lambda_one_policy_never_changes(two_cr_scenario):
    hp = small_hp(lam=1.0, phase_length=100, n_phases=5)
    trace = run_learning(two_cr_scenario, hp, np.random.SeedSequence(6),
                         "table", n_phases=5)
    for recs in trace.phase_records:
        for rec in recs:
            assert not rec.changed


def test_empty_window_warns():
    hp = small_hp()
    rng = np.random.default_rng(7)
    agent = TableAgent(hp, 14, rng)
    with pytest.warns(UserWarning):
        rec = agent.update_policy(rng)
    assert rec.delta == 0.0
    assert all(len(c) == 1 for c in rec.candidates)


def test_full_determinism(two_cr_scenario):
    hp = small_hp(phase_length=150, n_phases=6)
    runs = []
    for _ in range(2):
        trace = run_learning(two_cr_scenario, hp, np.random.SeedSequence(42),
                             "dql", n_phases=6)
        runs.append([tuple(rec.policy_after for rec in recs)
                     for recs in trace.phase_records])
    assert runs[0] == runs[1]


def test_update_records_schema(two_cr_scenario):
    hp = small_hp(phase_length=100, minibatch=25)
    trace = run_learning(two_cr_scenario, hp, np.random.SeedSequence(8),
                         "dql", n_phases=2, record_updates=True)
    recs = trace.agents[0].update_records
    assert len(recs) == 8                       # 100/25 updates x 2 phases
    for rec in recs:
        assert rec.q_s0.shape == (14,)
        assert rec.threshold == pytest.approx(rec.q_s0.max() - rec.delta)
        assert rec.delta >= 0.0


# ------------------------------------------------------------ restarts

def test_single_restart_equals_plain_run(two_cr_scenario):
    hp = small_hp(phase_length=75, n_phases=12)
    plain = run_learning(two_cr_scenario, hp, np.random.SeedSequence(9), "table")
    restarted = run_with_restarts(two_cr_scenario, hp, np.random.SeedSequence(9),
                                  "table", n_restarts=1, probe_phases=10)
    assert plain.joint_policy() == restarted.joint_policy()
    a = [tuple(rec.policy_after for rec in recs) for recs in plain.phase_records]
    b = [tuple(rec.policy_after for rec in recs)
         for recs in restarted.phase_records]
    assert a == b
    np.testing.assert_array_equal(plain.agents[0].table.values,
                                  restarted.agents[0].table.values)


def test_restart_overhead_and_selection(two_cr_scenario):
    hp = small_hp(phase_length=75, n_phases=12)
    trace = run_with_restarts(two_cr_scenario, hp, np.random.SeedSequence(10),
                              "table", n_restarts=4, probe_phases=10)
    # the add-on trains 3 extra probes of 10 phases on top of the 12
    assert len(trace.restart_rewards) == 4
    assert len(trace.phase_records) == 12
    # selection is the argmax of the probes' final-phase mean rewards
    best = max(range(4), key=lambda j: trace.restart_rewards[j])
    assert trace.restart_rewards[best] == max(trace.restart_rewards)
    # the kept run's 10th-phase reward matches the selected probe's
    kept = np.mean([rec.mean_reward for rec in trace.phase_records[9]])
    assert kept == pytest.approx(trace.restart_rewards[best])


def test_restart_rejects_short_runs(two_cr_scenario):
    hp = small_hp(phase_length=75, n_phases=5)
    with pytest.raises(ValueError):
        run_with_restarts(two_cr_scenario, hp, np.random.SeedSequence(11),
                          "table", n_restarts=2, probe_phases=10)


def test_make_agents_rejects_unknown_kind():
    with pytest.raises(ValueError):
        make_agents("sarsa", small_hp(), 2, 14,
                    [np.random.default_rng(0)] * 2)
