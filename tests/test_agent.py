import copy
import functools
import json
import math
import operator
import warnings

import numpy as np
import pytest

from conftest import TINY, decode_states, make_scenario, pack_states

from crpower import agent as agent_module
from crpower.agent import (
    AgentHyperparams,
    DqlAgents,
    PhaseRecord,
    RunTrace,
    TableAgents,
    TUNED_DQL_HYPERPARAMS,
    UpdateRecord,
    _walk_phase,
    candidate_sets,
    make_agents,
    phase_draws,
    run_exploration_phase,
    run_learning,
)
from crpower.environment import EnvConfig
from crpower.harness import (
    ExperimentConfig,
    child_seed,
    learn_for_run,
    phase_trace_jsonl,
    scenario_for_run,
)
from crpower.qfunc import (
    MlpParams,
    init_mlp,
    q_matrix,
    table_update,
    train_minibatch,
)
from crpower.topology import ConfigurationError


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


# ------------------------------------------------------------ action choice

def _scalar_choose_actions(rng, length, rho, n_actions):
    """phase_draws restated one draw at a time: rng.random() once per
    step, then int(rng.integers(n_actions)) for each exploring step in
    step order; -1 marks the steps that follow the policy."""
    explores = [rng.random() >= 1.0 - rho for _ in range(length)]
    return [int(rng.integers(n_actions)) if e else -1 for e in explores]


@pytest.mark.parametrize("rho", [0.0, 0.1, 0.5, 0.95])
def test_phase_draws_match_scalar_choose_action(rho):
    for seed in range(30):
        for length, n_actions in ((1, 14), (7, 14), (300, 14), (40, 1), (60, 3)):
            block = np.random.default_rng([seed, length])
            scalar = np.random.default_rng([seed, length])
            draws = phase_draws(block, length, rho, n_actions)
            assert draws.dtype == np.int64
            assert draws.tolist() == _scalar_choose_actions(scalar, length, rho,
                                                            n_actions)
            assert block.bit_generator.state == scalar.bit_generator.state


def test_choose_action_rho_zero_always_policy():
    rng = np.random.default_rng(0)
    for _ in range(200):
        assert (phase_draws(rng, 2, 0.0, 14) == -1).all()


def test_choose_action_rho_one_is_uniform():
    draws = phase_draws(np.random.default_rng(1), 100_000, 1.0, 14)
    freqs = np.bincount(draws, minlength=14) / draws.size
    np.testing.assert_allclose(freqs, 1.0 / 14.0, atol=0.01)


def test_choose_action_policy_probability():
    # total probability of the policy action is 1 - rho + rho/|A|: the
    # step follows the policy (-1) or explores onto the policy action 3
    rho = 0.15
    n = 200_000
    draws = phase_draws(np.random.default_rng(2), n, rho, 14)
    hits = np.count_nonzero((draws == -1) | (draws == 3))
    expected = 1.0 - rho + rho / 14.0
    assert hits / n == pytest.approx(expected, abs=0.005)


def test_choose_action_validates_rho():
    with pytest.raises(ValueError):
        phase_draws(np.random.default_rng(0), 10, -0.1, 14)


def test_phase_draws_validates():
    with pytest.raises(ValueError):
        phase_draws(np.random.default_rng(0), 10, 1.5, 14)
    # any bit generator serves
    draws = phase_draws(np.random.Generator(np.random.MT19937(0)), 10, 0.5, 14)
    assert draws.shape == (10,)


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
    # a phase shorter than a mini-batch is the table learner's business
    # alone: the DQL learner rejects it at load, as any phase_length that
    # minibatch does not divide
    assert small_hp(phase_length=10, minibatch=25).phase_length == 10
    with pytest.raises(ConfigurationError, match="phase_length"):
        ExperimentConfig.from_dict({"learner": "dql", "agent": {
            "phase_length": 10, "minibatch": 25, "n_phases": 2}})
    with pytest.raises(ValueError, match="must be positive"):
        small_hp(phase_length=0)
    with pytest.raises(ValueError):
        small_hp(zeta=0.5)
    with pytest.raises(ValueError, match="activation cap"):
        small_hp(activation_cap=0.0)
    # NaN fails too, also when built directly rather than loaded from JSON
    for name in ("alpha0", "zeta", "activation_cap", "tolerance_multiplier"):
        with pytest.raises(ValueError):
            small_hp(**{name: float("nan")})


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
    agents = make_agents("dql", hp, 14, rngs)
    run_exploration_phase(agents, two_cr_scenario, rngs)
    # the agents' networks are the rows of one stacked block
    assert len(agents.params.flat) == 2
    assert agents.updates == 250


def test_dql_phase_is_whole_mini_batches(two_cr_scenario):
    # a DQL phase is phase_length // minibatch updates on its own columns,
    # so a phase that leaves a partial mini-batch is rejected; the table
    # learner takes it
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(0).spawn(2)]
    hp = small_hp(phase_length=110, minibatch=25)
    with pytest.raises(ValueError, match="phase_length must be a multiple"):
        make_agents("dql", hp, 14, rngs)
    agents = make_agents("table", hp, 14, rngs)
    run_exploration_phase(agents, two_cr_scenario, rngs)
    assert agents.windows.filled == 50


@pytest.mark.parametrize("n_cr", [2, 3])
def test_recorded_dql_run_pushes_as_an_unrecorded_one(n_cr):
    # Every DQL update pushes its snapshot, recorded or not: 80 updates per
    # phase against a 30-snapshot window, target refreshes every 3 updates
    config = ExperimentConfig(
        env=EnvConfig(n_cr=n_cr, reward_mode="global", tpc_reference="signal"))
    scenario = scenario_for_run(config, 0, 3)
    hp = small_hp(phase_length=2000, n_phases=3, c=3, std_window=30)
    plain, traced = (run_learning(scenario, hp, np.random.SeedSequence(13),
                                  "dql", record_updates=recorded)
                     for recorded in (False, True))
    assert plain.agents.windows.filled == traced.agents.windows.filled == 30
    np.testing.assert_array_equal(plain.agents.windows.snapshots(),
                                  traced.agents.windows.snapshots())
    assert ([[rec.to_jsonable() for rec in recs] for recs in plain.phase_records]
            == [[rec.to_jsonable() for rec in recs] for recs in traced.phase_records])
    assert [len(records) for records in traced.agents.update_records] == [240] * n_cr


def test_table_one_update_per_step(two_cr_scenario):
    hp = small_hp(phase_length=120)
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(1).spawn(2)]
    agents = make_agents("table", hp, 14, rngs)
    before = agents.q_values()
    run_exploration_phase(agents, two_cr_scenario, rngs)
    assert agents.windows.filled == 50                     # window saturated
    assert any(not np.array_equal(b, after)
               for b, after in zip(before, agents.q_values()))


def _run_columns(rng, n, length):
    """Four (n, length) phase columns in runs of 1 to 9 equal updates,
    each run head changing one of the four columns."""
    columns = [np.zeros((n, length), dtype=np.int64) for _ in range(3)]
    columns.append(np.zeros((n, length)))
    for i in range(n):
        values, t = [0, 0, 0, 0.0], 0
        while t < length:
            j = int(rng.integers(4))
            values[j] = (1 - values[j] if j < 2 else int(rng.integers(14)) if j == 2
                         else float(rng.choice([0.0, 1.5, 30.0])))
            count = int(rng.integers(1, 10))
            for column, value in zip(columns, values):
                column[i, t:t + count] = value
            t += count
    return columns


def test_table_runs_of_steps_match_single_steps():
    # A phase's bulk pass takes each run of equal consecutive updates as
    # one entry and its length. On columns whose run heads each change one
    # of the four columns, it must leave the tables that one update per
    # step leaves: a recorded phase updates step by step throughout.
    rng = np.random.default_rng(11)
    n, length = 3, 3000
    columns = _run_columns(rng, n, length)
    start = rng.uniform(0, 100, size=(n, 2, 14)).tolist()
    hp = small_hp(phase_length=length, std_window=30)
    rngs = [np.random.default_rng(0)] * n
    bulk, single = TableAgents(hp, 14, rngs), TableAgents(hp, 14, rngs, True)
    for agents in (bulk, single):
        agents.tables = [[row[:] for row in table] for table in start]
        agents.learn_phase(columns)
    assert bulk.tables == single.tables != start
    np.testing.assert_array_equal(bulk.windows.snapshots(),
                                  single.windows.snapshots())


def _per_step_learn_phase(agents, columns):
    """TableAgents.learn_phase restated one step at a time: each step
    updates every table with one table_update call, then pushes them all."""
    hp = agents.hp
    for t in range(columns[3].shape[1]):
        for i, table in enumerate(agents.tables):
            table_update(table, *(c[i, t:t + 1].tolist() for c in columns),
                         agents.alpha, hp.gamma)
        agents._push(np.array(agents.tables), agents.phase * hp.phase_length + t + 1,
                     columns[2][:, t].tolist())


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("record_updates", [False, True])
@pytest.mark.parametrize("phase_length", [17, 30, 95])
def test_table_phase_matches_per_step_updates(n, record_updates, phase_length):
    # Phases shorter than, as long as and longer than the 30-snapshot
    # window, so the ring carries snapshots over phase boundaries and
    # wraps within a phase. learn_phase applies the bulk in runs and
    # rebuilds the tail's snapshots from the values it wrote; the tables,
    # the ring and the update records must be those of one table_update
    # and one push per step.
    hp = small_hp(phase_length=phase_length, std_window=30, zeta=1.5)
    rng = np.random.default_rng(phase_length * 10 + n)
    start = rng.uniform(0, 100, size=(n, 2, 14)).tolist()
    fast, slow = (TableAgents(hp, 14, [np.random.default_rng(0)] * n, record_updates)
                  for _ in range(2))
    for agents in (fast, slow):
        agents.tables = [[row[:] for row in table] for table in start]
    for _ in range(4):
        columns = _run_columns(rng, n, phase_length)
        fast.learn_phase(columns)
        _per_step_learn_phase(slow, columns)
        assert fast.tables == slow.tables
        assert fast.windows.filled == slow.windows.filled
        assert (fast.windows.snapshots().tobytes()
                == slow.windows.snapshots().tobytes())
        means = [0.0] * n
        fast_records = fast.update_policy([np.random.default_rng(7)] * n, means)
        slow_records = slow.update_policy([np.random.default_rng(7)] * n, means)
        assert ([r.to_jsonable() for r in fast_records]
                == [r.to_jsonable() for r in slow_records])
    assert fast.tables != start
    if not record_updates:
        assert fast.update_records is slow.update_records is None
        return
    for records, slow_records in zip(fast.update_records, slow.update_records):
        assert len(records) == len(slow_records) == 4 * phase_length
        for rec, ref in zip(records, slow_records):
            assert (rec.step, rec.action, rec.delta) == (ref.step, ref.action,
                                                        ref.delta)
            assert rec.q_s0.tobytes() == ref.q_s0.tobytes()


def test_phase_mean_adds_rewards_left_to_right(two_cr_scenario, monkeypatch):
    # Rewards over many magnitudes, on which one addition per step, left
    # to right, differs from numpy's pairwise np.sum and from math.fsum
    # (and from sum() on Python 3.12, which compensates).
    rng = np.random.default_rng(0)
    rows = rng.uniform(0, 1, size=(2, 100)) * 10.0 ** rng.integers(-8, 8, (2, 100))
    expected = [functools.reduce(operator.add, row, 0.0) / 100
                for row in rows.tolist()]
    for row, mean in zip(rows, expected):
        assert mean != np.sum(row) / 100 and mean != math.fsum(row) / 100
    walk = agent_module._walk_phase
    monkeypatch.setattr(agent_module, "_walk_phase",
                        lambda *args: walk(*args)[:3] + (rows,))
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(2).spawn(2)]
    agents = make_agents("table", small_hp(phase_length=100), 14, rngs)
    records = run_exploration_phase(agents, two_cr_scenario, rngs)
    assert [record.mean_reward for record in records] == expected


def test_stationary_rewards_when_nobody_experiments(two_cr_scenario):
    hp = small_hp(rho=0.0, phase_length=60, minibatch=25)
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(2).spawn(2)]
    agents = make_agents("table", hp, 14, rngs, record_updates=True)
    agents.policies[0] = [12, 12]   # within limit alone
    agents.policies[1] = [0, 0]     # silent
    records = run_exploration_phase(agents, two_cr_scenario, rngs)
    assert [rec.action for rec in agents.update_records[0]] == [12] * 60
    assert [rec.action for rec in agents.update_records[1]] == [0] * 60
    # every step is the joint action (12, 0), flat index 12 * 14 + 0
    rewards = two_cr_scenario.outcomes.rewards(two_cr_scenario.config.reward_mode)
    rec = records[0]
    assert rec.mean_reward == pytest.approx(rewards[168, 0])
    assert rec.mean_reward > 0.0


def test_alpha_decays_once_per_phase(two_cr_scenario):
    hp = small_hp(alpha0=0.05, zeta=5.0, n_phases=3, phase_length=50,
                  minibatch=25)
    trace = run_learning(two_cr_scenario, hp, np.random.SeedSequence(4),
                         "table")
    # after k completed phases alpha = alpha0 / zeta^k
    assert trace.agents.alpha == pytest.approx(0.05 / 5.0 ** 3)


def test_zeta_one_keeps_alpha_fixed(two_cr_scenario):
    hp = small_hp(alpha0=0.01, zeta=1.0, phase_length=50, n_phases=6)
    for learner in ("dql", "table"):
        trace = run_learning(two_cr_scenario, hp, np.random.SeedSequence(5),
                             learner)
        assert len(trace.phase_records) == 6
        assert trace.agents.alpha == hp.alpha0


def test_lambda_one_policy_never_changes(two_cr_scenario):
    hp = small_hp(lam=1.0, phase_length=100, n_phases=5)
    trace = run_learning(two_cr_scenario, hp, np.random.SeedSequence(6),
                         "table")
    for recs in trace.phase_records:
        for rec in recs:
            assert not rec.changed


@pytest.mark.parametrize("learner, phase_length", [
    pytest.param("table", 25, id="one-batch-table"),
    pytest.param("dql", 25, id="one-batch-dql"),
    pytest.param("table", 26, id="uneven-table"),
])
def test_every_phase_pushes_a_window_snapshot(two_cr_scenario, learner,
                                              phase_length):
    # A phase covers at least one mini-batch, so every phase boundary reads
    # a window that this phase added to; the table learner also takes a
    # phase that is no multiple of the mini-batch.
    hp = small_hp(phase_length=phase_length, minibatch=25, n_phases=8)
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(7).spawn(2)]
    agents = make_agents(learner, hp, 14, rngs)
    for phase in range(hp.n_phases):
        run_exploration_phase(agents, two_cr_scenario, rngs)
        assert agents.windows.filled >= min(phase + 1, hp.std_window) >= 1


def test_non_finite_q_spread_is_a_divergence():
    # Agent 0's Q-values stay put. The std of agent 1's +-1e200 overflows
    # in its square; agent 2's +-inf has no mean. The error gives the
    # spread of the lowest-index non-finite agent.
    hp = small_hp()
    rngs = [np.random.default_rng(s) for s in range(3)]
    agents = TableAgents(hp, 14, rngs)
    policies = agents.policies.copy()
    for sign in (1.0, -1.0):
        q = np.zeros((3, 2, 14))
        q[1], q[2] = sign * 1e200, sign * np.inf
        agents.windows.push(q)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        np.testing.assert_array_equal(agents.windows.largest_std(),
                                      [0.0, np.inf, np.nan])
        with pytest.raises(FloatingPointError,
                           match=r"non-finite Q-value spread \(inf\).*diverged"):
            agents.update_policy(rngs, [0.0] * 3)
    assert agents.phase == 0 and agents.alpha == hp.alpha0
    np.testing.assert_array_equal(agents.policies, policies)


def test_full_determinism(two_cr_scenario):
    hp = small_hp(phase_length=150, n_phases=6)
    runs = []
    for _ in range(2):
        trace = run_learning(two_cr_scenario, hp, np.random.SeedSequence(42),
                             "dql")
        runs.append([tuple(rec.policy_after for rec in recs)
                     for recs in trace.phase_records])
    assert runs[0] == runs[1]


def test_update_records_schema(two_cr_scenario):
    hp = small_hp(phase_length=100, minibatch=25, n_phases=2)
    trace = run_learning(two_cr_scenario, hp, np.random.SeedSequence(8),
                         "dql", record_updates=True)
    recs = trace.agents.update_records[0]
    # an update is numbered by the step of its mini-batch's last entry
    assert [rec.step for rec in recs] == list(range(25, 201, 25))
    for rec in recs:
        assert rec.q_s0.shape == (14,)
        assert rec.threshold == pytest.approx(rec.q_s0.max() - rec.delta)
        assert rec.delta >= 0.0


def test_phase_records_count_live_units_and_state_blindness():
    # Network 0 is saturated: its first layer's pre-activations lie below
    # 0 for both states (weights -1, biases 0) and its second layer's
    # above cap (biases 30), so no hidden unit is live and both states
    # give one Q row. Network 1 has normal weights, live units and two
    # distinct rows. A table record carries neither field, in its JSON
    # trace line either.
    rng = np.random.default_rng(5)
    hp = small_hp(activation_cap=20.0)
    agents = DqlAgents(hp, 14, [np.random.default_rng(s) for s in (0, 1)])
    sizes = agents.params.layer_sizes
    saturated = ([-np.ones((2, 8)), rng.uniform(size=(8, 18)),
                  rng.uniform(size=(18, 14))],
                 [np.zeros(8), np.full(18, 30.0), rng.uniform(size=14)])
    normal = ([rng.normal(size=(a, b)) for a, b in zip(sizes, sizes[1:])],
              [rng.normal(size=b) for b in sizes[1:]])
    flat = np.stack([np.concatenate([a.ravel() for layer in zip(*network)
                                     for a in layer])
                     for network in (saturated, normal)])
    agents.params = MlpParams(flat, sizes, hp.activation_cap)
    agents.windows.push(agents.q_values())
    records = agents.update_policy([np.random.default_rng(2)] * 2, [0.0, 0.0])
    live = _live_units(MlpParams(flat[1:], sizes, hp.activation_cap))
    assert 0 < live < 26
    assert [(r.live_units, r.state_blind) for r in records] == [(0, True),
                                                                (live, False)]
    tables = TableAgents(hp, 14, [np.random.default_rng(s) for s in (0, 1)])
    tables.windows.push(tables.q_values())
    table_records = tables.update_policy([np.random.default_rng(2)] * 2, [0.0, 0.0])
    lines = [[json.loads(line) for line in phase_trace_jsonl(
        RunTrace(agents=a, phase_records=[recs])).splitlines()]
        for a, recs in ((agents, records), (tables, table_records))]
    assert [(doc["live_units"], doc["state_blind"]) for doc in lines[0]] == [
        (0, True), (live, False)]
    assert lines[1] == [{"agent": i, **r.to_jsonable()}
                        for i, r in enumerate(table_records)]
    assert not any("live_units" in doc or "state_blind" in doc for doc in lines[1])


# ------------------------------------------------------------ restarts

def test_single_restart_equals_plain_run(two_cr_scenario):
    hp = small_hp(phase_length=75, n_phases=12)
    plain = run_learning(two_cr_scenario, hp, np.random.SeedSequence(9), "table")
    restarted = run_learning(two_cr_scenario, hp, np.random.SeedSequence(9),
                             "table", n_restarts=1, probe_phases=10)
    assert plain.joint_policy() == restarted.joint_policy()
    a = [tuple(rec.policy_after for rec in recs) for recs in plain.phase_records]
    b = [tuple(rec.policy_after for rec in recs)
         for recs in restarted.phase_records]
    assert a == b
    np.testing.assert_array_equal(plain.agents.q_values(),
                                  restarted.agents.q_values())


def test_restart_overhead_and_selection(two_cr_scenario):
    hp = small_hp(phase_length=75, n_phases=12)
    trace = run_learning(two_cr_scenario, hp, np.random.SeedSequence(10),
                         "table", n_restarts=4, probe_phases=10)
    # the add-on trains 3 extra probes of 10 phases on top of the 12
    assert len(trace.phase_records) == 12


def test_restart_rejects_short_runs(two_cr_scenario):
    hp = small_hp(phase_length=75, n_phases=5)
    with pytest.raises(ValueError):
        run_learning(two_cr_scenario, hp, np.random.SeedSequence(11),
                     "table", n_restarts=2, probe_phases=10)
    for n_restarts, probe_phases in ((0, 2), (2, 0)):
        with pytest.raises(ValueError):
            run_learning(two_cr_scenario, hp, np.random.SeedSequence(11),
                         "table", n_restarts=n_restarts,
                         probe_phases=probe_phases)


def test_target_refreshed_every_c_updates(two_cr_scenario):
    # 4 updates per phase at c=3: the target maxima are those of the
    # initial network until update 3, then of the network after the last
    # multiple of c, whose Q matrix is that update's window snapshot
    hp = small_hp(phase_length=100, minibatch=25, c=3, n_phases=3)
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(13).spawn(2)]
    agents = make_agents("dql", hp, 14, rngs)
    initial = agents.q_values().max(axis=2)
    stale = []
    for _ in range(hp.n_phases):
        run_exploration_phase(agents, two_cr_scenario, rngs)
        updates = agents.updates
        refreshed = updates - updates % hp.c
        target_max = initial
        if refreshed:
            target_max = agents.windows.snapshots()[refreshed - 1].max(axis=2)
        np.testing.assert_array_equal(agents.target_max, target_max)
        if refreshed < updates:
            stale.append(not np.array_equal(agents.target_max,
                                            agents.q_values().max(axis=2)))
    assert any(stale)       # the target lagged the live network


def _diverging_phase(scenario, monkeypatch, scales):
    """A first phase of 200 steps (8 updates, c=50, alpha 1.0) of two agents
    whose networks are scaled by scales[i], which must raise. Returns the
    agents, their hyperparameters, the scaled (2, P) block, the initial
    target maxima, the phase's four (2, 200) columns and the error."""
    hp = small_hp(phase_length=200, minibatch=25, c=50, alpha0=1.0)
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(14).spawn(2)]
    agents = make_agents("dql", hp, 14, rngs)
    target_max = agents.target_max.copy()     # c=50: frozen for the phase
    params = agents.params
    flat = params.flat * np.array(scales)[:, None]
    agents.params = MlpParams(flat, params.layer_sizes, params.cap)
    columns = []
    learn_phase = DqlAgents.learn_phase

    def recording(self, phase_columns):
        columns.extend(phase_columns)
        learn_phase(self, phase_columns)

    monkeypatch.setattr(DqlAgents, "learn_phase", recording)
    with pytest.raises(FloatingPointError) as excinfo:
        run_exploration_phase(agents, scenario, rngs)
    return agents, hp, flat, target_max, columns, excinfo.value


def test_first_divergence_is_raised(two_cr_scenario, monkeypatch):
    # Agent 1's network, scaled by 1e300, diverges at the phase's first
    # update; agent 0's, scaled by 1e150, at its sixth. The phase raises
    # agent 1's error, the one agent 1's network gives on its own batches,
    # at the first update, so no update completes.
    agents, hp, flat, target_max, columns, error = _diverging_phase(
        two_cr_scenario, monkeypatch, [1e150, 1e300])
    sizes, cap = agents.params.layer_sizes, agents.params.cap

    def alone(i):
        """(update index, error text) of agent i's network on its own."""
        single = MlpParams(flat[i:i + 1], sizes, cap)
        for update in range(hp.phase_length // hp.minibatch):
            batch = (c[i, update * 25:(update + 1) * 25] for c in columns)
            try:
                single, _ = train_minibatch(single, *batch, target_max[i],
                                            hp.alpha0, hp.gamma)
            except FloatingPointError as exc:
                return update, str(exc)
        return None

    (update0, _), (update1, text1) = alone(0), alone(1)
    assert update1 == 0 < update0 == 5
    assert str(error) == text1
    assert agents.updates == 0
    np.testing.assert_array_equal(agents.params.flat, flat)
    assert agents.windows.filled == 0


def test_state_after_a_later_divergence(two_cr_scenario, monkeypatch):
    # Only agent 0's network is scaled, by 1e150, so the phase raises at
    # its sixth update. The run object is left as the fifth left it: its
    # update count, networks, target maxima and window ring are those of a
    # chain of five train_minibatch calls on the stacked block.
    agents, hp, flat, target_max, columns, error = _diverging_phase(
        two_cr_scenario, monkeypatch, [1e150, 1.0])
    chain = MlpParams(flat, agents.params.layer_sizes, agents.params.cap)
    snapshots = []
    for update in range(5):
        chain, _ = train_minibatch(
            chain, *(c[:, update * 25:(update + 1) * 25] for c in columns),
            target_max, hp.alpha0, hp.gamma)
        snapshots.append(q_matrix(chain))
    with pytest.raises(FloatingPointError) as sixth:
        train_minibatch(chain, *(c[:, 125:150] for c in columns),
                        target_max, hp.alpha0, hp.gamma)
    assert str(error) == str(sixth.value)
    assert agents.updates == 5
    np.testing.assert_array_equal(agents.params.flat, chain.flat)
    np.testing.assert_array_equal(agents.q_values(), q_matrix(chain))
    np.testing.assert_array_equal(agents.target_max, target_max)
    assert agents.windows.filled == 5
    np.testing.assert_array_equal(agents.windows.snapshots(), snapshots)


def _dql_columns(rng, n, length):
    """Four (n, length) phase columns drawn at random: states, next states,
    actions and rewards in [0, 12)."""
    return (rng.integers(2, size=(n, length)), rng.integers(2, size=(n, length)),
            rng.integers(14, size=(n, length)), rng.uniform(0, 12, size=(n, length)))


def _network_major_pass(params):
    """The two-state pass restated on the (N, P) block's strided views:
    (activations, masks), with the Q matrices last among the activations."""
    h = params.weights[0] + params.biases[0]
    activations, masks = [], []
    for w, b in zip(params.weights[1:], params.biases[1:]):
        masks.append((h > 0.0) & (h < params.cap))
        activations.append(np.clip(h, 0.0, params.cap))
        h = activations[-1] @ w + b
    return activations + [h], masks


def _network_major_step(params, cells, y, alpha):
    """One gradient step restated on the network-major (N, P) block: the
    per-layer gradient views cut from a fresh (N, P) gradient, the error
    sums D of each network's (N, b) flat cells by np.bincount, the backward
    pass through the transposed strided views, one subtraction, and a
    finiteness check of the new block. Returns the new parameters; raises
    the error of the lowest-index network whose gradient or new parameters
    are not finite."""
    activations, masks = _network_major_pass(params)
    q = activations[-1]
    b = y.shape[1]
    err = q.take(cells) - y
    delta = np.bincount(cells.ravel(), (err / b).ravel(), q.size).reshape(q.shape)
    grad = MlpParams(np.empty_like(params.flat), params.layer_sizes, params.cap)
    for k in range(len(params.weights) - 1, 0, -1):
        grad.weights[k][...] = activations[k - 1].transpose(0, 2, 1) @ delta
        grad.biases[k][...] = delta.sum(axis=1, keepdims=True)
        delta = (delta @ params.weights[k].transpose(0, 2, 1)) * masks[k - 1]
    grad.weights[0][...] = delta
    grad.biases[0][...] = delta.sum(axis=1, keepdims=True)
    new = params.flat - alpha * grad.flat
    if not np.isfinite(new).all():
        i = int(np.flatnonzero(~np.isfinite(new).all(axis=1))[0])
        what = ("gradient" if not np.isfinite(grad.flat[i]).all()
                else "parameter update")
        loss = 0.5 * (np.add.reduce(err[i] ** 2) / b)
        raise FloatingPointError(
            f"non-finite {what} (loss={float(loss)!r}, "
            f"max|err|={float(np.max(np.abs(err[i])))!r}); "
            "training has diverged")
    return MlpParams(new, params.layer_sizes, params.cap)


def _network_major_learn_phase(agents, columns):
    """DqlAgents.learn_phase restated one checked update at a time on the
    network-major block: each update steps every network on its own next
    mini-batch, refreshes the target maxima every c updates and pushes
    every network's Q matrix."""
    hp = agents.hp
    size = hp.minibatch
    n, n_actions = len(agents.params.flat), agents.params.n_actions
    offsets = np.arange(0, 2 * n, 2)[:, None]
    cells = (columns[0] + offsets) * n_actions + columns[2]
    next_rows = columns[1] + offsets
    with np.errstate(over="ignore", invalid="ignore"):
        for u in range(hp.phase_length // size):
            batch = slice(u * size, (u + 1) * size)
            y = columns[3][:, batch] + hp.gamma * agents.target_max.take(
                next_rows[:, batch])
            agents.params = _network_major_step(agents.params, cells[:, batch], y,
                                                agents.alpha)
            agents.updates += 1
            q = _network_major_pass(agents.params)[0][-1]
            if agents.updates % hp.c == 0:
                agents.target_max = q.max(axis=2)
            agents._push(q, agents.phase * hp.phase_length + (u + 1) * size,
                         columns[2][:, (u + 1) * size - 1].tolist())


def _dql_state(agents):
    """Everything a DQL phase leaves behind, as bytes and numbers."""
    return (agents.params.flat.tobytes(), agents.q_values().tobytes(),
            np.asarray(agents.target_max).tobytes(), agents.updates,
            agents.windows._buf.tobytes(), agents.windows._count,
            [[(r.step, r.action, r.delta, r.q_s0.tobytes()) for r in records]
             for records in agents.update_records or ()])


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("record_updates", [False, True])
@pytest.mark.parametrize("phase_length, c, std_window", [
    pytest.param(2000, 3, 30, id="80-updates-window-30"),
    pytest.param(500, 7, 50, id="20-updates-window-50"),
])
def test_dql_phase_matches_the_network_major_step(n, record_updates, phase_length,
                                                  c, std_window):
    # Bit for bit: whole phases of the library's layer-major runs, checked
    # once per run, against one checked network-major update at a time.
    # The refresh period divides neither phase's update count, so target
    # periods span phase boundaries; the window is shorter than the
    # 80-update phase, whose pushes the library skips unless recorded, and
    # longer than the 20-update one, so the ring carries snapshots over.
    hp = small_hp(phase_length=phase_length, c=c, std_window=std_window,
                  alpha0=0.02, zeta=1.2, gamma=0.9, activation_cap=20.0)
    rng = np.random.default_rng(100 * n + phase_length + record_updates)
    fast, slow = (DqlAgents(hp, 14, [np.random.default_rng(s) for s in range(n)],
                            record_updates) for _ in range(2))
    for phase in range(4):
        columns = _dql_columns(rng, n, phase_length)
        fast.learn_phase(columns)
        _network_major_learn_phase(slow, columns)
        assert _dql_state(fast) == _dql_state(slow)
        means = [0.0] * n
        fast_records = fast.update_policy([np.random.default_rng(phase)] * n, means)
        slow_records = slow.update_policy([np.random.default_rng(phase)] * n, means)
        assert ([r.to_jsonable() for r in fast_records]
                == [r.to_jsonable() for r in slow_records])
    assert fast.updates == 4 * phase_length // hp.minibatch


def test_divergence_replays_the_failing_run_update_by_update():
    # Network 1, scaled by 1e120 after a first phase, diverges at update
    # 62 of the second phase's 80, in a run between two target refreshes
    # (every 7 updates). The library runs it unchecked, finds it
    # non-finite, and replays it one checked update at a time; with a
    # 30-snapshot window the phase's first 31 pushes are skipped. Error,
    # update count, networks, target maxima and ring are those of a chain
    # of train_minibatch calls with the same refreshes and a push per
    # update, and no numpy warning escapes.
    hp = small_hp(phase_length=2000, c=7, std_window=30, alpha0=0.005, zeta=1.0,
                  gamma=0.9, activation_cap=20.0)
    rng = np.random.default_rng(3)
    agents = DqlAgents(hp, 14, [np.random.default_rng(s) for s in (1, 2)])
    agents.learn_phase(_dql_columns(rng, 2, hp.phase_length))
    agents.update_policy([np.random.default_rng(0)] * 2, [0.0, 0.0])
    flat = agents.params.flat.copy()
    flat[1] *= 1e120
    agents.params = chain = MlpParams(flat, agents.params.layer_sizes,
                                      agents.params.cap)
    target_max, updates = agents.target_max, agents.updates
    ring = copy.deepcopy(agents.windows)
    columns = _dql_columns(rng, 2, hp.phase_length)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatingPointError) as library:
            agents.learn_phase(columns)
        with pytest.raises(FloatingPointError) as chained:
            for u in range(hp.phase_length // hp.minibatch):
                chain, _ = train_minibatch(
                    chain, *(c[:, u * 25:(u + 1) * 25] for c in columns),
                    target_max, hp.alpha0, hp.gamma)
                updates += 1
                q = q_matrix(chain)
                if updates % hp.c == 0:
                    target_max = q.max(axis=2)
                ring.push(q)
    assert str(library.value) == str(chained.value)
    assert agents.updates == updates == 80 + 61
    np.testing.assert_array_equal(agents.params.flat, chain.flat)
    np.testing.assert_array_equal(agents.q_values(), q_matrix(chain))
    np.testing.assert_array_equal(agents.target_max, target_max)
    assert agents.windows._count == ring._count
    assert agents.windows._buf.tobytes() == ring._buf.tobytes()


def _plain_walk(policies, states, draws, joint_states, rewards, n_actions):
    """_walk_phase restated one step at a time: every agent's action, the
    joint action's flat index and the outcome tensor's row at it."""
    n, length = draws.shape
    outcome_states = decode_states(joint_states, n)
    columns = [np.zeros((n, length), dtype=dt)
               for dt in (np.int64, np.int64, np.int64, float)]
    states = list(states)
    for t in range(length):
        joint = [int(policies[i][states[i]]) if draws[i, t] < 0 else int(draws[i, t])
                 for i in range(n)]
        k = int(np.ravel_multi_index(joint, (n_actions,) * n))
        for i in range(n):
            for column, value in zip(columns, (states[i], outcome_states[k, i],
                                               joint[i], rewards[k, i])):
                column[i, t] = value
        states = outcome_states[k].tolist()
    return columns


def _check_walk(policies, states, draws, joint_states, rewards, n_actions):
    args = (policies, states, draws, joint_states, rewards, n_actions)
    columns = _walk_phase(*args)
    for column, expected in zip(columns, _plain_walk(*args)):
        assert column.shape == draws.shape
        np.testing.assert_array_equal(column, expected)


@pytest.mark.parametrize("n_cr", [1, 2, 3, 4])
def test_walk_phase_matches_a_plain_walk(n_cr):
    config = ExperimentConfig(
        env=EnvConfig(n_cr=n_cr, reward_mode="global", tpc_reference="signal"))
    scenario = scenario_for_run(config, 0, 3)
    joint_states = scenario.outcomes.joint_states
    rewards = scenario.outcomes.rewards("global")
    n_actions = len(scenario.actions)
    rng = np.random.default_rng(n_cr)
    for start in range(2 ** n_cr):
        states = [(start >> (n_cr - 1 - i)) & 1 for i in range(n_cr)]
        for rho in (0.0, 0.3, 1.0):
            for length in (1, 2, 400):
                policies = rng.integers(n_actions, size=(n_cr, 2))
                draws = np.stack([phase_draws(rng, length, rho, n_actions)
                                  for _ in range(n_cr)])
                _check_walk(policies, states, draws, joint_states, rewards,
                            n_actions)
    # paper-length phases whose stretches without an exploring step are far
    # longer than 2^N: with rho = 0 one stretch spans the phase
    for rho in (0.0, 0.01):
        policies = rng.integers(n_actions, size=(n_cr, 2))
        draws = np.stack([phase_draws(rng, 6250, rho, n_actions)
                          for _ in range(n_cr)])
        _check_walk(policies, [1] * n_cr, draws, joint_states, rewards,
                    n_actions)


def test_walk_phase_follows_a_transient_into_a_cycle():
    # Three actions, and outcomes under which the policies' map over the
    # joint states is 0 -> 1 -> 2 -> 3 -> 2: a transient of two steps, then
    # a 2-cycle. Agent 0 plays 0 in S0 and 1 in S1, agent 1 0 and 2, so
    # joint states 0, 1, 2 and 3 play the joint actions 0, 2, 3 and 5.
    rng = np.random.default_rng(7)
    outcome_states = rng.integers(2, size=(9, 2))
    outcome_states[[0, 2, 3, 5]] = [[0, 1], [1, 0], [1, 1], [1, 0]]
    joint_states = pack_states(outcome_states)
    rewards = rng.uniform(0, 5, size=(9, 2))
    policies = np.array([[0, 1], [0, 2]])
    for rho in (0.0, 0.01, 0.2):
        for length in (1, 3, 4, 5, 6250):
            for start in ([0, 0], [0, 1], [1, 1]):
                draws = np.stack([phase_draws(rng, length, rho, 3)
                                  for _ in range(2)])
                _check_walk(policies, start, draws, joint_states, rewards, 3)
    columns = _walk_phase(policies, [0, 0], np.full((2, 7), -1),
                          joint_states, rewards, 3)
    joint = 2 * columns[0][0] + columns[0][1]
    assert joint.tolist() == [0, 1, 2, 3, 2, 3, 2]


def test_make_agents_rejects_unknown_kind():
    with pytest.raises(ValueError):
        make_agents("sarsa", small_hp(), 14,
                    [np.random.default_rng(0)] * 2)


# ------------------------------------------------------------ reference loop

def _live_units(params):
    """The hidden units of a single network whose pre-activation lies
    inside (0, cap) for state 0 or state 1, each state's one-hot row
    through the layers."""
    h, live = np.eye(2), 0
    for w, b in zip(params.weights[:-1], params.biases[:-1]):
        z = h @ w[0] + b[0]
        live += int(((z > 0.0) & (z < params.cap)).any(axis=0).sum())
        h = np.clip(z, 0.0, params.cap)
    return live


class _RefAgent:
    """One agent of the reference loop. Only the network maths (init_mlp,
    q_matrix, train_minibatch) and the record types come from the library."""

    def __init__(self, learner, hp, n_actions, rng):
        self.learner, self.hp = learner, hp
        self.policy = [int(a) for a in rng.integers(n_actions, size=2)]
        self.state = 0
        self.alpha = hp.alpha0
        self.phase = self.steps = 0
        self.reward_sum, self.reward_count = 0.0, 0
        self.ring = np.zeros((hp.std_window, 2, n_actions))
        self.pushes = 0
        self.update_records = []
        if learner == "dql":
            self.params = init_mlp([rng], n_actions, hp.activation_cap)
            self.target = q_matrix(self.params)[0]
            self.columns = ([], [], [], [])
            self.updates = 0
        else:
            self.table = [[0.0] * n_actions for _ in range(2)]

    def q(self):
        if self.learner == "dql":
            return q_matrix(self.params)[0]
        return np.array(self.table)

    def largest_std(self):
        filled = min(self.pushes, self.hp.std_window)
        if not filled:
            return 0.0
        # exploding Q-values overflow the std; boundary() reports it
        with np.errstate(over="ignore", invalid="ignore"):
            return float(self.ring[:filled].std(axis=0).max())

    def push_and_record(self, action):
        self.ring[self.pushes % self.hp.std_window] = self.q()
        self.pushes += 1
        self.update_records.append(UpdateRecord(
            step=self.steps + 1, action=action, q_s0=self.q()[0].copy(),
            delta=self.hp.tolerance_multiplier * self.largest_std()))

    def learn(self, action, next_state, r):
        hp, s = self.hp, self.state
        if self.learner == "table":
            q = self.table[s][action]
            best_next = max(self.table[next_state])
            self.table[s][action] = q + self.alpha * (r + hp.gamma * best_next - q)
            self.push_and_record(action)
        else:
            for column, value in zip(self.columns, (s, next_state, action, r)):
                column.append(value)
            if len(self.columns[0]) == hp.minibatch:
                self.params, _ = train_minibatch(
                    self.params, *(np.array(c) for c in self.columns),
                    self.target.max(axis=1), self.alpha, hp.gamma)
                self.updates += 1
                if self.updates % hp.c == 0:
                    self.target = q_matrix(self.params)[0]
                self.push_and_record(action)
                self.columns = ([], [], [], [])
        self.state = next_state
        self.steps += 1
        self.reward_sum += r
        self.reward_count += 1

    def boundary(self, rng):
        q = self.q()
        spread = self.largest_std()
        # a non-finite spread means training has diverged
        if not np.isfinite(spread):
            raise FloatingPointError(
                f"non-finite Q-value spread ({spread!r}) at the end of "
                f"phase {self.phase}; training has diverged")
        delta = self.hp.tolerance_multiplier * spread
        cands = tuple(tuple(int(a) for a in np.flatnonzero(q[s] >= q[s].max() - delta))
                      for s in range(2))
        before = tuple(self.policy)
        if rng.uniform() >= self.hp.lam:
            self.policy = [c[int(rng.integers(len(c)))] for c in cands]
        record = PhaseRecord(
            phase=self.phase, policy_before=before,
            policy_after=tuple(self.policy), delta=delta,
            mean_reward=self.reward_sum / self.reward_count,
            changed=tuple(self.policy) != before, q_values=q.copy(),
            candidates=cands)
        if self.learner == "dql":
            record.live_units = _live_units(self.params)
            record.state_blind = bool(np.array_equal(q[0], q[1]))
        self.phase += 1
        self.alpha /= self.hp.zeta
        self.reward_sum, self.reward_count = 0.0, 0
        return record


def reference_run(scenario, hp, seed_seq, learner, n_restarts=None,
                  probe_phases=None):
    """run_learning restated from the published rules, with restarts when
    n_restarts is given."""
    n, n_actions = scenario.n_cr, len(scenario.actions)
    states = decode_states(scenario.outcomes.joint_states, n)
    rewards = scenario.outcomes.rewards(scenario.config.reward_mode)
    rngs = [np.random.default_rng(s) for s in seed_seq.spawn(n)]

    def fresh_agents():
        agents = [_RefAgent(learner, hp, n_actions, rngs[i]) for i in range(n)]
        for i, ag in enumerate(agents):
            ag.state = int(states[0, i])
        return agents

    def phase(agents):
        draws = [_scalar_choose_actions(rng, hp.phase_length, hp.rho, n_actions)
                 for rng in rngs]
        for t in range(hp.phase_length):
            joint = [ag.policy[ag.state] if d[t] < 0 else d[t]
                     for ag, d in zip(agents, draws)]
            k = int(np.ravel_multi_index(joint, (n_actions,) * n))
            for i, ag in enumerate(agents):
                ag.learn(joint[i], int(states[k, i]), float(rewards[k, i]))
        return [ag.boundary(rng) for ag, rng in zip(agents, rngs)]

    if n_restarts is None:
        agents = fresh_agents()
        return agents, [phase(agents) for _ in range(hp.n_phases)]
    probes = []
    for _ in range(n_restarts):
        agents = fresh_agents()
        records = [phase(agents) for _ in range(probe_phases)]
        probes.append((agents, records,
                       float(np.mean([r.mean_reward for r in records[-1]]))))
    agents, records, _ = max(probes, key=lambda p: p[2])
    records += [phase(agents) for _ in range(hp.n_phases - probe_phases)]
    return agents, records


# case -> (small_hp overrides, record_updates): every update recorded; the
# table's fast window path; a phase that is no multiple of the mini-batch,
# which the table learner alone takes
REFERENCE_CASES = {
    "recorded": (dict(phase_length=100), True),
    "unrecorded": (dict(phase_length=100), False),
    "uneven": (dict(phase_length=110, minibatch=25), False),
    # thousands of bulk updates per table before the window tail
    "long": (dict(phase_length=2000, n_phases=2), False),
    # 80 updates per phase against the 30-snapshot window, so the ring
    # wraps within a phase, and target refreshes every 3 updates, whose
    # periods span phase boundaries (80 is no multiple of 3)
    "dql-long": (dict(phase_length=2000, n_phases=2, c=3), False),
}


@pytest.mark.parametrize("learner, restarts, case, n_cr", [
    *(pytest.param(learner, restarts, case, 2, id="-".join(
        [str(restarts), learner] + ([case] if case != "recorded" else [])))
      for case in REFERENCE_CASES if "long" not in case
      for restarts in (False, True) for learner in ("table", "dql")
      if case != "uneven" or learner == "table"),
    pytest.param("table", False, "long", 2, id="False-table-long"),
    pytest.param("dql", False, "dql-long", 2, id="False-dql-long"),
    pytest.param("dql", False, "dql-long", 3, id="False-dql-long-n3"),
    # three agents push one window ring, and their networks train in
    # lockstep in one stacked block
    *(pytest.param(learner, False, case, 3, id="-".join(
        [f"False-{learner}"] + ([case] if case != "recorded" else []) + ["n3"]))
      for learner, cases in (("table", ("recorded", "unrecorded")),
                             ("dql", ("recorded",)))
      for case in cases),
    pytest.param("dql", False, "diverging", None, id="False-dql-diverging"),
])
def test_library_matches_reference_loop(learner, restarts, case, n_cr):
    if case == "diverging":
        # With the tuned 30-phase settings, run 0 of master seed 3 diverges
        # at N=2 (tests/test_cli.py DIVERGING_DQL); in run 1 of master seed
        # 8 at N=3 two agents diverge at the same update; in run 1 of
        # master seed 10 at N=3 a higher-index agent diverges first. Both
        # raise the error of the earliest diverging update, that of its
        # lowest-index diverging agent.
        for n_cr, master_seed, run in ((2, 3, 0), (3, 8, 1), (3, 10, 1)):
            config = ExperimentConfig(
                env=EnvConfig(n_cr=n_cr, reward_mode="global",
                              tpc_reference="signal"),
                agent=AgentHyperparams(phase_length=1250, n_phases=2,
                                       **TUNED_DQL_HYPERPARAMS[30]),
                learner="dql", master_seed=master_seed)
            scenario = scenario_for_run(config, 0, run)
            with pytest.raises(FloatingPointError) as library:
                learn_for_run(config, 0, run, scenario)
            with pytest.raises(FloatingPointError) as reference:
                reference_run(scenario, config.agent[0],
                              child_seed(master_seed, 0, run).spawn(2)[1], "dql")
            assert str(library.value) == str(reference.value)
        return

    config = ExperimentConfig(
        env=EnvConfig(n_cr=n_cr, reward_mode="global", tpc_reference="signal"))
    scenario = scenario_for_run(config, 0, 3)
    overrides, record_updates = REFERENCE_CASES[case]
    hp = small_hp(**{"n_phases": 3, "c": 2, "std_window": 30, **overrides})
    kwargs = dict(n_restarts=3, probe_phases=2) if restarts else {}
    seed = np.random.SeedSequence(12)
    trace = run_learning(scenario, hp, seed, learner,
                         record_updates=record_updates, **kwargs)
    ref_agents, ref_records = reference_run(
        scenario, hp, np.random.SeedSequence(12), learner, **kwargs)

    assert len(trace.phase_records) == len(ref_records) == hp.n_phases
    for recs, ref_recs in zip(trace.phase_records, ref_records):
        for rec, ref in zip(recs, ref_recs):
            assert rec.to_jsonable() == ref.to_jsonable()
    assert any(rec.changed for recs in ref_records for rec in recs)
    agents = trace.agents
    assert len(ref_agents) == len(agents.policies)
    for i, ref in enumerate(ref_agents):
        np.testing.assert_array_equal(agents.q_values()[i], ref.q())
        if learner == "table":
            assert agents.tables[i] == ref.table
        else:
            params = agents.params
            for w, w_ref in zip(params.weights + params.biases,
                                ref.params.weights + ref.params.biases):
                np.testing.assert_array_equal(w[i], w_ref[0])
            np.testing.assert_array_equal(agents.target_max[i],
                                          ref.target.max(axis=1))
        filled = min(ref.pushes, hp.std_window)
        assert agents.windows.filled == filled
        np.testing.assert_array_equal(agents.windows.snapshots()[:, i],
                                      ref.ring[:filled])
        if not record_updates:
            assert agents.update_records is None
            continue
        records = agents.update_records[i]
        assert len(records) == len(ref.update_records) > 0
        for rec, ref_rec in zip(records, ref.update_records):
            assert (rec.step, rec.action, rec.delta) == (
                ref_rec.step, ref_rec.action, ref_rec.delta)
            np.testing.assert_array_equal(rec.q_s0, ref_rec.q_s0)
