"""Per-radio learning: exploration phases, best reply with inertia.

Learning proceeds in phases of fixed length during which the policy is
frozen and actions deviate from it only with the experimentation
probability. At each phase boundary the agent forms a candidate set of
actions whose Q-values lie within an adaptive tolerance of the per-state
maximum (a multiple of the largest moving standard deviation observed
among the Q-value traces) and either keeps its policy, with the inertia
probability, or draws a fresh one uniformly from the candidate set. The
learning rate is divided by a constant once per phase.

All agents in a run share a single outcome per step, looked up by flat
joint index in the scenario's outcome tensor, so the only coupling
between them is the wireless environment itself.

The N agents of a run are one object. It holds what they share
(hyperparameters, step size, phase count) once, and their own state as
arrays with a leading agent axis: the (N, 2) policies, the states, the Q
tables or the stacked networks, and one window ring. Agent i draws from
its own generator and learns from its own row of the columns alone, so
every agent learns as it would on its own.

A phase runs in three stages. Because the policies are frozen for the
whole phase and an agent's random draws never depend on its Q-values,
each agent first takes the phase's exploration draws from its own
generator (``phase_draws``): each step explores with probability rho,
independently of the other steps and agents, and an exploring step
takes an action uniformly from the whole action space. The phase's joint
trajectory is then walked once through the outcome tensor, which gives
four (N, L) columns: states, next states, actions and rewards. Finally
the agents learn from the columns, and both learners push all N Q
matrices to the window ring at once, in lockstep. The table learners
apply, per agent, the updates whose snapshots cannot reach the phase
boundary's ring in one in-place temporal-difference pass; each of the
last ``std_window`` steps then updates every table and pushes. The
networks form one stacked block. The agents share the phase length,
mini-batch size, step size and target-refresh period, so the phase is
set up once for all of them and each update is one gradient step of the
block, the step ``train_minibatch`` takes, in which every network steps
on its own next mini-batch, bit for bit as it would alone. As for the
tables, only the last ``std_window`` updates push; the earlier ones are
counted, unless every update is recorded. The partial mini-batch carried
into the next phase is as long for every agent. A phase is at least one
mini-batch long, so every phase pushes a snapshot. The first update at
which any network diverges ends the run with that update's error, the
one of its lowest-index diverging network, as agents stepping together
through the phase would.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .environment import Scenario
from .qfunc import (
    N_STATES,
    _Descent,
    init_mlp,
    q_matrix,
    table_update,
)

__all__ = [
    "AgentHyperparams",
    "DqlAgents",
    "TableAgents",
    "make_agents",
    "phase_draws",
    "run_exploration_phase",
    "run_learning",
    "RunTrace",
]


@dataclass(frozen=True)
class AgentHyperparams:
    """Learning knobs shared by every agent in a run."""

    rho: float = 0.10               # experimentation probability
    lam: float = 0.25               # inertia
    gamma: float = 0.90             # discount factor
    phase_length: int = 6250        # environment steps per exploration phase
    n_phases: int = 100
    alpha0: float = 0.05            # initial learning rate
    zeta: float = 5.0               # per-phase learning-rate divisor; 1 keeps alpha0
    c: int = 50                     # target refresh period (in updates)
    minibatch: int = 25
    tolerance_multiplier: float = 3.0
    std_window: int = 50
    activation_cap: float = 20.0

    def __post_init__(self):
        if not 0.0 <= self.rho < 1.0:
            raise ValueError("rho must lie in [0, 1)")
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError("lambda must lie in [0, 1]")
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must lie in (0, 1)")
        if self.phase_length < self.minibatch:
            raise ValueError("phase must cover at least one mini-batch")
        # written so that NaN fails too
        if not self.zeta >= 1.0:
            raise ValueError("zeta must be >= 1")
        if not all(x > 0 for x in (
                self.n_phases, self.alpha0, self.c, self.minibatch,
                self.tolerance_multiplier, self.std_window, self.activation_cap)):
            raise ValueError("counts, rates, windows and the activation cap "
                             "must be positive")


# Hyper-parameter choices that gave the best percent-optimal at each phase
# budget for the network learner.
TUNED_DQL_HYPERPARAMS = {
    30: dict(alpha0=0.050, zeta=5.0, rho=0.10, lam=0.25, c=50),
    40: dict(alpha0=0.030, zeta=5.0, rho=0.20, lam=0.25, c=50),
    50: dict(alpha0=0.050, zeta=4.5, rho=0.20, lam=0.25, c=50),
    75: dict(alpha0=0.015, zeta=2.0, rho=0.05, lam=0.25, c=50),
    100: dict(alpha0=0.050, zeta=5.0, rho=0.10, lam=0.25, c=50),
}


def phase_draws(rng: np.random.Generator, length: int, rho: float,
                n_actions: int) -> np.ndarray:
    """The exploration draws of one agent for a phase of ``length`` steps.

    Returns one entry per step: an action drawn uniformly from
    [0, n_actions) where the step explores, -1 where it follows the
    policy. A step explores when its uniform draw lies at or above
    1 - rho, so the policy action has total probability 1 - rho + rho/|A|.
    The draws come from ``rng`` in two blocks: one ``rng.random`` uniform
    per step, then one ``rng.integers`` action per exploring step, in step
    order.
    """
    if not 0.0 <= rho <= 1.0:
        raise ValueError("rho must lie in [0, 1]")
    explores = rng.random(length) >= 1.0 - rho
    draws = np.full(length, -1, dtype=np.int64)
    draws[explores] = rng.integers(n_actions, size=int(explores.sum()))
    return draws


class QValueWindows:
    """Rolling per-(agent, state, action) record of recent Q-value
    evaluations; one push stores every agent's Q matrix."""

    def __init__(self, n_agents: int, n_actions: int, window: int):
        self._buf = np.zeros((window, n_agents, N_STATES, n_actions))
        self._window = window
        self._count = 0

    def push(self, q):
        """Store q, the (n_agents, n_states, n_actions) Q matrices."""
        self._buf[self._count % self._window] = q
        self._count += 1

    def skip(self, n: int):
        """Count n pushes without storing them. At least ``window`` pushes
        must follow before the next snapshots call, so that none of the
        skipped slots is read. Both learners count a phase's updates
        before its last ``window`` this way unless every update is
        recorded."""
        self._count += n

    @property
    def filled(self) -> int:
        return min(self._count, self._window)

    def snapshots(self) -> np.ndarray:
        """The filled ring slots, (filled, n_agents, n_states, n_actions), in
        slot order."""
        return self._buf[:self.filled]

    def largest_std(self) -> np.ndarray:
        """Per agent, the max over (state, action) of the std over the
        window; zeros if empty.

        Exploding Q-values overflow the std to inf (or nan) without a
        warning; update_policy reports that as a divergence.
        """
        if self.filled == 0:
            return np.zeros(self._buf.shape[1])
        with np.errstate(over="ignore", invalid="ignore"):
            return self.snapshots().std(axis=0).max(axis=(1, 2))


@dataclass
class PhaseRecord:
    """What one agent did at one phase boundary."""

    phase: int
    policy_before: tuple[int, ...]
    policy_after: tuple[int, ...]
    delta: float
    mean_reward: float
    changed: bool
    q_values: np.ndarray                        # (n_states, n_actions)
    candidates: tuple[tuple[int, ...], ...]

    def to_jsonable(self) -> dict:
        return {
            "phase": self.phase,
            "policy_before": list(self.policy_before),
            "policy_after": list(self.policy_after),
            "delta": self.delta,
            "mean_reward": self.mean_reward,
            "changed": self.changed,
            "q_values": self.q_values.tolist(),
            "candidates": [list(c) for c in self.candidates],
        }


@dataclass
class UpdateRecord:
    """One learning update: Q snapshot for S0 plus the candidate threshold."""

    step: int
    action: int
    q_s0: np.ndarray
    delta: float

    @property
    def threshold(self) -> float:
        return float(self.q_s0.max() - self.delta)


def candidate_sets(q: np.ndarray, delta: float) -> tuple[tuple[int, ...], ...]:
    """Per-state actions within delta of the per-state max.

    A zero tolerance degenerates to the argmax alone, ties broken toward
    the lowest action index.
    """
    sets = []
    for s in range(q.shape[0]):
        if delta <= 0.0:
            sets.append((int(np.argmax(q[s])),))
        else:
            best = q[s].max()
            sets.append(tuple(int(a) for a in np.flatnonzero(q[s] >= best - delta)))
    return tuple(sets)


class _AgentBase:
    """The N agents of one run: shared phase bookkeeping, agent i's state
    in row i. Subclasses provide the Q backend: q_values() returns the
    (N, n_states, n_actions) Q matrices, and learn_phase(columns) learns
    from one phase's four (N, L) columns."""

    def __init__(self, hp: AgentHyperparams, n_actions: int, rngs,
                 record_updates: bool = False):
        self.hp = hp
        self.alpha = hp.alpha0
        self.phase = 0
        self.policies = np.array([rng.integers(n_actions, size=N_STATES)
                                  for rng in rngs])
        self.states = [0] * len(rngs)
        self.windows = QValueWindows(len(rngs), n_actions, hp.std_window)
        self.update_records: list[list[UpdateRecord]] | None = (
            [[] for _ in rngs] if record_updates else None)

    def _push(self, q, step: int, actions):
        """Push q, every agent's Q matrix, to the window ring, and record
        the update, at which agent i played actions[i], if updates are
        recorded."""
        self.windows.push(q)
        if self.update_records is not None:
            spreads = self.windows.largest_std().tolist()
            for records, q_agent, action, spread in zip(
                    self.update_records, q, actions, spreads):
                records.append(UpdateRecord(
                    step=step, action=action, q_s0=np.array(q_agent[0]),
                    delta=self.hp.tolerance_multiplier * spread))

    def update_policy(self, rngs, mean_rewards) -> list[PhaseRecord]:
        """Best reply with inertia at a phase boundary, agent i drawing from
        rngs[i]; agent i's record keeps its phase's mean_rewards[i].

        Raises FloatingPointError when an agent's Q-value spread over the
        window is not finite: training has diverged. The error gives the
        spread of the lowest-index such agent.
        """
        q = self.q_values()
        spreads = self.windows.largest_std().tolist()
        for spread in spreads:
            if not math.isfinite(spread):
                raise FloatingPointError(
                    f"non-finite Q-value spread ({spread!r}) at the end of "
                    f"phase {self.phase}; training has diverged")
        records = []
        for i, (rng, spread) in enumerate(zip(rngs, spreads)):
            delta = self.hp.tolerance_multiplier * spread
            candidates = candidate_sets(q[i], delta)
            before = tuple(self.policies[i].tolist())
            if rng.random() >= self.hp.lam:
                self.policies[i] = [cands[rng.integers(len(cands))]
                                    for cands in candidates]
            after = tuple(self.policies[i].tolist())
            records.append(PhaseRecord(
                phase=self.phase,
                policy_before=before,
                policy_after=after,
                delta=delta,
                mean_reward=mean_rewards[i],
                changed=after != before,
                q_values=q[i].copy(),
                candidates=candidates,
            ))
        self.phase += 1
        self.alpha /= self.hp.zeta
        return records


class DqlAgents(_AgentBase):
    """Network-backed learners: one gradient update per full mini-batch,
    every agent's network stepping in lockstep in one stacked block."""

    def __init__(self, hp, n_actions, rngs, record_updates=False):
        super().__init__(hp, n_actions, rngs, record_updates)
        # each generator draws its agent's policy, then its network
        self.params = init_mlp(rngs, n_actions, hp.activation_cap)
        # per network and state, the maximum of the frozen target Q-values
        self.target_max = q_matrix(self.params).max(axis=2)
        # the partial mini-batch carried to the next phase, as (N, length)
        # columns: states, next states, actions, rewards
        n = len(rngs)
        self.batch: tuple[np.ndarray, ...] = (
            (np.empty((n, 0), dtype=np.int64),) * 3 + (np.empty((n, 0)),))
        self.updates = 0

    def q_values(self) -> np.ndarray:
        return q_matrix(self.params)

    def learn_phase(self, columns):
        """Train the stacked networks in lockstep: update u trains every
        network on its own u-th mini-batch. The phase's set-up is done
        once (qfunc._Descent), and the targets once per target refresh;
        the first update whose step diverges raises its error and leaves
        the networks, targets and window ring as the update before it
        left them."""
        hp = self.hp
        cols = [np.concatenate([carried, new], axis=1)
                for carried, new in zip(self.batch, columns)]
        size = hp.minibatch
        # the step number of column entry 0: the carried entries come first
        first_step = self.phase * hp.phase_length + 1 - self.batch[0].shape[1]
        n_full = cols[0].shape[1] // size
        end = n_full * size
        descent = _Descent(self.params, *(c[:, :end] for c in cols), n_full,
                           self.alpha, hp.gamma)
        # Only the last std_window snapshots can still be in the window ring
        # at the phase boundary; earlier updates are counted, not pushed,
        # unless every update is recorded.
        bulk = max(n_full - hp.std_window, 0) if self.update_records is None else 0
        stop = 0
        # diverging networks overflow; their step raises
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                for u in range(n_full):
                    if u == stop:
                        # the targets of the updates up to the next refresh
                        start = u
                        stop = min(u + hp.c - self.updates % hp.c, n_full)
                        targets = descent.targets(self.target_max, start, stop)
                    descent.step(u, targets[u - start])
                    self.updates += 1
                    q = descent.q
                    if self.updates % hp.c == 0:
                        self.target_max = q.max(axis=2)
                    if u < bulk:
                        self.windows.skip(1)
                    else:
                        last = (u + 1) * size - 1
                        self._push(q, first_step + last, cols[2][:, last].tolist())
            finally:
                self.params = descent.params()
        self.batch = tuple(c[:, end:].copy() for c in cols)


class TableAgents(_AgentBase):
    """Table-backed learners: one in-place temporal-difference update per
    step."""

    def __init__(self, hp, n_actions, rngs, record_updates=False):
        super().__init__(hp, n_actions, rngs, record_updates)
        self.tables = [[[0.0] * n_actions for _ in range(N_STATES)]
                       for _ in rngs]

    def q_values(self) -> np.ndarray:
        return np.array(self.tables)

    def learn_phase(self, columns):
        """Update every table in place, one update per step, in step
        order."""
        hp = self.hp
        columns = [c.tolist() for c in columns]    # columns[j][i]: agent i's
        n = len(columns[3][0])
        # Only the last std_window snapshots can still be in the window
        # ring at the phase boundary; the earlier updates are applied in one
        # pass per agent and counted, not pushed, unless every update is
        # recorded.
        bulk = max(n - hp.std_window, 0) if self.update_records is None else 0
        for i, table in enumerate(self.tables):
            table_update(table, *(c[i][:bulk] for c in columns),
                         self.alpha, hp.gamma)
        self.windows.skip(bulk)
        for t in range(bulk, n):
            for i, table in enumerate(self.tables):
                table_update(table, *(c[i][t:t + 1] for c in columns),
                             self.alpha, hp.gamma)
            self._push(self.tables, self.phase * hp.phase_length + t + 1,
                       [actions[t] for actions in columns[2]])


def make_agents(kind: str, hp: AgentHyperparams, n_actions: int, rngs,
                record_updates: bool = False) -> _AgentBase:
    """The agents of one run, one per generator in rngs."""
    cls = {"dql": DqlAgents, "table": TableAgents}.get(kind)
    if cls is None:
        raise ValueError(f"unknown learner kind {kind!r}")
    return cls(hp, n_actions, rngs, record_updates)


def _walk_phase(policies: np.ndarray, states, draws: np.ndarray,
                outcome_states: np.ndarray, rewards: np.ndarray,
                n_actions: int):
    """The phase's joint trajectory under the frozen policies.

    policies is (N, 2), states the N agents' states at the phase start,
    and row i of the (N, L) draws agent i's phase_draws result. Returns
    four (N, L) columns, row i agent i's: states, next states, actions
    and rewards. The walk follows the joint state (agent i's state in bit
    N-1-i): for each step and each joint state, the joint action and the
    next joint state are found at once, which leaves one lookup per step
    in order. Those lookups run on one flat list of L * 2^N positions,
    step t's joint state j at position t * 2^N + j, whose entry at a
    position is the position of step t+1's joint state; the walk collects
    the positions it visits, and a step's joint state is its position
    less t * 2^N.
    """
    n, length = draws.shape
    width = 2 ** n
    shifts = np.arange(n - 1, -1, -1)
    bits = (np.arange(width)[:, None] >> shifts) & 1          # (2^n, n)
    # actions[i, t, s]: agent i's action at step t when in state s
    actions = np.repeat(policies[:, None, :], length, axis=1)
    np.copyto(actions, draws[:, :, None], where=draws[:, :, None] >= 0)
    joint_index = np.zeros((length, width), dtype=np.int64)
    for i in range(n):
        joint_index = joint_index * n_actions + actions[i][:, bits[:, i]]
    steps = np.arange(length)
    # follow[t * width + j]: the position of the joint state after step t
    # from joint state j
    follow = ((outcome_states << shifts).sum(axis=1)[joint_index]
              + (steps[:, None] + 1) * width).ravel().tolist()
    pos = sum(state << int(shift) for state, shift in zip(states, shifts))
    visited = [0] * length
    for t in range(length):
        visited[t] = pos
        pos = follow[pos]
    visited = np.array(visited)
    path = visited - steps * width
    k = joint_index.ravel()[visited]
    own = (path >> shifts[:, None]) & 1
    # take() gathers rows faster than fancy indexing on these arrays, which
    # need not be contiguous
    return (own, outcome_states.take(k, axis=0).T,
            actions[np.arange(n)[:, None], steps, own],
            rewards.take(k, axis=0).T)


def run_exploration_phase(agents: _AgentBase, scenario: Scenario,
                          rngs) -> list[PhaseRecord]:
    """One phase for all agents: frozen policies, one joint action per
    step, policy updates at the boundary. Returns agent i's record at
    index i.

    Each step's states and rewards are the row of the scenario's outcome
    tensor at the joint action's flat index.
    """
    hp, outcomes = agents.hp, scenario.outcomes
    n_actions = len(scenario.actions)
    draws = np.stack([phase_draws(rng, hp.phase_length, hp.rho, n_actions)
                      for rng in rngs])
    columns = _walk_phase(agents.policies, agents.states, draws, outcomes.states,
                          outcomes.rewards(scenario.config.reward_mode), n_actions)
    agents.learn_phase(columns)
    agents.states = columns[1][:, -1].tolist()
    # each mean adds its rewards left to right, one addition per step;
    # sum() compensates float sums from Python 3.12 on
    means = [functools.reduce(operator.add, row, 0.0) / len(row)
             for row in columns[3].tolist()]
    return agents.update_policy(rngs, means)


@dataclass
class RunTrace:
    """Everything a finished run exposes for scoring and plotting."""

    agents: _AgentBase
    phase_records: list[list[PhaseRecord]]   # [phase][agent]

    def joint_policy(self) -> tuple[int, ...]:
        """Every agent's action in S0."""
        return tuple(self.agents.policies[:, 0].tolist())


def _spawn_rngs(seed_seq: np.random.SeedSequence, n: int):
    return [np.random.default_rng(s) for s in seed_seq.spawn(n)]


def run_learning(scenario: Scenario,
                 hp: AgentHyperparams,
                 seed_seq: np.random.SeedSequence,
                 learner: str = "dql",
                 n_restarts: int = 1,
                 probe_phases: int | None = None,
                 record_updates: bool = False) -> RunTrace:
    """Train all agents on one scenario for the configured phase count.

    Multi-start: each of n_restarts probes trains fresh randomly
    initialized agents for probe_phases phases (all of them by default);
    the probe with the largest mean reward over its final phase is resumed
    for the remaining phases. A single restart is a plain run. Only the
    extra probes add learning steps, so the overhead is
    (n_restarts - 1) * probe_phases phases.
    """
    probe_phases = hp.n_phases if probe_phases is None else probe_phases
    if hp.n_phases < probe_phases:
        raise ValueError("probe phases exceed the configured phase count")
    if min(n_restarts, probe_phases) < 1:
        raise ValueError("restarts need at least one probe of one phase")
    rngs = _spawn_rngs(seed_seq, scenario.n_cr)
    probes = []
    for _ in range(n_restarts):
        agents = make_agents(learner, hp, len(scenario.actions), rngs,
                             record_updates)
        # every agent starts in its state under the all-off joint action
        # (flat index 0)
        agents.states = scenario.outcomes.states[0].tolist()
        records = [run_exploration_phase(agents, scenario, rngs)
                   for _ in range(probe_phases)]
        probes.append((agents, records))
    probe_rewards = [float(np.mean([r.mean_reward for r in records[-1]]))
                     for _, records in probes]
    agents, records = probes[int(np.argmax(probe_rewards))]
    for _ in range(hp.n_phases - probe_phases):
        records.append(run_exploration_phase(agents, scenario, rngs))
    return RunTrace(agents=agents, phase_records=records)
