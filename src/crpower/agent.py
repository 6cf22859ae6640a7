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

A phase runs in three stages. Because the policies are frozen for the
whole phase and an agent's random draws never depend on its Q-values,
each agent first takes the phase's exploration draws from its own
generator (``phase_draws``): each step explores with probability rho,
independently of the other steps and agents, and an exploring step
takes an action uniformly from the whole action space. The phase's joint
trajectory is then walked once through the outcome tensor, which gives
every agent four columns: states, next states, actions and rewards.
Finally the agents learn from their columns. An agent's learning
depends on its own columns alone. The table learners learn one after
another in index order: each applies the updates whose snapshots cannot
reach the phase boundary's window ring in one in-place
temporal-difference pass and the last ``std_window`` one at a time,
pushing a snapshot after each. The network learners of a run share the
phase length, mini-batch size, step size and target-refresh period, so
their gradient updates line up one to one, and they train in lockstep:
their networks form one stacked block, and each update is one
``train_minibatch`` call in which every network steps on the next
mini-batch slice of its own columns. Each network's results are bit for
bit those it would get alone. The partial mini-batch carried into the
next phase is as long for every agent. Window pushes, update records
and the target maxima refreshed every ``c`` updates stay per agent. A
phase is at least one mini-batch long, so every phase pushes a window
snapshot for either learner. Each trained parameter set caches its
read-only Q matrices, so the one forward pass after an update serves
the window pushes, the update records, the phase-boundary policy
updates, the target refresh and the next training step. The first
update at which any network diverges ends the run with that update's
error, the one of its lowest-index diverging network, as agents
stepping together through the phase would.
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
    init_mlp,
    q_matrix,
    table_update,
    train_minibatch,
)

__all__ = [
    "AgentHyperparams",
    "DqlAgent",
    "TableAgent",
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
        if self.zeta < 1.0:
            raise ValueError("zeta must be >= 1")
        if min(self.n_phases, self.alpha0, self.c, self.minibatch,
               self.tolerance_multiplier, self.std_window,
               self.activation_cap) <= 0:
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
    """Rolling per-(state, action) record of recent Q-value evaluations."""

    def __init__(self, n_actions: int, window: int):
        self._buf = np.zeros((window, N_STATES, n_actions))
        self._window = window
        self._count = 0

    def push(self, q):
        self._buf[self._count % self._window] = q
        self._count += 1

    def skip(self, n: int):
        """Count n pushes without storing them. At least ``window`` pushes
        must follow before the next snapshots call, so that none of the
        skipped slots is read."""
        self._count += n

    @property
    def filled(self) -> int:
        return min(self._count, self._window)

    def snapshots(self) -> np.ndarray:
        """The filled ring slots, (filled, n_states, n_actions), in slot order."""
        return self._buf[:self.filled]

    def largest_std(self) -> float:
        """Max over (state, action) of the std over the window, 0 if empty.

        Exploding Q-values overflow the std to inf (or nan) without a
        warning; update_policy reports that as a divergence.
        """
        if self.filled == 0:
            return 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            return float(self.snapshots().std(axis=0).max())


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
    """Shared phase bookkeeping; subclasses provide the Q backend."""

    def __init__(self, hp: AgentHyperparams, n_actions: int,
                 rng: np.random.Generator, record_updates: bool = False):
        self.hp = hp
        self.policy = rng.integers(n_actions, size=N_STATES)
        self.state = 0
        self.alpha = hp.alpha0
        self.phase = 0
        self.windows = QValueWindows(n_actions, hp.std_window)
        self.update_records: list[UpdateRecord] | None = (
            [] if record_updates else None)

    def q_values(self) -> np.ndarray:
        raise NotImplementedError

    @staticmethod
    def learn_phase(agents, columns):
        """Learn from one phase's columns, columns[i] those of agent i, and
        move each agent to its last next state."""
        raise NotImplementedError

    def _record_update(self, step: int, action: int, q):
        if self.update_records is not None:
            delta = self.hp.tolerance_multiplier * self.windows.largest_std()
            self.update_records.append(UpdateRecord(
                step=step, action=action, q_s0=np.array(q[0]), delta=delta))

    def update_policy(self, rng: np.random.Generator, mean_reward: float) -> PhaseRecord:
        """Best reply with inertia at a phase boundary; the record keeps the
        phase's mean_reward.

        Raises FloatingPointError when the Q-value spread over the window
        is not finite: training has diverged.
        """
        q = self.q_values()
        spread = self.windows.largest_std()
        if not math.isfinite(spread):
            raise FloatingPointError(
                f"non-finite Q-value spread ({spread!r}) at the end of "
                f"phase {self.phase}; training has diverged")
        delta = self.hp.tolerance_multiplier * spread
        candidates = candidate_sets(q, delta)

        before = tuple(int(a) for a in self.policy)
        if rng.random() >= self.hp.lam:
            self.policy = np.array(
                [cands[rng.integers(len(cands))] for cands in candidates])
        after = tuple(int(a) for a in self.policy)

        record = PhaseRecord(
            phase=self.phase,
            policy_before=before,
            policy_after=after,
            delta=delta,
            mean_reward=mean_reward,
            changed=after != before,
            q_values=q.copy(),
            candidates=candidates,
        )
        self.phase += 1
        self.alpha /= self.hp.zeta
        return record


class _Networks:
    """The stacked networks of a run's DQL agents and what their lockstep
    training carries from one phase to the next."""

    def __init__(self, params):
        self.params = params
        # per network and state, the maximum of the frozen target Q-values
        self.target_max = q_matrix(params).max(axis=2)
        # partial mini-batch carried to the next phase, as long for every
        # network: states, next states, actions, rewards, each (N, length)
        n = len(params.flat)
        self.batch: tuple[np.ndarray, ...] = (
            (np.empty((n, 0), dtype=np.int64),) * 3 + (np.empty((n, 0)),))
        self.updates = 0


class DqlAgent(_AgentBase):
    """Network-backed learner: one gradient update per full mini-batch.

    The agent's network is row ``index`` of ``net``, the stacked networks
    of the run's DQL agents, which make_agents builds.
    """

    def q_values(self) -> np.ndarray:
        return q_matrix(self.net.params)[self.index]

    @staticmethod
    def learn_phase(agents, columns):
        """Train the agents' stacked networks in lockstep: update u trains
        every network on its own u-th mini-batch in one train_minibatch
        call, whose divergence error the phase raises."""
        # the agents of a run share hyperparameters, phase and step size
        net, hp, alpha = agents[0].net, agents[0].hp, agents[0].alpha
        cols = [np.concatenate([carried, np.stack(new)], axis=1)
                for carried, new in zip(net.batch, zip(*columns))]
        size = hp.minibatch
        # the step number of column entry 0: the carried entries come first
        first_step = agents[0].phase * hp.phase_length + 1 - net.batch[0].shape[1]
        n_full = cols[0].shape[1] // size
        for end in range(size, n_full * size + 1, size):
            net.params, _ = train_minibatch(
                net.params, *(c[:, end - size:end] for c in cols),
                net.target_max, alpha, hp.gamma)
            net.updates += 1
            q = q_matrix(net.params)
            if net.updates % hp.c == 0:
                net.target_max = q.max(axis=2)
            for ag, q_agent, action in zip(agents, q,
                                           cols[2][:, end - 1].tolist()):
                ag.windows.push(q_agent)
                ag._record_update(first_step + end - 1, action, q_agent)
        net.batch = tuple(c[:, n_full * size:].copy() for c in cols)
        for ag, c in zip(agents, columns):
            ag.state = int(c[1][-1])


class TableAgent(_AgentBase):
    """Table-backed learner: one in-place temporal-difference update per step."""

    def __init__(self, hp, n_actions, rng, record_updates=False):
        super().__init__(hp, n_actions, rng, record_updates)
        self.table = [[0.0] * n_actions for _ in range(N_STATES)]

    def q_values(self) -> np.ndarray:
        return np.array(self.table)

    @staticmethod
    def learn_phase(agents, columns):
        for ag, agent_columns in zip(agents, columns):
            ag.learn(*agent_columns)

    def learn(self, states, next_states, actions, rewards):
        """Learn from one phase's columns and move to its last next state."""
        columns = [c.tolist() for c in (states, next_states, actions, rewards)]
        n = len(rewards)
        # Only the last std_window snapshots can still be in the window
        # ring at the phase boundary; the earlier updates are applied in one
        # pass and counted, not pushed, unless every update is recorded.
        bulk = max(n - self.hp.std_window, 0) if self.update_records is None else 0
        table_update(self.table, *(c[:bulk] for c in columns),
                     self.alpha, self.hp.gamma)
        self.windows.skip(bulk)
        for t in range(bulk, n):
            table_update(self.table, *(c[t:t + 1] for c in columns),
                         self.alpha, self.hp.gamma)
            self.windows.push(self.table)
            self._record_update(self.phase * self.hp.phase_length + t + 1,
                                columns[2][t], self.table)
        self.state = columns[1][-1]


def make_agents(kind: str, hp: AgentHyperparams, n_agents: int, n_actions: int,
                rngs, record_updates: bool = False):
    cls = {"dql": DqlAgent, "table": TableAgent}.get(kind)
    if cls is None:
        raise ValueError(f"unknown learner kind {kind!r}")
    agents = [cls(hp, n_actions, rngs[i], record_updates) for i in range(n_agents)]
    if cls is DqlAgent:
        # one stacked block for the run; each generator draws its agent's
        # policy, then its network
        net = _Networks(init_mlp(rngs[:n_agents], n_actions, hp.activation_cap))
        for i, ag in enumerate(agents):
            ag.net, ag.index = net, i
    return agents


def _walk_phase(agents, draws, states: np.ndarray, rewards: np.ndarray,
                n_actions: int):
    """The phase's joint trajectory under the frozen policies.

    draws[i] is agent i's phase_draws result. Returns, per agent, its four
    columns: states, next states, actions and rewards. The walk follows
    the joint state (agent i's state in bit n-1-i): for each step and each
    joint state, the joint action and the next joint state are found at
    once, which leaves one lookup per step in order.
    """
    n, length = len(agents), len(draws[0])
    shifts = np.arange(n - 1, -1, -1)
    bits = (np.arange(2 ** n)[:, None] >> shifts) & 1          # (2^n, n)
    # actions[i][t, s]: agent i's action at step t when in state s
    actions = [np.where(d[:, None] >= 0, d[:, None], ag.policy[None, :])
               for d, ag in zip(draws, agents)]
    joint_index = np.zeros((length, 2 ** n), dtype=np.int64)
    for i, act in enumerate(actions):
        joint_index = joint_index * n_actions + act[:, bits[:, i]]
    next_joint = (states << shifts).sum(axis=1)[joint_index]
    joint = sum(ag.state << int(shift) for ag, shift in zip(agents, shifts))
    path = []
    for row in next_joint.tolist():
        path.append(joint)
        joint = row[joint]
    path = np.array(path)
    steps = np.arange(length)
    k = joint_index[steps, path]
    columns = []
    for i, act in enumerate(actions):
        own = (path >> shifts[i]) & 1
        columns.append((own, states[k, i], act[steps, own], rewards[k, i]))
    return columns


def run_exploration_phase(agents, scenario: Scenario, rngs) -> list[PhaseRecord]:
    """One phase for all agents: frozen policies, one joint action per
    step, policy updates at the boundary.

    Each step's states and rewards are the row of the scenario's outcome
    tensor at the joint action's flat index.
    """
    outcomes = scenario.outcomes
    n_actions = len(scenario.actions)
    draws = [phase_draws(rngs[i], ag.hp.phase_length, ag.hp.rho, n_actions)
             for i, ag in enumerate(agents)]
    columns = _walk_phase(agents, draws, outcomes.states,
                          outcomes.rewards(scenario.config.reward_mode), n_actions)
    type(agents[0]).learn_phase(agents, columns)
    # each mean adds its rewards left to right, one addition per step;
    # sum() compensates float sums from Python 3.12 on
    means = [functools.reduce(operator.add, c[3].tolist(), 0.0) / len(c[3])
             for c in columns]
    return [ag.update_policy(rngs[i], means[i]) for i, ag in enumerate(agents)]


@dataclass
class RunTrace:
    """Everything a finished run exposes for scoring and plotting."""

    agents: list
    phase_records: list[list[PhaseRecord]]   # [phase][agent]

    def joint_policy(self, state: int = 0) -> tuple[int, ...]:
        return tuple(int(ag.policy[state]) for ag in self.agents)


def _spawn_rngs(seed_seq: np.random.SeedSequence, n: int):
    return [np.random.default_rng(s) for s in seed_seq.spawn(n)]


def _sense_initial_state(agents, scenario: Scenario):
    """Every agent starts in its state under the all-off joint action (flat index 0)."""
    for ag, state in zip(agents, scenario.outcomes.states[0].tolist()):
        ag.state = state


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
        agents = make_agents(learner, hp, scenario.n_cr, len(scenario.actions),
                             rngs, record_updates)
        _sense_initial_state(agents, scenario)
        records = [run_exploration_phase(agents, scenario, rngs)
                   for _ in range(probe_phases)]
        probes.append((agents, records))
    probe_rewards = [float(np.mean([r.mean_reward for r in records[-1]]))
                     for _, records in probes]
    agents, records = probes[int(np.argmax(probe_rewards))]
    for _ in range(hp.n_phases - probe_phases):
        records.append(run_exploration_phase(agents, scenario, rngs))
    return RunTrace(agents=agents, phase_records=records)
