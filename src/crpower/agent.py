"""Per-radio learning: exploration phases, best reply with inertia.

Learning proceeds in phases of fixed length during which the policy is
frozen and actions deviate from it only with the experimentation
probability. At each phase boundary the agent forms a candidate set of
actions whose Q-values lie within an adaptive tolerance of the per-state
maximum (a multiple of the largest moving standard deviation observed
among the Q-value traces) and either keeps its policy, with the inertia
probability, or draws a fresh one uniformly from the candidate set. The
learning rate is divided by a constant once per phase.

All agents in a run are stepped in fixed index order against a single
shared outcome per step, looked up by flat joint index in the scenario's
outcome tensor, so the only coupling between them is the wireless
environment itself.

One step works on plain Python scalars: each agent reads its frozen
policy as a list and draws with ``rng.random()`` (the same double, at the
same stream position, as ``rng.uniform()``). The table learner updates
its two lists of floats in place; the network learner appends the step
to four mini-batch columns and trains once per full mini-batch. Each
trained parameter set caches its read-only Q matrix, so the one forward
pass after an update serves the window push, the update record, the
phase-boundary policy update, the target refresh and the next training
step.
"""

from __future__ import annotations

import copy
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .environment import Scenario
from .qfunc import (
    N_STATES,
    TargetArray,
    init_mlp,
    q_matrix,
    refresh_target,
    table_update,
    train_minibatch,
)

__all__ = [
    "AgentHyperparams",
    "DqlAgent",
    "TableAgent",
    "choose_action",
    "make_agents",
    "run_exploration_phase",
    "run_learning",
    "run_with_restarts",
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
    zeta: float = 5.0               # per-phase learning-rate divisor
    c: int = 50                     # target refresh period (in updates)
    minibatch: int = 25
    tolerance_multiplier: float = 3.0
    std_window: int = 50
    activation_cap: float = 20.0
    fixed_alpha: bool = False       # disable the per-phase decay

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
               self.tolerance_multiplier, self.std_window) <= 0:
            raise ValueError("counts, rates and windows must be positive")


# Hyper-parameter choices that gave the best percent-optimal at each phase
# budget for the network learner.
TUNED_DQL_HYPERPARAMS = {
    30: dict(alpha0=0.050, zeta=5.0, rho=0.10, lam=0.25, c=50),
    40: dict(alpha0=0.030, zeta=5.0, rho=0.20, lam=0.25, c=50),
    50: dict(alpha0=0.050, zeta=4.5, rho=0.20, lam=0.25, c=50),
    75: dict(alpha0=0.015, zeta=2.0, rho=0.05, lam=0.25, c=50),
    100: dict(alpha0=0.050, zeta=5.0, rho=0.10, lam=0.25, c=50),
}


def choose_action(state: int, policy: Sequence[int], rho: float,
                  rng: np.random.Generator, n_actions: int) -> int:
    """Policy action with probability 1-rho, else uniform over all actions.

    policy holds one action per state. The policy action therefore has
    total probability 1 - rho + rho/|A|.
    """
    if not 0.0 <= rho <= 1.0:
        raise ValueError("rho must lie in [0, 1]")
    if rng.random() < 1.0 - rho:
        return int(policy[state])
    return int(rng.integers(n_actions))


class QValueWindows:
    """Rolling per-(state, action) record of recent Q-value evaluations.

    push keeps the rows it is given, which the caller must not change
    afterwards, and defers their conversion into the numpy ring to the
    next snapshots call; only the latest snapshot per ring slot is ever
    converted.
    """

    def __init__(self, n_actions: int, window: int):
        self._buf = np.zeros((window, N_STATES, n_actions))
        self._window = window
        self._pending: dict[int, list | np.ndarray] = {}  # slot -> unsynced rows
        self._count = 0

    def push(self, q):
        self._pending[self._count % self._window] = q
        self._count += 1

    @property
    def filled(self) -> int:
        return min(self._count, self._window)

    def snapshots(self) -> np.ndarray:
        """The filled ring slots, (filled, n_states, n_actions), in slot order."""
        for slot, q in self._pending.items():
            self._buf[slot] = q
        self._pending.clear()
        return self._buf[:self.filled]

    def largest_std(self) -> float:
        """Max over (state, action) of the std over the window, 0 if empty."""
        if self.filled == 0:
            return 0.0
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
        self.step_count = 0
        self.windows = QValueWindows(n_actions, hp.std_window)
        self.phase_reward_sum = 0.0
        self.phase_step_count = 0
        self.last_record: PhaseRecord | None = None
        self.update_records: list[UpdateRecord] | None = (
            [] if record_updates else None)

    def q_values(self) -> np.ndarray:
        raise NotImplementedError

    def _learn(self, action: int, next_state: int, r: float):
        raise NotImplementedError

    def step(self, action: int, next_state: int, r: float):
        self._learn(action, next_state, r)
        self.state = next_state
        self.step_count += 1
        self.phase_reward_sum += r
        self.phase_step_count += 1

    def _record_update(self, action: int):
        if self.update_records is not None:
            q = self.q_values()
            delta = self.hp.tolerance_multiplier * self.windows.largest_std()
            self.update_records.append(UpdateRecord(
                step=self.step_count + 1, action=action,
                q_s0=q[0].copy(), delta=delta))

    def update_policy(self, rng: np.random.Generator) -> PhaseRecord:
        """Best reply with inertia at a phase boundary."""
        q = self.q_values()
        if self.windows.filled == 0:
            warnings.warn("no Q evaluations recorded this phase; tolerance "
                          "falls back to 0", stacklevel=2)
            delta = 0.0
        else:
            delta = self.hp.tolerance_multiplier * self.windows.largest_std()
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
            mean_reward=(self.phase_reward_sum / self.phase_step_count
                         if self.phase_step_count else 0.0),
            changed=after != before,
            q_values=q.copy(),
            candidates=candidates,
        )
        self.last_record = record
        self.phase += 1
        if not self.hp.fixed_alpha:
            self.alpha /= self.hp.zeta
        self.phase_reward_sum = 0.0
        self.phase_step_count = 0
        return record


class DqlAgent(_AgentBase):
    """Network-backed learner: one gradient update per full mini-batch."""

    def __init__(self, hp, n_actions, rng, record_updates=False):
        super().__init__(hp, n_actions, rng, record_updates)
        self.params = init_mlp(rng, (N_STATES, 8, 18, n_actions),
                               cap=hp.activation_cap)
        self.target = TargetArray.from_params(self.params, hp.c)
        # pending mini-batch columns: states, next states, actions, rewards
        self.batch: tuple[list, list, list, list] = ([], [], [], [])
        self.updates = 0
        self.last_loss = 0.0

    def q_values(self) -> np.ndarray:
        return q_matrix(self.params)

    def _learn(self, action: int, next_state: int, r: float):
        states, next_states, actions, rewards = self.batch
        states.append(self.state)
        next_states.append(next_state)
        actions.append(action)
        rewards.append(r)
        if len(rewards) < self.hp.minibatch:
            return
        self.params, self.last_loss = train_minibatch(
            self.params, *self.batch, self.target, self.alpha, self.hp.gamma)
        self.updates += 1
        if self.updates % self.hp.c == 0:
            self.target = refresh_target(self.target, self.params,
                                         step=self.updates)
        self.windows.push(q_matrix(self.params))
        self._record_update(action)
        self.batch = ([], [], [], [])


class TableAgent(_AgentBase):
    """Table-backed learner: one in-place temporal-difference update per step."""

    def __init__(self, hp, n_actions, rng, record_updates=False):
        super().__init__(hp, n_actions, rng, record_updates)
        self.table = [[0.0] * n_actions for _ in range(N_STATES)]

    def q_values(self) -> np.ndarray:
        return np.array(self.table)

    def _learn(self, action: int, next_state: int, r: float):
        table_update(self.table, self.state, next_state, action, r,
                     self.alpha, self.hp.gamma)
        self.windows.push([row[:] for row in self.table])
        self._record_update(action)


def make_agents(kind: str, hp: AgentHyperparams, n_agents: int, n_actions: int,
                rngs, record_updates: bool = False):
    cls = {"dql": DqlAgent, "table": TableAgent}.get(kind)
    if cls is None:
        raise ValueError(f"unknown learner kind {kind!r}")
    return [cls(hp, n_actions, rngs[i], record_updates) for i in range(n_agents)]


def run_exploration_phase(agents, scenario: Scenario, rngs,
                          step_hook=None) -> list[PhaseRecord]:
    """One phase for all agents: frozen policies, one joint action per
    step, policy updates at the boundary.

    Each step's states and rewards are the row of the scenario's outcome
    tensor at the joint action's flat index; step_hook, if given, is
    called with the joint action and that index.
    """
    outcomes = scenario.outcomes
    states = outcomes.states.tolist()
    rewards = outcomes.rewards(scenario.config.reward_mode).tolist()
    n_actions = len(scenario.actions)
    length = agents[0].hp.phase_length
    policies = [ag.policy.tolist() for ag in agents]
    joint = [0] * len(agents)
    for _ in range(length):
        k = 0
        for i, ag in enumerate(agents):
            joint[i] = a = choose_action(ag.state, policies[i], ag.hp.rho,
                                         rngs[i], n_actions)
            k = k * n_actions + a
        step_states, step_rewards = states[k], rewards[k]
        for i, ag in enumerate(agents):
            ag.step(joint[i], step_states[i], step_rewards[i])
        if step_hook is not None:
            step_hook(tuple(joint), k)
    return [ag.update_policy(rngs[i]) for i, ag in enumerate(agents)]


@dataclass
class RunTrace:
    """Everything a finished run exposes for scoring and plotting."""

    agents: list
    phase_records: list[list[PhaseRecord]]   # [phase][agent]
    restart_rewards: list[float] = field(default_factory=list)

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
                 n_phases: int | None = None,
                 record_updates: bool = False,
                 step_hook=None) -> RunTrace:
    """Train all agents on one scenario for the configured phase count."""
    n_phases = hp.n_phases if n_phases is None else n_phases
    rngs = _spawn_rngs(seed_seq, scenario.n_cr)
    agents = make_agents(learner, hp, scenario.n_cr, len(scenario.actions),
                         rngs, record_updates)
    _sense_initial_state(agents, scenario)
    records = [
        run_exploration_phase(agents, scenario, rngs, step_hook=step_hook)
        for _ in range(n_phases)
    ]
    return RunTrace(agents=agents, phase_records=records)


def run_with_restarts(scenario: Scenario,
                      hp: AgentHyperparams,
                      seed_seq: np.random.SeedSequence,
                      learner: str = "dql",
                      n_restarts: int = 4,
                      probe_phases: int = 10,
                      record_updates: bool = False) -> RunTrace:
    """Multi-start add-on: several short probes, continue from the best.

    Each probe trains fresh randomly initialized agents for a few phases;
    the probe with the largest mean reward over its final phase is resumed
    for the remaining phases. With a single restart this reduces exactly
    to a plain run. Only the extra probes add learning steps, so the
    overhead is (n_restarts - 1) * probe_phases phases.
    """
    if hp.n_phases < probe_phases:
        raise ValueError("probe phases exceed the configured phase count")
    rngs = _spawn_rngs(seed_seq, scenario.n_cr)

    probes = []
    probe_rewards = []
    for _ in range(n_restarts):
        agents = make_agents(learner, hp, scenario.n_cr, len(scenario.actions),
                             rngs, record_updates)
        _sense_initial_state(agents, scenario)
        records = [run_exploration_phase(agents, scenario, rngs)
                   for _ in range(probe_phases)]
        final_reward = float(np.mean([r.mean_reward for r in records[-1]]))
        probes.append((copy.deepcopy(agents), records))
        probe_rewards.append(final_reward)

    best = int(np.argmax(probe_rewards))
    agents, records = probes[best]
    for _ in range(hp.n_phases - probe_phases):
        records.append(run_exploration_phase(agents, scenario, rngs))
    return RunTrace(agents=agents, phase_records=records,
                    restart_rewards=probe_rewards)
