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
trajectory is then walked once through the outcome tensor, step by step
only where an agent explores (``_walk_phase``), which gives four (N, L)
columns: states, next states, actions and rewards. Finally the agents
learn from the columns, and both learners push all N Q matrices to the
window ring at once, in lockstep. The table learners apply, per agent,
the updates whose snapshots cannot reach the phase boundary's ring in
one in-place temporal-difference pass, which takes each run of equal
consecutive updates as one entry and its length (``table_update``'s
``counts``). A second pass per agent applies the last ``std_window``
steps (every step, when updates are recorded) one entry each and
collects the value each wrote; the tables after each of those steps
are then rebuilt at once from those values and pushed in step order.
The phase's mean rewards add each agent's rewards left to right, one
addition per step. The networks form one stacked block. The agents
share the phase length, mini-batch size, step size and target-refresh
period, so the phase is set up once for all of them and each update is
one gradient step of the block, the step ``train_minibatch`` takes, in
which every network steps on its own next mini-batch, bit for bit as it
would alone. A step sums each network's errors per (state, action) and
backpropagates the two state rows of the sums, which equals the
per-sample gradient to rounding (see ``qfunc``). Unlike the tables, a
DQL phase is a whole number of mini-batches, so each gradient step
learns from its own phase's columns, under one joint policy and one
step size. The updates between two target refreshes run unchecked and
are checked once, and every update's Q matrices are kept; the phase
then pushes the last ``std_window`` of them (every one, when updates
are recorded) and counts the others as skipped pushes, as the tables
do. The first update at which any network diverges ends the run
with that update's error, the one of its lowest-index diverging network,
as agents stepping together through the phase would.
"""

from __future__ import annotations

import math
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
    minibatch: int = 25             # DQL: steps per gradient update; divides phase_length
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
        # written so that NaN fails too
        if not self.zeta >= 1.0:
            raise ValueError("zeta must be >= 1")
        if not all(x > 0 for x in (
                self.phase_length, self.n_phases, self.alpha0, self.c,
                self.minibatch, self.tolerance_multiplier, self.std_window,
                self.activation_cap)):
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

    def extend(self, qs):
        """Store each of the stacked Q matrices qs, at most ``window`` of
        them, in order, as push does."""
        self._buf[(self._count + np.arange(len(qs))) % self._window] = qs
        self._count += len(qs)

    def skip(self, n: int):
        """Count n pushes without storing them. At least ``window`` pushes
        must follow before the next snapshots call, so that none of the
        skipped slots is read. Both learners count a phase's updates this
        way, all but the last ``window``, unless every update is
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
    """What one agent did at one phase boundary. A network-backed agent
    also records ``live_units``, its hidden units whose pre-activation lies
    inside (0, cap) for either state, and ``state_blind``, whether its Q
    matrix has equal rows for the two states; they are None for a table
    and then absent from to_jsonable."""

    phase: int
    policy_before: tuple[int, ...]
    policy_after: tuple[int, ...]
    delta: float
    mean_reward: float
    changed: bool
    q_values: np.ndarray                        # (n_states, n_actions)
    candidates: tuple[tuple[int, ...], ...]
    live_units: int | None = None
    state_blind: bool | None = None

    def to_jsonable(self) -> dict:
        doc = {
            "phase": self.phase,
            "policy_before": list(self.policy_before),
            "policy_after": list(self.policy_after),
            "delta": self.delta,
            "mean_reward": self.mean_reward,
            "changed": self.changed,
            "q_values": self.q_values.tolist(),
            "candidates": [list(c) for c in self.candidates],
        }
        if self.live_units is not None:
            doc.update(live_units=self.live_units, state_blind=self.state_blind)
        return doc


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

    def _push_all(self, snapshots, steps, actions):
        """Push the Q matrices of consecutive updates in order, snapshots[t]
        after the update at steps[t], at which agent i played actions[i, t],
        as _push does. Unless updates are recorded, only the last
        ``std_window`` are stored, at once, and the others counted as
        skipped pushes: the ring holds no more."""
        if self.update_records is None:
            kept = snapshots[-self.hp.std_window:]
            self.windows.skip(len(snapshots) - len(kept))
            self.windows.extend(kept)
            return
        for step, q, played in zip(steps, snapshots, actions.T.tolist()):
            self._push(q, step, played)

    def update_policy(self, rngs, mean_rewards) -> list[PhaseRecord]:
        """Best reply with inertia at a phase boundary, agent i drawing from
        rngs[i]; agent i's record keeps its phase's mean_rewards[i].

        Raises FloatingPointError when an agent's Q-value spread over the
        window is not finite: training has diverged. The error gives the
        spread of the lowest-index such agent.
        """
        q = self.q_values()
        fields = self._record_fields()
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
                **fields[i],
            ))
        self.phase += 1
        self.alpha /= self.hp.zeta
        return records

    def _record_fields(self) -> list[dict]:
        """Per agent, the learner's own PhaseRecord fields, read after
        q_values()."""
        return [{} for _ in self.policies]


class DqlAgents(_AgentBase):
    """Network-backed learners: one gradient update per mini-batch, every
    agent's network stepping in lockstep in one stacked block. A phase is
    phase_length // minibatch updates; a phase_length that minibatch does
    not divide raises ValueError."""

    def __init__(self, hp, n_actions, rngs, record_updates=False):
        if hp.phase_length % hp.minibatch:
            raise ValueError("a DQL phase_length must be a multiple of minibatch")
        super().__init__(hp, n_actions, rngs, record_updates)
        # each generator draws its agent's policy, then its network
        self.params = init_mlp(rngs, n_actions, hp.activation_cap)
        # per network and state, the maximum of the frozen target Q-values
        self.target_max = q_matrix(self.params).max(axis=2)
        self.updates = 0

    def q_values(self) -> np.ndarray:
        return q_matrix(self.params)

    def _record_fields(self) -> list[dict]:
        """live_units and state_blind of each network, from the masks and
        Q matrices of the two-state pass that q_values() read."""
        activations, masks = self.params._two_state_pass()
        live = sum(mask.any(axis=1).sum(axis=1) for mask in masks).tolist()
        q = activations[-1]
        blind = (q[:, 0] == q[:, 1]).all(axis=1).tolist()
        return [dict(live_units=units, state_blind=same)
                for units, same in zip(live, blind)]

    def learn_phase(self, columns):
        """Train the stacked networks in lockstep: update u trains every
        network on its own u-th mini-batch of the phase. The phase's set-up
        is done once (qfunc._Descent), and the targets once per target
        refresh. The updates between refreshes run as one unchecked run,
        and the networks are checked once after it (see _Descent.finite);
        a run that fails is replayed one checked update at a time, so the
        first update whose step diverges raises its error and leaves the
        networks and target maxima as the update before it left them. The
        updates that completed then push their snapshots, in order; unless
        updates are recorded, only the last ``std_window`` of them are
        stored and the others counted as skipped pushes."""
        hp = self.hp
        size = hp.minibatch
        n_updates = hp.phase_length // size
        descent = _Descent(self.params, *columns, n_updates, self.alpha, hp.gamma)
        first = self.updates
        try:
            # diverging networks overflow; a checked update raises
            with np.errstate(over="ignore", invalid="ignore"):
                while descent.done < n_updates:
                    start = descent.done
                    stop = min(start + hp.c - (first + start) % hp.c, n_updates)
                    targets = descent.targets(self.target_max, start, stop)
                    descent.run(targets)
                    if not descent.finite():
                        descent.rewind()
                        for y in targets:
                            descent.check(descent.run(y[None]))
                    if (first + stop) % hp.c == 0:
                        self.target_max = descent.q.max(axis=2)
        finally:
            done = descent.done
            self.updates = first + done
            self.params = descent.params()
            # an update is numbered by the step of its mini-batch's last entry
            step = self.phase * hp.phase_length + size
            self._push_all(descent.snapshots[1:done + 1],
                           range(step, step + done * size, size),
                           columns[2][:, size - 1::size])


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
        """Update every table in place, in step order, and push the
        tables after each of the phase's last ``std_window`` steps, or
        after every step when updates are recorded.

        Each agent learns in two table_update calls. The steps whose
        snapshots cannot reach the phase boundary's ring (the bulk) are
        applied first, each run of equal consecutive updates (rewards
        compared by their bits) as one entry and its length, and counted
        as skipped pushes. The remaining steps (the tail) are applied one
        entry each, collecting the value each step wrote. Snapshot t of
        the tail then holds, per table cell, the value of the cell's last
        write at or before step t, or the cell's pre-tail value, which is
        the table as it stood after step t. A ValueError from either call
        leaves the tables as table_update leaves them and pushes none of
        the tail.
        """
        hp = self.hp
        n_agents, n = columns[3].shape
        bulk = max(n - hp.std_window, 0) if self.update_records is None else 0
        if bulk:
            starts = np.zeros((n_agents, bulk), dtype=bool)
            starts[:, 0] = True
            for c in (*columns[:3], columns[3].view(np.int64)):
                starts[:, 1:] |= c[:, 1:bulk] != c[:, :bulk - 1]
            for i, table in enumerate(self.tables):
                heads = np.flatnonzero(starts[i])
                table_update(table, *(c[i, heads].tolist() for c in columns),
                             self.alpha, hp.gamma,
                             counts=np.diff(heads, append=bulk).tolist())
        self.windows.skip(bulk)
        tail = [c[:, bulk:] for c in columns]
        n_actions = len(self.tables[0][0])
        # values[i]: agent i's cells (cell s * n_actions + a) before the
        # tail, then the value each tail step wrote
        values = [[v for row in table for v in row] for table in self.tables]
        width = len(values[0])
        for i, table in enumerate(self.tables):
            table_update(table, *(c[i].tolist() for c in tail), self.alpha,
                         hp.gamma, written=values[i])
        # source[t, i, cell]: the index in values[i] of the cell's value
        # after tail step t; a running maximum over t keeps its last write
        steps = np.arange(n - bulk)
        source = np.tile(np.arange(width), (len(steps), n_agents, 1))
        source[steps[:, None], np.arange(n_agents),
               (tail[0] * n_actions + tail[2]).T] = width + steps[:, None]
        np.maximum.accumulate(source, axis=0, out=source)
        snapshots = np.array(values)[np.arange(n_agents)[:, None], source]
        snapshots = snapshots.reshape(len(steps), n_agents, N_STATES, n_actions)
        first = self.phase * hp.phase_length + bulk + 1
        self._push_all(snapshots, range(first, first + len(steps)), tail[2])


def make_agents(kind: str, hp: AgentHyperparams, n_actions: int, rngs,
                record_updates: bool = False) -> _AgentBase:
    """The agents of one run, one per generator in rngs."""
    cls = {"dql": DqlAgents, "table": TableAgents}.get(kind)
    if cls is None:
        raise ValueError(f"unknown learner kind {kind!r}")
    return cls(hp, n_actions, rngs, record_updates)


def _walk_phase(policies: np.ndarray, states, draws: np.ndarray,
                joint_states: np.ndarray, rewards: np.ndarray,
                n_actions: int):
    """The phase's joint trajectory under the frozen policies.

    policies is (N, 2), states the N agents' states at the phase start,
    and row i of the (N, L) draws agent i's phase_draws result.
    joint_states and rewards are the outcome tensor's (K,) joint-state
    column and (K, N) rewards, row k the joint action with flat index k.
    Returns four (N, L) columns, row i agent i's: states, next states,
    actions and rewards. The walk follows the joint state (agent i's state
    in bit N-1-i), which joint_states maps each joint action to. On a step
    where no agent explores, it moves by f0, the frozen policies' map over
    the 2^N joint states, so only the exploring steps
    (a share 1 - (1 - rho)^N of them) are walked one by one. For each of
    them and each joint state, the joint action and the joint state at
    the next exploring step are found at once, which leaves one lookup
    per exploring step, in order, on one flat list. Then every step's
    joint state is gathered at once from f0's iterates, counted from the
    state its stretch of non-exploring steps started in. A trajectory of
    f0 is on its cycle after 2^N steps, so a longer stretch is reduced
    modulo that cycle's length, and the iterates are tabulated once per
    phase up to 2 * 2^N steps, however long a stretch is (with rho = 0
    one stretch spans the whole phase). The actions follow from the joint
    states, and the next states and rewards from the joint actions' flat
    indices in one gather each.
    """
    n, length = draws.shape
    width = 2 ** n
    shifts = np.arange(n - 1, -1, -1)
    place = n_actions ** shifts                    # joint index = actions @ place
    bits = (np.arange(width)[:, None] >> shifts) & 1          # (2^n, n)
    f0 = joint_states[(policies[np.arange(n), bits] * place).sum(axis=1)]
    # iterates[k, j] = f0^k(j) for k <= 2 * 2^n. From any j, f0 enters its
    # cycle within 2^n steps, so f0^k(j) = f0^k'(j) for k' =
    # 2^n + (k - 2^n) mod cycle[j], the cycle's length, once k >= 2^n.
    iterates = np.empty((2 * width + 1, width), dtype=np.int64)
    iterates[0] = np.arange(width)
    for k in range(1, len(iterates)):
        iterates[k] = f0[iterates[k - 1]]
    cycle = (iterates[width + 1:] == iterates[width]).argmax(axis=0) + 1

    def follow(k, start):
        """f0^k(start), elementwise."""
        return iterates[np.minimum(k, width + (k - width) % cycle[start]), start]

    explores = (draws >= 0).any(axis=0)
    steps = np.flatnonzero(explores)                # the exploring steps
    # explore_actions[i, e, s]: agent i's action at exploring step e when
    # in state s
    explore_actions = np.repeat(policies[:, None, :], len(steps), axis=1)
    np.copyto(explore_actions, draws[:, steps, None],
              where=draws[:, steps, None] >= 0)
    joint_index = np.zeros((len(steps), width), dtype=np.int64)
    for i in range(n):
        joint_index = joint_index * n_actions + explore_actions[i][:, bits[:, i]]
    after = joint_states[joint_index]
    # Exploring step e's joint state j is at position e * 2^n + j of one
    # flat list; the entry there is the position of exploring step e+1's.
    jumps = (follow((np.diff(steps) - 1)[:, None], after[:-1])
             + np.arange(width, len(steps) * width, width)[:, None]).ravel().tolist()
    start = sum(state << int(shift) for state, shift in zip(states, shifts))
    visited = follow(steps[:1], start).tolist()
    for _ in range(len(steps) - 1):
        visited.append(jumps[visited[-1]])
    path = np.array(visited, dtype=np.int64) - np.arange(len(steps)) * width
    # every step's joint state, from the state its stretch started in: the
    # phase's first, or the one after the exploring step before it
    stretch = np.cumsum(explores) - explores
    begin = np.concatenate(([0], steps + 1))[stretch]
    origin = np.concatenate(([start], after[np.arange(len(steps)), path]))[stretch]
    joint = follow(np.arange(length) - begin, origin)
    own = (joint >> shifts[:, None]) & 1
    actions = np.where(draws >= 0, draws, policies[np.arange(n)[:, None], own])
    k = place @ actions
    # take() gathers faster than fancy indexing on these arrays
    return (own, (joint_states.take(k) >> shifts[:, None]) & 1, actions,
            rewards.take(k, axis=0).T)


def run_exploration_phase(agents: _AgentBase, scenario: Scenario,
                          rngs) -> list[PhaseRecord]:
    """One phase for all agents: frozen policies, one joint action per
    step, policy updates at the boundary. Returns agent i's record at
    index i.

    Each step's next states (the bits of the joint state) and rewards are
    the outcome tensor's at the joint action's flat index (see
    _walk_phase). Agent i's record keeps the mean of its phase's rewards,
    added left to right.
    """
    hp, outcomes = agents.hp, scenario.outcomes
    n_actions = len(scenario.actions)
    draws = np.stack([phase_draws(rng, hp.phase_length, hp.rho, n_actions)
                      for rng in rngs])
    columns = _walk_phase(agents.policies, agents.states, draws,
                          outcomes.joint_states,
                          outcomes.rewards(scenario.config.reward_mode), n_actions)
    agents.learn_phase(columns)
    agents.states = columns[1][:, -1].tolist()
    # each mean adds its rewards left to right, one addition per step, as
    # np.add.accumulate does (np.sum adds pairwise, and sum() compensates
    # float sums from Python 3.12 on)
    rewards = columns[3]
    means = (np.cumsum(rewards, axis=1)[:, -1] / rewards.shape[1]).tolist()
    return agents.update_policy(rngs, means)


@dataclass
class RunTrace:
    """Everything a finished run exposes for scoring and plotting."""

    agents: _AgentBase
    phase_records: list[list[PhaseRecord]]   # [phase][agent]

    def joint_policy(self) -> tuple[int, ...]:
        """Every agent's action in S0."""
        return tuple(self.agents.policies[:, 0].tolist())


def run_learning(scenario: Scenario,
                 hp: AgentHyperparams,
                 seed_seq: np.random.SeedSequence,
                 learner: str = "dql",
                 record_updates: bool = False) -> RunTrace:
    """Train all agents on one scenario: one uncoordinated run of
    ``hp.n_phases`` exploration phases from the state every agent is in
    under the all-off joint action."""
    rngs = [np.random.default_rng(s) for s in seed_seq.spawn(scenario.n_cr)]
    agents = make_agents(learner, hp, len(scenario.actions), rngs, record_updates)
    # the all-off joint action is flat index 0; agent i's state is bit N-1-i
    start = int(scenario.outcomes.joint_states[0])
    agents.states = [start >> (scenario.n_cr - 1 - i) & 1
                     for i in range(scenario.n_cr)]
    records = [run_exploration_phase(agents, scenario, rngs)
               for _ in range(hp.n_phases)]
    return RunTrace(agents=agents, phase_records=records)
