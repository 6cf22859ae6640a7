"""Ground truth by brute force.

The joint action space is small (|A|^N), so the best joint assignment is
an argmax over the scenario's outcome tensor, which holds the same
rewards the learners see. The search keeps the full value table and the
set of joint actions within a small relative gap of the best, which
captures the nearly-tied swapped-action optima that occur at low SINR.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .environment import Scenario

__all__ = ["OracleResult", "exhaustive_search", "score_policy"]

NEAR_OPTIMAL_GAP = 0.01


@dataclass(frozen=True)
class OracleResult:
    """Outcome of one exhaustive search."""

    best_joint_action: tuple[int, ...]
    best_reward: float
    reward_table: np.ndarray          # flat, lexicographic in the joint action
    near_optimal: tuple[tuple[int, ...], ...]
    tau: float
    n_actions: int

    def flat_index(self, joint_action) -> int:
        """Row of joint_action in reward_table. Raises ValueError unless it
        holds one action in [0, n_actions) per agent."""
        if len(joint_action) != len(self.best_joint_action):
            raise ValueError(f"joint action {tuple(joint_action)} does not hold "
                             f"{len(self.best_joint_action)} actions")
        idx = 0
        for a in joint_action:
            if not 0 <= int(a) < self.n_actions:
                raise ValueError(f"joint action {tuple(joint_action)} has an "
                                 f"action outside [0, {self.n_actions})")
            idx = idx * self.n_actions + int(a)
        return idx

    def reward_of(self, joint_action) -> float:
        return float(self.reward_table[self.flat_index(joint_action)])

    @property
    def degenerate(self) -> str | None:
        """The kind of degenerate scenario, or None: "tied" when every
        joint action scores the best reward, "all_off" when otherwise no
        joint action scores above all-off (flat index 0; 1 under the
        global reward, N under the local one)."""
        if self.reward_table.min() == self.best_reward:
            return "tied"
        if self.best_reward <= self.reward_table[0]:
            return "all_off"
        return None

    def to_json(self) -> str:
        return json.dumps({
            "best_joint_action": list(self.best_joint_action),
            "best_reward": self.best_reward,
            "near_optimal": [list(ja) for ja in self.near_optimal],
            "tau": self.tau,
            "n_actions": self.n_actions,
            "reward_table": self.reward_table.tolist(),
        }, indent=2)


def exhaustive_search(scenario: Scenario,
                      reward_mode: str | None = None,
                      tau: float = NEAR_OPTIMAL_GAP) -> OracleResult:
    """Score every joint action; ties go to the lowest joint index.

    A joint action scores 0 unless every agent is in S0. Otherwise the
    global mode scores 10^(sum of throughputs) and the local mode the sum
    of the individual 10^throughput terms.
    """
    mode = reward_mode or scenario.config.reward_mode
    outcomes = scenario.outcomes
    rewards = outcomes.rewards(mode)
    # with every agent in S0 the global reward is the same for all agents
    score = rewards[:, 0] if mode == "global" else rewards.sum(axis=1)
    # joint state 0: every agent in S0
    table = np.where(outcomes.joint_states == 0, score, 0.0)

    best_idx = int(np.argmax(table))      # first max = lowest joint index
    best = float(table[best_idx])
    near = np.flatnonzero(table >= best * (1.0 - tau))
    shape = (len(scenario.actions),) * scenario.n_cr
    return OracleResult(
        best_joint_action=tuple(map(int, np.unravel_index(best_idx, shape))),
        best_reward=best,
        reward_table=table,
        near_optimal=tuple(zip(*(a.tolist() for a in np.unravel_index(near, shape)))),
        tau=tau,
        n_actions=shape[0],
    )


def score_policy(joint_policy, oracle: OracleResult) -> str:
    """Classify a learned S0 joint policy against the oracle.

    "optimal" means exact agreement with the best joint action,
    "near_optimal" a reward within the tau gap, anything else
    "suboptimal".
    """
    joint = tuple(int(a) for a in joint_policy)
    if joint == oracle.best_joint_action:
        return "optimal"
    if oracle.reward_of(joint) >= oracle.best_reward * (1.0 - oracle.tau):
        return "near_optimal"
    return "suboptimal"
