"""Interchangeable Q-value backends.

Two estimators share the 2-state x n-action interface: a lookup table
updated in place by the standard temporal-difference rule, and a small
fully-connected network trained by plain gradient descent on the squared
Bellman error against a frozen target array. The table is two lists of
plain floats, so one update costs a few scalar operations. The target
array replaces a second network: it is a plain matrix of Q-values
refreshed from the live parameters every ``c`` updates. There is
deliberately no replay memory; a mini-batch arrives as four columns
(states, next states, actions, rewards) in arrival order and is
discarded after its one gradient step.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "N_STATES",
    "MlpParams",
    "TargetArray",
    "table_update",
    "init_mlp",
    "forward",
    "q_matrix",
    "train_minibatch",
    "refresh_target",
]

N_STATES = 2
DEFAULT_LAYER_SIZES = (N_STATES, 8, 18, 14)
DEFAULT_ACTIVATION_CAP = 20.0


def table_update(q: list[list[float]], state: int, next_state: int,
                 action: int, reward: float, alpha: float, gamma: float):
    """One temporal-difference update of q[state][action], in place.

    Q(s,a) <- Q(s,a) + alpha * [r + gamma * max_a' Q(s',a') - Q(s,a)]

    q holds one list of floats per state; every other entry is untouched.
    Raises ValueError on rates out of range, a negative reward or a
    non-finite result, leaving q unchanged.
    """
    if not (0.0 <= alpha <= 1.0 and 0.0 < gamma <= 1.0):
        raise ValueError("alpha in [0,1] and gamma in (0,1] required")
    if reward < 0.0:
        raise ValueError("rewards are nonnegative by construction")
    row = q[state]
    value = row[action] + alpha * (reward + gamma * max(q[next_state])
                                   - row[action])
    if not math.isfinite(value):
        raise ValueError("table entries must be finite")
    row[action] = value


@dataclass(frozen=True)
class MlpParams:
    """Weights of the feed-forward approximator.

    Hidden layers use a saturated ReLU clamped to [0, cap]; the output
    layer is linear. weights[k] has shape (fan_in, fan_out).
    """

    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]
    cap: float = DEFAULT_ACTIVATION_CAP

    def __post_init__(self):
        for w, b in zip(self.weights, self.biases):
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise ValueError("parameters must be finite")
            if w.shape[1] != b.shape[0]:
                raise ValueError("bias length must match layer width")
        if self.cap <= 0:
            raise ValueError("activation cap must be positive")

    @property
    def layer_sizes(self) -> tuple[int, ...]:
        return (self.weights[0].shape[0],) + tuple(w.shape[1] for w in self.weights)

    @property
    def n_actions(self) -> int:
        return self.weights[-1].shape[1]

    def to_json(self) -> str:
        return json.dumps({
            "layer_sizes": list(self.layer_sizes),
            "weights": [w.ravel().tolist() for w in self.weights],
            "biases": [b.tolist() for b in self.biases],
            "cap": self.cap,
        })

    @staticmethod
    def from_json(text: str) -> "MlpParams":
        doc = json.loads(text)
        sizes = doc["layer_sizes"]
        weights = tuple(
            np.asarray(flat, dtype=float).reshape(sizes[k], sizes[k + 1])
            for k, flat in enumerate(doc["weights"])
        )
        biases = tuple(np.asarray(b, dtype=float) for b in doc["biases"])
        return MlpParams(weights, biases, cap=float(doc["cap"]))


def init_mlp(rng: np.random.Generator,
             layer_sizes: tuple[int, ...] = DEFAULT_LAYER_SIZES,
             cap: float = DEFAULT_ACTIVATION_CAP) -> MlpParams:
    """Fresh parameters, every weight and bias uniform on [0, 1)."""
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        weights.append(rng.uniform(0.0, 1.0, size=(fan_in, fan_out)))
        biases.append(rng.uniform(0.0, 1.0, size=fan_out))
    return MlpParams(tuple(weights), tuple(biases), cap=cap)


def _one_hot(states) -> np.ndarray:
    return np.eye(N_STATES)[np.asarray(states, dtype=int)]


def _forward_full(params: MlpParams, x: np.ndarray):
    """Forward pass keeping pre-activations for backprop."""
    pre, post = [], [x]
    h = x
    n_layers = len(params.weights)
    for k, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = h @ w + b
        pre.append(z)
        h = z if k == n_layers - 1 else np.clip(z, 0.0, params.cap)
        post.append(h)
    return pre, post


def forward(params: MlpParams, state_onehot) -> np.ndarray:
    """Q-values for one one-hot encoded state."""
    x = np.asarray(state_onehot, dtype=float)
    if x.shape != (N_STATES,):
        raise ValueError(f"expected a one-hot vector of length {N_STATES}")
    _, post = _forward_full(params, x[None, :])
    return post[-1][0]


def q_matrix(params: MlpParams) -> np.ndarray:
    """(n_states, n_actions) matrix of current Q estimates."""
    _, post = _forward_full(params, np.eye(N_STATES))
    return post[-1]


@dataclass(frozen=True)
class TargetArray:
    """Frozen Q-values used to form training targets.

    Only refreshed on multiples of the refresh period, never trained.
    """

    values: np.ndarray
    refresh_period: int = 50

    def __post_init__(self):
        if self.refresh_period < 1:
            raise ValueError("refresh period must be >= 1")

    def max_next(self, next_states) -> np.ndarray:
        return self.values[np.asarray(next_states, dtype=int)].max(axis=1)

    @staticmethod
    def from_params(params: MlpParams, refresh_period: int) -> "TargetArray":
        return TargetArray(q_matrix(params), refresh_period)


def refresh_target(target: TargetArray, params: MlpParams,
                   step: int | None = None) -> TargetArray:
    """Copy the live Q-values into the target array.

    When the caller supplies its update counter the refresh schedule is
    enforced: an off-schedule refresh raises ValueError.
    """
    if step is not None and step % target.refresh_period != 0:
        raise ValueError(f"target refresh at update {step} is off the "
                         f"every-{target.refresh_period} schedule")
    return replace(target, values=q_matrix(params))


def train_minibatch(params: MlpParams,
                    states, next_states, actions, rewards,
                    target: TargetArray,
                    alpha: float,
                    gamma: float) -> tuple[MlpParams, float]:
    """One gradient-descent step on the mean squared Bellman error.

    The mini-batch is four equal-length columns: states, next states,
    actions and rewards. Per sample the target is
    r + gamma * max_a target[s', a]; the loss is the batch mean of
    0.5 * (target - Q(s, a))^2. Returns the updated parameters and that
    loss. Deterministic in its inputs.
    """
    states = np.asarray(states, dtype=int)
    next_states = np.asarray(next_states, dtype=int)
    actions = np.asarray(actions, dtype=int)
    rewards = np.asarray(rewards, dtype=float)
    b = len(states)
    if b == 0:
        raise ValueError("empty mini-batch")
    if not len(next_states) == len(actions) == len(rewards) == b:
        raise ValueError("mini-batch columns differ in length")
    if not (np.isfinite(rewards).all() and (rewards >= 0.0).all()):
        raise ValueError("rewards must be finite and nonnegative")
    if alpha <= 0:
        raise ValueError("learning rate must be positive")

    x = _one_hot(states)
    y = rewards + gamma * target.max_next(next_states)

    pre, post = _forward_full(params, x)
    out = post[-1]
    err = out[np.arange(b), actions] - y
    loss = float(0.5 * np.mean(err ** 2))

    d_out = np.zeros_like(out)
    d_out[np.arange(b), actions] = err / b

    grad_w = [None] * len(params.weights)
    grad_b = [None] * len(params.biases)
    delta = d_out
    for k in range(len(params.weights) - 1, -1, -1):
        grad_w[k] = post[k].T @ delta
        grad_b[k] = delta.sum(axis=0)
        if k > 0:
            delta = delta @ params.weights[k].T
            # saturated ReLU: zero subgradient outside (0, cap)
            z = pre[k - 1]
            delta = delta * ((z > 0.0) & (z < params.cap))

    new_w, new_b = [], []
    for w, bb, gw, gb in zip(params.weights, params.biases, grad_w, grad_b):
        if not (np.all(np.isfinite(gw)) and np.all(np.isfinite(gb))):
            raise FloatingPointError(
                f"non-finite gradient (loss={loss!r}, "
                f"max|err|={np.max(np.abs(err))!r}); "
                "training has diverged")
        new_w.append(w - alpha * gw)
        new_b.append(bb - alpha * gb)
    return replace(params, weights=tuple(new_w), biases=tuple(new_b)), loss
