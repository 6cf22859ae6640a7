"""Interchangeable Q-value backends.

Two estimators share the 2-state x n-action interface: a lookup table
updated in place by the standard temporal-difference rule, and a small
fully-connected network trained by plain gradient descent on the squared
Bellman error against frozen target values. Both learn from the same
four columns (states, next states, actions, rewards) in arrival order:
the table takes any run of them in one call, one in-place update per
entry on two lists of plain floats; the network takes one mini-batch of
them per gradient step and discards it afterwards. There is deliberately
no replay memory. In place of a second network, training reads the
per-state maximum of frozen target Q-values, which the learner refreshes
from the live parameters every ``c`` updates.

The network's weights and biases live in one flat float64 vector, layer
by layer (weights, then biases); ``MlpParams.weights`` and ``biases`` are
reshaped views of it. The network only ever sees the two one-hot states,
so each parameter set runs its forward pass once, on ``eye(2)``, and
caches the activations and saturated-ReLU masks of both states
read-only. ``q_matrix`` is a lookup in that cache, and
``train_minibatch`` gathers its batch rows from it instead of running the
forward pass on the batch. The backward matmuls still run over all batch
rows, the gradient fills one flat buffer, and the update is one
subtraction and one finiteness check on the flat vector.

Training is bit-identical to running the forward pass over the batch's
one-hot rows, as the per-sample formulation does: each such row equals
the matching row of ``eye(2)``, and the matrix products compute every
output row from its own input row alone, in the same order for a 2-row
as for a 25-row input. That last property belongs to the BLAS build and
the layer shapes. It holds on OpenBLAS 0.3.31 (AVX-512 kernels) for the
learner's (2, 8, 18, 14) network and batches of 2 to 200 rows, and
tests/test_qfunc.py pins it. On that build it fails for a 2- or 3-wide
output layer. It also fails for a 1-row input, which numpy multiplies as a
matrix-vector product, so a 1-row mini-batch may differ from a per-sample
pass in the last bit. Every configured mini-batch has 25 rows.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "N_STATES",
    "MlpParams",
    "table_update",
    "init_mlp",
    "q_matrix",
    "train_minibatch",
]

N_STATES = 2
DEFAULT_LAYER_SIZES = (N_STATES, 8, 18, 14)
DEFAULT_ACTIVATION_CAP = 20.0

# One-hot encodings of the states, row s for state s.
_STATES_ONE_HOT = np.eye(N_STATES)
_STATES_ONE_HOT.flags.writeable = False


def table_update(q: list[list[float]], states, next_states, actions, rewards,
                 alpha: float, gamma: float) -> None:
    """Temporal-difference updates of q, in place, one per column entry.

    Q(s,a) <- Q(s,a) + alpha * [r + gamma * max_a' Q(s',a') - Q(s,a)]

    The updates are four equal-length columns, applied in order: states,
    next states, actions and rewards, as train_minibatch takes them. q
    holds one list of floats per state; only the updated entries change.
    Raises ValueError on rates out of range or columns of unequal length,
    leaving q unchanged, and on a negative reward or a non-finite result,
    leaving that update's entry unwritten.
    """
    if not (0.0 <= alpha <= 1.0 and 0.0 < gamma <= 1.0):
        raise ValueError("alpha in [0,1] and gamma in (0,1] required")
    if not len(states) == len(next_states) == len(actions) == len(rewards):
        raise ValueError("update columns differ in length")
    isfinite = math.isfinite
    for state, next_state, action, reward in zip(states, next_states, actions,
                                                 rewards):
        if reward < 0.0:
            raise ValueError("rewards are nonnegative by construction")
        row = q[state]
        old = row[action]
        value = old + alpha * (reward + gamma * max(q[next_state]) - old)
        if not isfinite(value):
            raise ValueError("table entries must be finite")
        row[action] = value


def _layer_views(flat: np.ndarray, layer_sizes: tuple[int, ...]):
    """(weights, biases) of the flat layout, as views of ``flat``."""
    weights, biases, start = [], [], 0
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        stop = start + fan_in * fan_out
        weights.append(flat[start:stop].reshape(fan_in, fan_out))
        biases.append(flat[stop:stop + fan_out])
        start = stop + fan_out
    return tuple(weights), tuple(biases)


class MlpParams:
    """Weights of the feed-forward approximator.

    Hidden layers use a saturated ReLU clamped to [0, cap]; the output
    layer is linear. weights[k], of shape (fan_in, fan_out), and
    biases[k] are views of ``flat`` in the layout of ``layer_sizes``. The
    constructor trusts its arguments; ``from_layers`` checks them. The
    two-state forward pass is computed on first use and cached, so a
    parameter set must not be modified after that; training returns a
    new one.
    """

    def __init__(self, flat: np.ndarray, layer_sizes: tuple[int, ...], cap: float):
        self.flat = flat
        self.layer_sizes = layer_sizes
        self.cap = cap
        self.weights, self.biases = _layer_views(flat, layer_sizes)
        self._two_state = None

    @classmethod
    def from_layers(cls, weights, biases,
                    cap: float = DEFAULT_ACTIVATION_CAP) -> "MlpParams":
        """Parameters copied from per-layer arrays, after checking that they
        are finite, that the layers chain and that cap is positive."""
        if len(weights) != len(biases):
            raise ValueError("one bias vector per weight matrix required")
        for k, (w, b) in enumerate(zip(weights, biases)):
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise ValueError("parameters must be finite")
            if w.shape[1] != b.shape[0]:
                raise ValueError("bias length must match layer width")
            if k and w.shape[0] != weights[k - 1].shape[1]:
                raise ValueError("layer fan-in must match the previous width")
        if cap <= 0:
            raise ValueError("activation cap must be positive")
        sizes = (weights[0].shape[0],) + tuple(w.shape[1] for w in weights)
        flat = np.concatenate([np.ravel(a) for layer in zip(weights, biases)
                               for a in layer], dtype=float)
        return cls(flat, sizes, cap)

    def __reduce__(self):
        return MlpParams, (self.flat, self.layer_sizes, self.cap)

    @property
    def n_actions(self) -> int:
        return self.layer_sizes[-1]

    def _two_state_pass(self):
        """Cached forward pass on eye(2): (activations, masks), read-only.

        activations[k] is the input to layer k for states 0 and 1 (so
        activations[0] is eye(2) and activations[-1] the Q matrix);
        masks[k] is 1.0 where hidden layer k's pre-activation lies inside
        (0, cap), else 0.0.
        """
        if self._two_state is None:
            with np.errstate(over="ignore", invalid="ignore"):
                pre, post = _forward_full(self, _STATES_ONE_HOT)
                masks = [((z > 0.0) & (z < self.cap)).astype(float)
                         for z in pre[:-1]]
            for a in post[1:] + masks:
                a.flags.writeable = False
            self._two_state = (tuple(post), tuple(masks))
        return self._two_state


def init_mlp(rng: np.random.Generator,
             layer_sizes: tuple[int, ...] = DEFAULT_LAYER_SIZES,
             cap: float = DEFAULT_ACTIVATION_CAP) -> MlpParams:
    """Fresh parameters, every weight and bias uniform on [0, 1)."""
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        weights.append(rng.uniform(0.0, 1.0, size=(fan_in, fan_out)))
        biases.append(rng.uniform(0.0, 1.0, size=fan_out))
    return MlpParams.from_layers(weights, biases, cap)


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


def q_matrix(params: MlpParams) -> np.ndarray:
    """(n_states, n_actions) matrix of current Q estimates, read-only."""
    return params._two_state_pass()[0][-1]


def train_minibatch(params: MlpParams,
                    states, next_states, actions, rewards,
                    target_max: np.ndarray,
                    alpha: float,
                    gamma: float) -> tuple[MlpParams, float]:
    """One gradient-descent step on the mean squared Bellman error.

    The mini-batch is four equal-length columns: states, next states,
    actions and rewards. target_max holds, per state, the maximum over
    actions of the frozen target Q-values, so the target of a sample is
    r + gamma * target_max[s']; the loss is the batch mean of
    0.5 * (target - Q(s, a))^2. Returns the updated parameters and that
    loss. Deterministic in its inputs. Raises FloatingPointError when the
    gradient or the updated parameters are not finite: training has
    diverged.
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

    activations, masks = params._two_state_pass()
    rows = np.arange(b)
    grad = np.empty_like(params.flat)
    grad_w, grad_b = _layer_views(grad, params.layer_sizes)
    # diverging runs overflow here; the finiteness check below reports it
    with np.errstate(over="ignore", invalid="ignore"):
        y = rewards + gamma * target_max.take(next_states)
        err = activations[-1][states, actions] - y
        loss = float(0.5 * (np.add.reduce(err ** 2) / b))   # np.mean, inlined

        delta = np.zeros((b, params.n_actions))
        delta[rows, actions] = err / b
        for k in range(len(params.weights) - 1, -1, -1):
            np.matmul(activations[k].take(states, axis=0).T, delta,
                      out=grad_w[k])
            np.add.reduce(delta, axis=0, out=grad_b[k])
            if k > 0:
                delta = delta @ params.weights[k].T
                # saturated ReLU: zero subgradient outside (0, cap)
                delta = delta * masks[k - 1].take(states, axis=0)
        flat = params.flat - alpha * grad

    if not np.isfinite(flat).all():
        what = ("gradient" if not np.isfinite(grad).all()
                else "parameter update")
        raise FloatingPointError(
            f"non-finite {what} (loss={loss!r}, "
            f"max|err|={float(np.max(np.abs(err)))!r}); "
            "training has diverged")
    return MlpParams(flat, params.layer_sizes, params.cap), loss
