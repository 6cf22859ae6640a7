"""Interchangeable Q-value backends.

Two estimators share the 2-state x n-action interface: a lookup table
updated in place by the standard temporal-difference rule, and a small
fully-connected network trained by plain gradient descent on the squared
Bellman error against frozen target values. Both learn from the same
four columns (states, next states, actions, rewards) in arrival order:
the table takes any run of them in one call, one in-place update per
entry on two lists of plain floats, and keeps each state's row maximum
through the call, so that an update reads the next state's maximum
instead of scanning its row; the network takes one mini-batch of them
per gradient step and discards it afterwards. There is deliberately
no replay memory. In place of a second network, training reads the
per-state maximum of frozen target Q-values, which the learner refreshes
from the live parameters every ``c`` updates.

The networks of one learning run are trained together, as N stacked
networks of one shape: ``init_mlp`` builds the stack, and the layer
widths are stated there alone. Their weights and biases live in one
(N, P) float64 block, network i's in row i, layer by layer (weights,
then biases); ``MlpParams.weights`` and ``biases`` are reshaped views of
it with a leading network axis. A single network is the case N = 1. A
network only ever sees the two one-hot states, so each parameter set
runs its forward pass once, on ``eye(2)``, and caches the activations
and saturated-ReLU masks of both states of every network read-only.
``q_matrix`` is a lookup in that cache, and ``train_minibatch`` gathers
each network's batch rows from it with flat indices instead of running
the forward pass on the batch. The backward matmuls still run over all
batch rows, the gradient fills one flat buffer, and the update is one
subtraction and one finiteness check on the block.

Training is bit-identical to running the forward pass of each network
alone over its batch's one-hot rows, as the per-sample formulation
does. First, each such row equals the matching row of ``eye(2)``, and
the matrix products compute every output row from its own input row
alone, in the same order for a 2-row as for a 25-row input. Second, a
stacked matmul multiplies each network's slice by itself, with the same
shapes and strides as for that network alone, and every elementwise
operation and reduction runs along the same axis, so no network's
results depend on the others or on N. The first property belongs to the
BLAS build and the layer shapes. It holds on OpenBLAS 0.3.31 (AVX-512
kernels) for the learner's network at 14 actions and batches of 2 to
200 rows, and tests/test_qfunc.py pins it, one network and a stack of
three. On that build it fails for a 2- or 3-wide output layer. It also
fails for a 1-row input, which numpy multiplies as a matrix-vector
product, so a 1-row mini-batch may differ from a per-sample pass in the
last bit. Every configured mini-batch has 25 rows.
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

    The row maxima are taken once per call and kept current after each
    write: a value above its row's maximum becomes the maximum, and the
    row is scanned again only when the entry it overwrote held the
    maximum. The maximum of finite floats is exact, and every entry
    written is finite, so each kept maximum equals max(q[s]) and every
    entry is bit-identical to scanning the row on each update. (Where
    0.0 and -0.0 tie, the kept maximum may differ from the scan in its
    sign, which no update's value depends on.)
    """
    if not (0.0 <= alpha <= 1.0 and 0.0 < gamma <= 1.0):
        raise ValueError("alpha in [0,1] and gamma in (0,1] required")
    if not len(states) == len(next_states) == len(actions) == len(rewards):
        raise ValueError("update columns differ in length")
    isfinite = math.isfinite
    best = [max(row) for row in q]     # best[s] == max(q[s]) after each write
    for state, next_state, action, reward in zip(states, next_states, actions,
                                                 rewards):
        if reward < 0.0:
            raise ValueError("rewards are nonnegative by construction")
        row = q[state]
        old = row[action]
        value = old + alpha * (reward + gamma * best[next_state] - old)
        if not isfinite(value):
            raise ValueError("table entries must be finite")
        row[action] = value
        if value > best[state]:
            best[state] = value
        elif old == best[state]:
            # the written entry held the maximum and may have fallen
            best[state] = max(row)


def _layer_views(flat: np.ndarray, layer_sizes: tuple[int, ...]):
    """(weights, biases) of the flat layout of the (N, P) block ``flat``, as
    views: weights[k] is (N, fan_in, fan_out) and biases[k] (N, 1, fan_out)."""
    n = len(flat)
    weights, biases, start = [], [], 0
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        stop = start + fan_in * fan_out
        weights.append(flat[:, start:stop].reshape(n, fan_in, fan_out))
        biases.append(flat[:, None, stop:stop + fan_out])
        start = stop + fan_out
    return tuple(weights), tuple(biases)


class MlpParams:
    """Weights of N feed-forward approximators of one shape, stacked.

    Hidden layers use a saturated ReLU clamped to [0, cap]; the output
    layer is linear. Row i of the (N, P) array ``flat`` holds network i's
    parameters in the layout of ``layer_sizes``; weights[k], of shape
    (N, fan_in, fan_out), and biases[k], of shape (N, 1, fan_out), are
    views of it. A single network is the case N = 1. The constructor
    trusts its arguments. The two-state forward pass is computed on first
    use and cached, so a parameter set must not be modified after that;
    training returns a new one.
    """

    def __init__(self, flat: np.ndarray, layer_sizes: tuple[int, ...], cap: float):
        self.flat = flat
        self.layer_sizes = layer_sizes
        self.cap = cap
        self.weights, self.biases = _layer_views(flat, layer_sizes)
        self._two_state = None

    def __reduce__(self):
        return MlpParams, (self.flat, self.layer_sizes, self.cap)

    @property
    def n_actions(self) -> int:
        return self.layer_sizes[-1]

    def _two_state_pass(self):
        """Cached forward pass on eye(2): (activations, masks), read-only.

        activations[k], of shape (N, 2, width), is the input to layer k for
        states 0 and 1 (so activations[0] is eye(2) for every network and
        activations[-1] the Q matrices); masks[k] is 1.0 where hidden
        layer k's pre-activation lies inside (0, cap), else 0.0.
        """
        if self._two_state is None:
            h = np.empty((len(self.flat), N_STATES, N_STATES))
            h[...] = _STATES_ONE_HOT
            post, masks = [h], []
            last = len(self.weights) - 1
            with np.errstate(over="ignore", invalid="ignore"):
                for k, (w, b) in enumerate(zip(self.weights, self.biases)):
                    h = h @ w + b
                    if k < last:
                        masks.append(((h > 0.0) & (h < self.cap)).astype(float))
                        h = np.clip(h, 0.0, self.cap)
                    post.append(h)
            for a in post + masks:
                a.flags.writeable = False
            self._two_state = (tuple(post), tuple(masks))
        return self._two_state


def init_mlp(rngs, n_actions: int, cap: float) -> MlpParams:
    """Fresh stacked networks, network i drawn from the generator rngs[i]:
    one-hot state in, one Q-value per action out. Every weight and bias is
    uniform on [0, 1), drawn layer by layer, weights (row-major) then
    biases, which is the order of the flat layout."""
    sizes = (N_STATES, 8, 18, n_actions)
    size = sum(fan_in * fan_out + fan_out
               for fan_in, fan_out in zip(sizes[:-1], sizes[1:]))
    return MlpParams(np.stack([rng.uniform(0.0, 1.0, size) for rng in rngs]),
                     sizes, cap)


def q_matrix(params: MlpParams) -> np.ndarray:
    """(N, n_states, n_actions) array of current Q estimates, read-only."""
    return params._two_state_pass()[0][-1]


def train_minibatch(params: MlpParams,
                    states, next_states, actions, rewards,
                    target_max: np.ndarray,
                    alpha: float,
                    gamma: float) -> tuple[MlpParams, np.ndarray]:
    """One gradient-descent step of each network on the mean squared
    Bellman error of its own mini-batch.

    The mini-batches are four (N, b) columns: states, next states, actions
    and rewards, row i holding network i's b samples (one network may also
    take (b,) columns). target_max, of shape (N, 2), holds per network and
    state the maximum over actions of the frozen target Q-values, so the
    target of network i's sample is r + gamma * target_max[i, s']; its loss
    is the batch mean of 0.5 * (target - Q_i(s, a))^2. Returns the updated
    parameters and the (N,) losses. Deterministic in its inputs; network
    i's results depend on row i alone, bit for bit. Raises
    FloatingPointError when a network's gradient or updated parameters
    are not finite: training has diverged. The error reports the
    lowest-index such network.
    """
    n = len(params.flat)
    states = np.asarray(states, dtype=int).reshape(n, -1)
    next_states = np.asarray(next_states, dtype=int).reshape(n, -1)
    actions = np.asarray(actions, dtype=int).reshape(n, -1)
    rewards = np.asarray(rewards, dtype=float).reshape(n, -1)
    b = states.shape[1]
    if b == 0:
        raise ValueError("empty mini-batch")
    if not next_states.shape == actions.shape == rewards.shape == states.shape:
        raise ValueError("mini-batch columns differ in length")
    if not (np.isfinite(rewards).all() and (rewards >= 0.0).all()):
        raise ValueError("rewards must be finite and nonnegative")
    if alpha <= 0:
        raise ValueError("learning rate must be positive")

    activations, masks = params._two_state_pass()
    n_actions = params.n_actions
    # Network i's state s is row 2i + s of the (N * 2, width) reshapes of
    # the two-state arrays: flat gathers keep every per-network matrix
    # product the one a single network computes.
    offsets = np.arange(0, N_STATES * n, N_STATES)[:, None]
    rows = states + offsets
    grad = np.empty_like(params.flat)
    grad_w, grad_b = _layer_views(grad, params.layer_sizes)
    # diverging runs overflow here; the finiteness check below reports it
    with np.errstate(over="ignore", invalid="ignore"):
        y = rewards + gamma * target_max.take(next_states + offsets)
        err = activations[-1].take(rows * n_actions + actions) - y
        loss = 0.5 * (np.add.reduce(err ** 2, axis=1) / b)   # np.mean, inlined

        delta = np.zeros((n, b, n_actions))
        delta.put(np.arange(0, n * b * n_actions, n_actions).reshape(n, b)
                  + actions, err / b)
        for k in range(len(params.weights) - 1, -1, -1):
            x = activations[k].reshape(n * N_STATES, -1).take(rows, axis=0)
            np.matmul(x.transpose(0, 2, 1), delta, out=grad_w[k])
            np.add.reduce(delta, axis=1, keepdims=True, out=grad_b[k])
            if k > 0:
                delta = delta @ params.weights[k].transpose(0, 2, 1)
                # saturated ReLU: zero subgradient outside (0, cap)
                delta = delta * masks[k - 1].reshape(n * N_STATES, -1).take(
                    rows, axis=0)
        flat = params.flat - alpha * grad

    if not np.isfinite(flat).all():
        i = int(np.flatnonzero(~np.isfinite(flat).all(axis=1))[0])
        what = "gradient" if not np.isfinite(grad[i]).all() else "parameter update"
        raise FloatingPointError(
            f"non-finite {what} (loss={float(loss[i])!r}, "
            f"max|err|={float(np.max(np.abs(err[i])))!r}); training has diverged")
    return MlpParams(flat, params.layer_sizes, params.cap), loss
