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
``q_matrix`` is a lookup in that cache, and a gradient step gathers each
network's batch rows from it with flat indices instead of running the
forward pass on the batch.

Gradient steps come in runs on consecutive mini-batches (``_Descent``).
A run sets up once what its steps share: the columns are converted and
checked, rewards and rates included; the flat gather and scatter
indices of every mini-batch are built; and the gradient buffer, its
layer views and two parameter buffers are allocated. The targets
r + gamma * target_max[s'] are computed once for all the steps that
share the target maxima. Each step does only its own work: the backward
matmuls over all batch rows into the gradient buffer, one subtraction
into the parameter buffer the previous step did not write, one
finiteness check on the block, and the two-state forward pass of the
new block when its Q matrices are read. The loss is computed only where
it is used: in ``train_minibatch``'s return value and in a divergence
error's text. ``train_minibatch`` is a run of one step; a DQL phase
(``agent.DqlAgents.learn_phase``) is a run of one step per full
mini-batch, under one ``np.errstate``, with new targets every ``c``
steps.

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
        """Cached forward pass on eye(2): (activations, masks), read-only;
        see _forward."""
        if self._two_state is None:
            with np.errstate(over="ignore", invalid="ignore"):
                post, masks = _forward(_one_hot_stack(len(self.flat)),
                                       self.weights, self.biases, self.cap)
            for a in post + masks:
                a.flags.writeable = False
            self._two_state = (post, masks)
        return self._two_state


def _one_hot_stack(n: int) -> np.ndarray:
    """eye(2) once per network, (n, 2, 2)."""
    h = np.empty((n, N_STATES, N_STATES))
    h[...] = _STATES_ONE_HOT
    return h


def _forward(h: np.ndarray, weights, biases, cap: float):
    """Forward pass of stacked networks on the one-hot states h, of shape
    (N, 2, 2): (activations, masks), two tuples.

    activations[k], of shape (N, 2, width), is the input to layer k for
    states 0 and 1 (so activations[0] is h and activations[-1] the Q
    matrices); masks[k] is True where hidden layer k's pre-activation lies
    inside (0, cap). Diverging networks overflow here; call it under
    np.errstate(over="ignore", invalid="ignore").
    """
    post, masks = [h], []
    last = len(weights) - 1
    for k, (w, b) in enumerate(zip(weights, biases)):
        h = h @ w + b
        if k < last:
            masks.append((h > 0.0) & (h < cap))
            h = h.clip(0.0, cap)
        post.append(h)
    return tuple(post), tuple(masks)


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
    i's results depend on row i alone, bit for bit. Raises ValueError on
    an empty mini-batch, columns of unequal length, a negative or
    non-finite reward, a step size that is not positive or a discount
    factor outside (0, 1]. Raises FloatingPointError when a network's
    gradient or updated parameters are not finite: training has diverged.
    The error reports the lowest-index such network.
    """
    descent = _Descent(params, states, next_states, actions, rewards, 1,
                       alpha, gamma)
    with np.errstate(over="ignore", invalid="ignore"):
        err = descent.step(0, descent.targets(target_max, 0, 1)[0])
        return descent.params(), _loss(err)


def _loss(err: np.ndarray) -> np.ndarray:
    """(N,) mean squared Bellman errors of the (N, b) errors err."""
    return 0.5 * (np.add.reduce(err ** 2, axis=1) / err.shape[1])  # np.mean, inlined


class _Descent:
    """Gradient steps of one stacked block on consecutive mini-batches.

    The columns, as train_minibatch takes them, hold ``n_updates``
    mini-batches of equal size back to back, update u training every
    network on its own u-th one. What stays fixed across the updates is
    done once: the checks of the columns and rates, the index arrays of
    each mini-batch, the gradient buffer and its layer views, and two
    parameter buffers that the updates write in turn. ``step`` is the one
    copy of the gradient maths: train_minibatch runs it once, a DQL phase
    once per full mini-batch. Call targets, step and q under
    np.errstate(over="ignore", invalid="ignore"); diverging networks
    overflow there.
    """

    def __init__(self, params: MlpParams, states, next_states, actions, rewards,
                 n_updates: int, alpha: float, gamma: float):
        n = len(params.flat)
        states = np.asarray(states, dtype=int).reshape(n, -1)
        next_states = np.asarray(next_states, dtype=int).reshape(n, -1)
        actions = np.asarray(actions, dtype=int).reshape(n, -1)
        rewards = np.asarray(rewards, dtype=float).reshape(n, -1)
        if states.shape[1] == 0:
            raise ValueError("empty mini-batch")
        if not next_states.shape == actions.shape == rewards.shape == states.shape:
            raise ValueError("mini-batch columns differ in length")
        if not (np.isfinite(rewards).all() and (rewards >= 0.0).all()):
            raise ValueError("rewards must be finite and nonnegative")
        # written so that NaN fails too
        if not alpha > 0:
            raise ValueError("learning rate must be positive")
        if not 0 < gamma <= 1:
            raise ValueError("discount factor must lie in (0, 1]")
        self.alpha, self.gamma = alpha, gamma
        b = states.shape[1] // n_updates
        n_actions = params.n_actions

        def per_update(a):
            """(n_updates, N, b): update u's mini-batches at index u."""
            return np.ascontiguousarray(
                a.reshape(n, n_updates, b).transpose(1, 0, 2))

        # Network i's state s is row 2i + s of the (N * 2, width) reshapes
        # of the two-state arrays: flat gathers keep every per-network
        # matrix product the one a single network computes.
        offsets = np.arange(0, N_STATES * n, N_STATES)[:, None]
        rows = states + offsets
        self._rows = per_update(rows)
        self._next_rows = per_update(next_states + offsets)
        self._rewards = per_update(rewards)
        # the flat indices of Q_i(s, a) in the (N, 2, A) Q matrices and of
        # each sample's entry in the (N, b, A) output delta
        self._picks = per_update(rows * n_actions + actions)
        self._spots = (per_update(actions)
                       + np.arange(0, n * b * n_actions, n_actions).reshape(n, b))

        self._sizes, self._cap = params.layer_sizes, params.cap
        self._one_hot = _one_hot_stack(n)
        self._grad = np.empty_like(params.flat)
        self._grad_w, self._grad_b = _layer_views(self._grad, self._sizes)
        # the parameter buffers, with their layer views, that the updates
        # write in turn
        buffers = [np.empty_like(params.flat) for _ in range(min(n_updates, 2))]
        self._buffers = [(flat, _layer_views(flat, self._sizes)) for flat in buffers]
        # the current block and its (weights, biases): the caller's until
        # the first update
        self._flat, self._layers = params.flat, (params.weights, params.biases)
        self._two_state = params._two_state_pass()
        self._written = 0

    def targets(self, target_max: np.ndarray, start: int, stop: int) -> np.ndarray:
        """The targets r + gamma * target_max[i, s'] of updates start to
        stop - 1, (stop - start, N, b)."""
        return (self._rewards[start:stop]
                + self.gamma * target_max.take(self._next_rows[start:stop]))

    def step(self, u: int, y: np.ndarray) -> np.ndarray:
        """Update u against the (N, b) targets y: the gradient of the
        current block, written to a buffer of its own, which becomes the
        current block. Returns the (N, b) errors Q_i(s, a) - y. Raises
        FloatingPointError, keeping the current block, when a network's
        gradient or updated parameters are not finite."""
        activations, masks = self._state()
        rows = self._rows[u]
        n, b = rows.shape
        err = activations[-1].take(self._picks[u]) - y
        delta = np.zeros((n, b, self._sizes[-1]))
        delta.put(self._spots[u], err / b)
        weights = self._layers[0]
        for k in range(len(weights) - 1, -1, -1):
            x = activations[k].reshape(n * N_STATES, -1).take(rows, axis=0)
            np.matmul(x.transpose(0, 2, 1), delta, out=self._grad_w[k])
            np.add.reduce(delta, axis=1, keepdims=True, out=self._grad_b[k])
            if k > 0:
                delta = delta @ weights[k].transpose(0, 2, 1)
                # saturated ReLU: zero subgradient outside (0, cap)
                delta = delta * masks[k - 1].reshape(n * N_STATES, -1).take(
                    rows, axis=0)
        flat, layers = self._buffers[self._written % 2]
        np.subtract(self._flat, self.alpha * self._grad, out=flat)
        if not np.isfinite(flat).all():
            i = int(np.flatnonzero(~np.isfinite(flat).all(axis=1))[0])
            what = ("gradient" if not np.isfinite(self._grad[i]).all()
                    else "parameter update")
            raise FloatingPointError(
                f"non-finite {what} (loss={float(_loss(err)[i])!r}, "
                f"max|err|={float(np.max(np.abs(err[i])))!r}); "
                "training has diverged")
        self._flat, self._layers = flat, layers
        self._two_state = None
        self._written += 1
        return err

    def _state(self):
        """The current block's two-state pass (see _forward)."""
        if self._two_state is None:
            self._two_state = _forward(self._one_hot, *self._layers, self._cap)
        return self._two_state

    @property
    def q(self) -> np.ndarray:
        """(N, n_states, n_actions) Q matrices of the current block."""
        return self._state()[0][-1]

    def params(self) -> MlpParams:
        """The current block."""
        return MlpParams(self._flat, self._sizes, self._cap)
