"""Interchangeable Q-value backends.

Two estimators share the 2-state x n-action interface: a lookup table
updated in place by the standard temporal-difference rule, and a small
fully-connected network trained by plain gradient descent on the squared
Bellman error against frozen target values. Both learn from the same
four columns (states, next states, actions, rewards) in arrival order:
the table takes any run of them in one call, one in-place update per
entry on two lists of plain floats (or, given run lengths, a run of
repeats per entry). Through the call it keeps each state's row maximum,
and the maximum of the row's entries but one kept action, so that an
update reads the maxima it needs instead of scanning a row; it checks
the table's finiteness once, after the call's last update. The network
takes one mini-batch of them per gradient step and discards it
afterwards. There is deliberately no replay memory. In place of a
second network, training reads the per-state maximum of frozen target
Q-values, which the learner refreshes from the live parameters every
``c`` updates.

The networks of one learning run are trained together, as N stacked
networks of one shape: ``init_mlp`` builds the stack, and the layer
widths are stated there alone. A single network is the case N = 1.
``MlpParams`` holds their weights and biases in one layer-major 1-D
block: layer by layer, the weights of all N networks, then their biases
once per state, so that every per-layer view is contiguous and the
forward pass adds a bias without broadcasting. A network only ever sees
the two one-hot states, so each parameter set runs its forward pass
once, for both states, into buffers it owns, keeping the activations
and saturated-ReLU masks of both states of every network. The first
layer's pre-activation is its weights plus its bias, since the one-hot
rows pick the weight rows. ``q_matrix`` is a lookup in that pass.

For the same reason a gradient step never runs the forward or backward
pass on a batch. The backward pass is linear in the output errors, and
every sample enters it through one of two input rows. So network i's
batch gradient depends on its mini-batch only through D[i, s, a], the
sum of err / b over its samples at state s and action a. A step builds
D with one ``np.bincount`` over the samples' flat (network, state,
action) cells and backpropagates its two rows through the cached
activations and masks: 2-row matrix products per layer.

Gradient steps come in runs on consecutive mini-batches (``_Descent``).
An update is a few dozen numpy calls on arrays of a few dozen floats,
so its cost is the calls' cost, which their operands' layout decides. A
descent copies the caller's parameters into one new parameter set,
updates it in place and hands it over in ``params``. All else the
updates share is set up once: the converted and checked columns,
rewards and rates included; each sample's cell, which indexes both its
Q-value in the Q matrices and its sum in D; the gradient block, in the
layout of the parameters, the delta buffers and the operands of each
layer's backward step; and a row per update for its Q matrices, which
the forward pass writes in place. An update allocates only its errors
and their sums: the backward products go straight into the gradient
block (the first layer's delta is its weight gradient; a bias gradient,
a delta's two rows summed, is one product with a 2 x 2 matrix of ones,
which writes both of its rows), then one multiply and one in-place
subtraction from the parameters, and their two-state pass. The targets
r + gamma * target_max[s'] are computed once for all the updates that
share the target maxima.

A run of updates is checked once, after its last update. A non-finite
parameter stays non-finite under every later update (x - alpha * g is
inf or NaN when x is, and NaN when g is), so that one check tells
whether every update of the run was finite. Only when it was not does
the descent restore the parameters the run started from and replay the
run one checked update at a time, which raises the first diverging
update's error and leaves the parameters before it: table_update's
check-once, replay-on-failure scheme. The loss is computed only where
it is used: in ``train_minibatch``'s return value and in a divergence
error's text. ``train_minibatch`` is a run of one update; a DQL phase
(``agent.DqlAgents.learn_phase``) is a run per target refresh, under
one ``np.errstate``.

A stacked step is bit-identical to a step of each network alone. A
stacked matmul multiplies each network's slice with the same shapes and
strides as for that network alone, each error sum adds its own
network's samples in sample order, and every elementwise operation and
reduction runs along the same axis, so no network's results depend on
the others or on N. The step agrees with the per-sample formulation
(each sample's one-hot row through the forward pass and its own
backward pass, added up over the batch by the matrix products) to
rounding, not bit for bit: both compute the same sums, grouped
differently. tests/test_qfunc.py pins both, and a two-row step
restated sum by sum bit for bit; tests/test_agent.py restates the
step on network-major arrays. The product with ones adds a bias
gradient's two rows as a sum does, up to the sign of a zero sum, which
changes no parameter other than a -0.0.
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

# the clip ufunc, without ndarray.clip's Python wrapper (numpy 1.x keeps
# it in np.core, which numpy 2 deprecates)
_clip = (np._core if hasattr(np, "_core") else np.core).umath.clip


def table_update(q: list[list[float]], states, next_states, actions, rewards,
                 alpha: float, gamma: float, counts=None, written=None) -> None:
    """Temporal-difference updates of q, in place, one per column entry.

    Q(s,a) <- Q(s,a) + alpha * [r + gamma * max_a' Q(s',a') - Q(s,a)]

    The updates are four equal-length columns, applied in order: states,
    next states, actions and rewards, as train_minibatch takes them. The
    optional fifth column ``counts`` run-length encodes them: entry k is
    applied counts[k] times in a row; without it every entry is applied
    once. q holds one list of floats per state; only the updated entries
    change. Given a list ``written``, each entry appends the value it
    wrote, so written[k] is q[states[k]][actions[k]] right after entry k.
    Raises ValueError on rates out of range, columns of unequal length or
    a count below 1, leaving q unchanged, and on a negative reward or a
    non-finite result, leaving that entry at the last finite value it was
    given; the entries before it stay applied, and ``written`` holds
    their values.

    A run of repeats changes entry (s, a) alone. So when s' != s the
    target r + gamma * max Q(s') is the same for every repeat and is
    computed once; when s' == s the maximum is max(v, m), v the entry's
    current value and m the maximum of the row's other entries, which is
    fixed for the run. Each repeat then evaluates the update in the
    order above, bit for bit as one update per repeat.

    The pass keeps, per state, the row maximum and one kept action with
    the maximum of the row's other entries, so that no update scans a
    row (see _td_pass). The maximum of finite floats is exact, so every
    entry is bit-identical to scanning the row on each update. (Where
    0.0 and -0.0 tie, a kept maximum may differ from the scan in its
    sign, which no update's value depends on.)

    Finiteness is checked once, on the table after the pass: a value
    that turns non-finite stays non-finite under every later update of
    its entry (inf - inf and every operation on NaN give NaN). Only when
    the check fails, or a reward is negative, are the rows and
    ``written`` restored and the columns replayed entry by entry through
    the same pass, with the failing run one repeat at a time, up to its
    last finite value.
    """
    if not (0.0 <= alpha <= 1.0 and 0.0 < gamma <= 1.0):
        raise ValueError("alpha in [0,1] and gamma in (0,1] required")
    if not len(states) == len(next_states) == len(actions) == len(rewards):
        raise ValueError("update columns differ in length")
    if counts is None:
        counts = [1] * len(states)
    elif len(counts) != len(states):
        raise ValueError("update columns differ in length")
    elif len(counts) and not min(counts) >= 1:
        raise ValueError("run lengths must be at least 1")
    isfinite = math.isfinite
    # min() may return a NaN reward and miss a negative one; the NaN makes
    # its entry non-finite, so the replay still meets both in order
    if not (len(rewards) and min(rewards) < 0.0):
        saved = [row[:] for row in q]
        mark = None if written is None else len(written)
        _td_pass(q, states, next_states, actions, rewards, counts, alpha, gamma,
                 written)
        if all(isfinite(v) for row in q for v in row):
            return
        for row, start in zip(q, saved):
            row[:] = start
        if written is not None:
            del written[mark:]
    for state, next_state, action, reward, count in zip(
            states, next_states, actions, rewards, counts):
        if reward < 0.0:
            raise ValueError("rewards are nonnegative by construction")
        entry = [state], [next_state], [action], [reward]
        row = q[state]
        old = row[action]
        _td_pass(q, *entry, [count], alpha, gamma)
        if not isfinite(row[action]):
            row[action] = old
            for _ in range(count):
                _td_pass(q, *entry, [1], alpha, gamma)
                if not isfinite(row[action]):
                    row[action] = old
                    raise ValueError("table entries must be finite")
                old = row[action]
        if written is not None:
            written.append(row[action])


def _td_pass(q, states, next_states, actions, rewards, counts, alpha, gamma,
             written=None) -> None:
    """table_update's updates without its checks.

    Per state s the pass keeps best[s] == max(q[s]) and a kept action
    top[s] with rest[s], the maximum of the row's other entries. A write
    to the kept action sets best[s] = max(value, rest[s]); a write to
    another entry raises rest[s] to its value or leaves it, both in O(1),
    except when the entry that held rest[s] falls below it. Only then is
    the row scanned, and the written action becomes the kept one. An
    s' == s run on the kept action, or on an entry below the row
    maximum, knows the maximum of the row's other entries without a
    scan; after the run its action is the kept one.
    """
    inf = math.inf
    best = [max(row) for row in q]
    top = [row.index(m) for row, m in zip(q, best)]
    rest = [max(row[:a] + row[a + 1:], default=-inf) for row, a in zip(q, top)]
    for state, next_state, action, reward, count in zip(
            states, next_states, actions, rewards, counts):
        row = q[state]
        old = value = row[action]
        if next_state != state or count == 1:
            target = reward + gamma * best[next_state]
            if count == 1:
                value = value + alpha * (target - value)
            else:
                for _ in range(count):
                    value = value + alpha * (target - value)
            row[action] = value
            others = rest[state]
            if action == top[state]:
                best[state] = value if value > others else others
            elif value >= others:
                rest[state] = value
                if value > best[state]:
                    best[state] = value
            elif old == others:
                # the entry that held rest[s] fell: scan the row's other
                # entries (-inf leaves the written one out) and keep it
                row[action] = -inf
                others = max(row)
                row[action] = value
                top[state] = action
                rest[state] = others
                best[state] = value if value > others else others
        else:
            # the maximum of the row's other entries, fixed for the run; a
            # scan leaves the entry out by -inf, which the run overwrites
            if action == top[state]:
                others = rest[state]
            elif old < best[state]:
                others = best[state]
            else:
                row[action] = -inf
                others = max(row)
            for _ in range(count):
                value = value + alpha * (
                    reward + gamma * (value if value > others else others) - value)
            row[action] = value
            top[state] = action
            rest[state] = others
            best[state] = value if value > others else others
        if written is not None:
            written.append(value)


def _layer_major(n: int, layer_sizes: tuple[int, ...]):
    """A 1-D block for N networks in the layout of MlpParams, and its
    per-layer views: (flat, weights, biases)."""
    shapes = [shape for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:])
              for shape in ((n, fan_in, fan_out), (n, N_STATES, fan_out))]
    flat = np.empty(sum(map(math.prod, shapes)))
    views, start = [], 0
    for shape in shapes:
        stop = start + math.prod(shape)
        views.append(flat[start:stop].reshape(shape))
        start = stop
    return flat, tuple(views[0::2]), tuple(views[1::2])


class MlpParams:
    """Weights of N feed-forward approximators of one shape, stacked.

    Hidden layers use a saturated ReLU clamped to [0, cap]; the output
    layer is linear. A single network is the case N = 1. The parameters
    live in one 1-D float64 block, ``flat``, layer by layer: the weights
    of all N networks, weights[k] of shape (N, fan_in, fan_out), then
    their biases, biases[k] of shape (N, 2, fan_out). Every per-layer
    view is contiguous, and weights_t[k] is weights[k] transposed. Each
    bias is stored once per state, so that the two-state pass adds it
    without broadcasting: the two rows of biases[k][i] are equal, and
    whatever writes a bias writes both.

    A parameter set owns the buffers of its two-state pass: hidden[k]
    receives the activations of hidden layer k for both states and
    masks[k] where its pre-activation lies inside (0, cap); hidden_t[k]
    is hidden[k] transposed. MlpParams(n, layer_sizes, cap) leaves the
    parameters uninitialised, for the caller to fill the views. The pass
    is computed on first use and kept, so a parameter set must not be
    modified after that; training returns a new one.
    """

    def __init__(self, n: int, layer_sizes: tuple[int, ...], cap: float):
        self.layer_sizes = layer_sizes
        self.cap = cap
        self.flat, self.weights, self.biases = _layer_major(n, layer_sizes)
        self.weights_t = tuple(w.transpose(0, 2, 1) for w in self.weights)
        shapes = [(n, N_STATES, width) for width in layer_sizes[1:-1]]
        self.hidden = tuple(np.empty(shape) for shape in shapes)
        self.masks = tuple(np.empty(shape, dtype=bool) for shape in shapes)
        self.hidden_t = tuple(a.transpose(0, 2, 1) for a in self.hidden)
        self._q = None

    @property
    def n_actions(self) -> int:
        return self.layer_sizes[-1]

    def _two_state_pass(self):
        """The kept forward pass on both states: (activations, masks); see
        _forward, also for the np.errstate to call it under."""
        if self._q is None:
            q = np.empty((len(self.weights[0]), N_STATES, self.n_actions))
            self._forward(q)
            q.flags.writeable = False       # q_matrix hands it out
            self._q = q
        return self.hidden + (self._q,), self.masks

    def _forward(self, q: np.ndarray) -> None:
        """Forward pass of the stacked networks on the one-hot states 0
        and 1, into hidden, masks and the (N, 2, n_actions) Q matrices q.

        The activations, with q last, are the pass's ``activations``. The
        first layer's pre-activation is its weights plus its bias: the
        one-hot rows of eye(2) pick the weight rows. Diverging networks
        overflow here; call it under np.errstate(over="ignore",
        invalid="ignore").
        """
        cap = self.cap
        h = np.add(self.weights[0], self.biases[0], out=self.hidden[0])
        for w, b, mask, out in zip(self.weights[1:], self.biases[1:], self.masks,
                                   self.hidden[1:] + (q,)):
            np.greater(h, 0.0, out=mask)
            mask &= h < cap
            _clip(h, 0.0, cap, out=h)
            h = np.matmul(h, w, out=out)
            np.add(h, b, out=h)


def init_mlp(rngs, n_actions: int, cap: float) -> MlpParams:
    """Fresh stacked networks, network i drawn from the generator rngs[i]:
    one-hot state in, one Q-value per action out. Every weight and bias is
    uniform on [0, 1), drawn layer by layer, weights (row-major) then
    biases."""
    params = MlpParams(len(rngs), (N_STATES, 8, 18, n_actions), cap)
    for i, rng in enumerate(rngs):
        for w, b in zip(params.weights, params.biases):
            w[i] = rng.uniform(0.0, 1.0, w.shape[1:])
            b[i] = rng.uniform(0.0, 1.0, b.shape[2])     # to both state rows
    return params


def q_matrix(params: MlpParams) -> np.ndarray:
    """(N, n_states, n_actions) array of current Q estimates, read-only."""
    with np.errstate(over="ignore", invalid="ignore"):
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
        err = descent.run(descent.targets(target_max, 0, 1))
        descent.check(err)
        return descent.params(), _loss(err)


def _loss(err: np.ndarray) -> np.ndarray:
    """(N,) mean squared Bellman errors of the (N, b) errors err."""
    return 0.5 * (np.add.reduce(err ** 2, axis=1) / err.shape[1])  # np.mean, inlined


def _finite_rows(views) -> np.ndarray:
    """(N,) True where network i's entries of every (N, ...) view are finite."""
    finite = True
    for view in views:
        finite = finite & np.isfinite(view).reshape(len(view), -1).all(axis=1)
    return finite


class _Descent:
    """Gradient steps of N stacked networks on consecutive mini-batches.

    The columns, as train_minibatch takes them, hold ``n_updates``
    mini-batches of equal size back to back, update u training every
    network on its own u-th one. The caller's parameters are copied into
    one new parameter set at set-up, which the updates write in place and
    ``params`` hands over. What stays fixed across the updates is done
    once: the checks of the columns and rates, the cell of every sample,
    and the buffers: the gradient block in the layout of the parameters
    with its per-layer views, the error and delta buffers, the operands
    of the backward pass, and the Q matrices after every update
    (``snapshots``), which the forward passes write in place.

    ``run`` is the one copy of the gradient maths: train_minibatch runs
    one update, a DQL phase its runs of updates between target refreshes.
    It checks nothing. ``check`` checks the parameters one update wrote;
    ``finite`` checks them after a run, and ``rewind`` restores the
    parameters the run started from, to replay it update by update. Call
    targets, run, check, finite and rewind under
    np.errstate(over="ignore", invalid="ignore"); diverging networks
    overflow there.
    """

    def __init__(self, params: MlpParams, states, next_states, actions, rewards,
                 n_updates: int, alpha: float, gamma: float):
        n = len(params.weights[0])
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

        # Network i's state s is row 2i + s of target_max; the flat
        # (network, state, action) cell of a sample indexes both its
        # Q_i(s, a) in the (N, 2, A) Q matrices and its error sum.
        offsets = np.arange(0, N_STATES * n, N_STATES)[:, None]
        cells = per_update((states + offsets) * n_actions + actions)
        # per update, its (N, b) cells and the same cells flat
        self._cells = list(cells)
        self._flat_cells = list(cells.reshape(n_updates, -1))
        self._next_rows = per_update(next_states + offsets)
        self._rewards = per_update(rewards)
        self._scaled = np.empty((n, b))         # the errors over b

        sizes = params.layer_sizes
        # row u: the Q matrices after u updates; the passes write the
        # writeable base, and the rows handed out are read-only
        self._snapshots = np.empty((n_updates + 1, n, N_STATES, n_actions))
        self.snapshots = self._snapshots.view()
        self.snapshots.flags.writeable = False
        self._rows = list(self.snapshots)
        self.done = 0           # the updates the parameters have taken
        block = self._block = MlpParams(n, sizes, params.cap)
        np.copyto(block.flat, params.flat)
        with np.errstate(over="ignore", invalid="ignore"):
            block._forward(self._snapshots[0])
        # the parameters the last run started from, and its update count
        self._run_start, self._run_flat = 0, block.flat.copy()
        self._grad, self._grad_w, self._grad_b = _layer_major(n, sizes)
        self._step = np.empty_like(block.flat)      # alpha times the gradient
        # ones @ delta sums a delta's two state rows into both rows of a
        # bias gradient
        self._ones = np.ones((N_STATES, N_STATES))
        # the delta of each layer below the output; the first layer's
        # input is eye(2), so its delta is its weight gradient
        deltas = (self._grad_w[0],) + tuple(
            np.empty((n, N_STATES, width)) for width in sizes[2:-1])
        # the operands of each layer's backward step, top layer first
        self._backward = tuple(zip(
            block.hidden_t, self._grad_w[1:], self._grad_b[1:],
            block.weights_t[1:], deltas, block.masks))[::-1]

    def targets(self, target_max: np.ndarray, start: int, stop: int) -> np.ndarray:
        """The targets r + gamma * target_max[i, s'] of updates start to
        stop - 1, (stop - start, N, b)."""
        return (self._rewards[start:stop]
                + self.gamma * target_max.take(self._next_rows[start:stop]))

    def run(self, targets: np.ndarray) -> np.ndarray:
        """The next len(targets) updates, update u against its (N, b)
        targets, row u - done of targets. An update computes the gradient
        of the parameters, subtracts it from them in place once the
        backward pass has read them, and runs their two-state pass into
        the snapshots. Returns the (N, b) errors Q_i(s, a) - y of the last
        update. Checks nothing (see check and finite). The backward pass
        runs on the two state rows of the error sums D (see the module
        docstring)."""
        start, block, backward = self.done, self._block, self._backward
        flat, forward = block.flat, block._forward
        self._run_start = start
        np.copyto(self._run_flat, flat)
        cells, flat_cells, rows = self._cells, self._flat_cells, self._rows
        snapshots, scaled = self._snapshots, self._scaled
        b, scaled_flat = scaled.shape[1], scaled.reshape(-1)
        sums_shape, n_cells = rows[0].shape, rows[0].size
        grad, step, grad_b0, alpha = self._grad, self._step, self._grad_b[0], self.alpha
        matmul, multiply, ones = np.matmul, np.multiply, self._ones
        for u, y in enumerate(targets, start):
            err = rows[u].take(cells[u])
            np.subtract(err, y, out=err)
            np.divide(err, b, out=scaled)
            delta = np.bincount(flat_cells[u], scaled_flat,
                                n_cells).reshape(sums_shape)
            for hidden_t, grad_w, grad_b, weight_t, out, mask in backward:
                matmul(hidden_t, delta, out=grad_w)
                matmul(ones, delta, out=grad_b)
                # saturated ReLU: zero subgradient outside (0, cap)
                delta = matmul(delta, weight_t, out=out)
                multiply(delta, mask, out=delta)
            matmul(ones, delta, out=grad_b0)
            multiply(grad, alpha, out=step)
            np.subtract(flat, step, out=flat)
            forward(snapshots[u + 1])
        self.done = start + len(targets)
        return err

    def finite(self) -> bool:
        """Whether the parameters are finite: after a run, whether every
        update of it was (see the module docstring)."""
        return bool(np.isfinite(self._block.flat).all())

    def check(self, err: np.ndarray) -> None:
        """After a run of one update, which returned err: raises
        FloatingPointError when a network's gradient or updated parameters
        are not finite, and rewinds to the parameters before the update.
        The error reports the lowest-index such network."""
        if self.finite():
            return
        block = self._block
        i = int(np.flatnonzero(~_finite_rows(block.weights + block.biases))[0])
        what = ("gradient" if not _finite_rows(self._grad_w + self._grad_b)[i]
                else "parameter update")
        self.rewind()
        raise FloatingPointError(
            f"non-finite {what} (loss={float(_loss(err)[i])!r}, "
            f"max|err|={float(np.max(np.abs(err[i])))!r}); "
            "training has diverged")

    def rewind(self) -> None:
        """Back to the parameters the last run started from, with their
        pass."""
        self.done = self._run_start
        np.copyto(self._block.flat, self._run_flat)
        self._block._forward(self._snapshots[self.done])

    @property
    def q(self) -> np.ndarray:
        """(N, n_states, n_actions) Q matrices of the parameters,
        read-only."""
        return self._rows[self.done]

    def params(self) -> MlpParams:
        """The parameters, handed over with their two-state pass and a
        read-only copy of their Q matrices (a row of the snapshots would
        keep them all alive). A later update would overwrite them and
        their pass: take the parameters after the last one."""
        q = self.q.copy()
        q.flags.writeable = False
        self._block._q = q
        return self._block
