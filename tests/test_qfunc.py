import copy
import pickle
import warnings

import numpy as np
import pytest

from crpower.environment import ActionSpace
from crpower.qfunc import (
    MlpParams,
    init_mlp,
    q_matrix,
    table_update,
    train_minibatch,
)


CAP = 20.0


def _init(rng, n=1):
    """n fresh 14-action networks, stacked, every one drawn from rng."""
    return init_mlp([rng] * n, 14, CAP)


def _params(weights, biases, cap=CAP):
    """Parameters copied from per-layer arrays: (fan_in, fan_out) weights
    and (fan_out,) biases of one network, or (N, fan_in, fan_out) and
    (N, 1, fan_out) ones of N stacked networks."""
    n = int(np.prod(np.shape(weights[0])[:-2]))
    sizes = (np.shape(weights[0])[-2],) + tuple(np.shape(w)[-1] for w in weights)
    flat = np.concatenate([np.reshape(a, (n, -1)) for layer in zip(weights, biases)
                           for a in layer], axis=1)
    return MlpParams(flat, sizes, cap)


# ---------------------------------------------------------------- table

def scalar_td_update(q_entry, best_next, r, alpha, gamma):
    """Independent re-statement of the update as plain floats."""
    return q_entry + alpha * (r + gamma * best_next - q_entry)


def zeros_table(n_actions=14):
    return [[0.0] * n_actions for _ in range(2)]


def test_table_update_hand_value():
    q = zeros_table()
    rows = q[:]
    table_update(q, states=[0], next_states=[0], actions=[3], rewards=[1.0],
                 alpha=0.5, gamma=0.9)
    assert q[0][3] == 0.5
    assert np.count_nonzero(q) == 1
    # updated in place: same table and row objects, no copy made
    assert q[0] is rows[0] and q[1] is rows[1]


def test_table_update_zero_alpha_is_identity():
    rng = np.random.default_rng(0)
    values = rng.normal(size=(2, 14))
    q = values.tolist()
    table_update(q, [1, 0], [0, 1], [5, 2], [2.0, 3.0], alpha=0.0, gamma=0.9)
    np.testing.assert_array_equal(q, values)


def test_table_update_bellman_fixed_point():
    rng = np.random.default_rng(1)
    values = rng.uniform(0, 5, size=(2, 14))
    gamma = 0.9
    r = values[0, 2] - gamma * values[1].max()
    q = values.tolist()
    table_update(q, [0], [1], [2], [max(r, 0.0)], alpha=0.7, gamma=gamma)
    if r >= 0:
        assert q[0][2] == pytest.approx(values[0, 2], rel=1e-12)


def _restated(q, columns, alpha, gamma):
    """The updates of columns applied to a copy of q, one at a time, each
    reading its next state's row maximum by a scan of the row."""
    expected = [row[:] for row in q]
    for s, ns, a, reward in zip(*columns):
        expected[s][a] = scalar_td_update(expected[s][a], max(expected[ns]),
                                          reward, alpha, gamma)
    return expected


def test_table_update_against_scalar_oracle():
    rng = np.random.default_rng(99)
    q = rng.uniform(0, 10, size=(2, 14)).tolist()
    for _ in range(10_000):
        s, ns, a = int(rng.integers(2)), int(rng.integers(2)), int(rng.integers(14))
        reward = float(rng.uniform(0, 12))
        alpha = float(rng.uniform(0.01, 1.0))
        gamma = float(rng.uniform(0.1, 1.0))
        expected = scalar_td_update(q[s][a], max(q[ns]), reward, alpha, gamma)
        table_update(q, [s], [ns], [a], [reward], alpha, gamma)
        assert abs(q[s][a] - expected) <= 1e-12 * max(1.0, abs(expected))

    # one call over a column applies the same updates in order
    columns = ([int(v) for v in rng.integers(2, size=500)],
               [int(v) for v in rng.integers(2, size=500)],
               [int(v) for v in rng.integers(14, size=500)],
               rng.uniform(0, 12, size=500).tolist())
    expected = _restated(q, columns, 0.3, 0.9)
    table_update(q, *columns, 0.3, 0.9)
    assert q == expected


def test_table_update_row_maximum_that_falls():
    # Large Q-values and small rewards: an update of a row's maximum lowers
    # it, so the maximum is found again by a scan of the row. The rows
    # start with exact ties, so a fallen maximum can leave an equal entry.
    rng = np.random.default_rng(5)
    q = [[100.0, 80.0, 100.0, 60.0, 100.0] + [90.0] * 9,
         rng.choice([70.0, 95.0, 100.0], size=14).tolist()]
    n = 3000
    columns = ([int(v) for v in rng.integers(2, size=n)],
               [int(v) for v in rng.integers(2, size=n)],
               [int(v) for v in rng.integers(14, size=n)],
               rng.uniform(0, 1, size=n).tolist())
    # _restated, counting the updates that lower their row's maximum and
    # those of them that leave an equal entry behind
    expected, falls, tied = [row[:] for row in q], 0, 0
    for s, ns, a, reward in zip(*columns):
        row, top = expected[s], max(expected[s])
        old = row[a]
        row[a] = scalar_td_update(old, max(expected[ns]), reward, 0.5, 0.9)
        if old == top and row[a] < old:
            falls += 1
            tied += row.count(top) > 0
    assert falls > 100 and tied > 0
    table_update(q, *columns, 0.5, 0.9)
    assert q == expected

    # a column that fails mid-way keeps its earlier updates, the second of
    # which lowers row 0's maximum from 10.0 to 9.5; the next call reads it
    q = [[10.0, 10.0, 4.0], [9.0, 8.0, 2.0]]
    good = ([0, 0], [1, 0], [0, 1], [0.0, 0.0])
    with pytest.raises(ValueError, match="finite"):
        table_update(q, *(c + [v] for c, v in zip(good, (1, 0, 0, float("nan")))),
                     alpha=0.5, gamma=0.9)
    expected = _restated([[10.0, 10.0, 4.0], [9.0, 8.0, 2.0]], good, 0.5, 0.9)
    assert q == expected and max(q[0]) == 9.5
    table_update(q, [1], [0], [1], [1.0], alpha=0.5, gamma=0.9)
    assert q == _restated(expected, ([1], [0], [1], [1.0]), 0.5, 0.9)
    assert q[1][1] == scalar_td_update(8.0, 9.5, 1.0, 0.5, 0.9)


def test_table_update_validates_rates():
    q = zeros_table()
    with pytest.raises(ValueError):
        table_update(q, [0], [0], [0], [0.0], alpha=1.5, gamma=0.9)
    with pytest.raises(ValueError):
        table_update(q, [0], [0], [0], [0.0], alpha=0.5, gamma=0.0)
    with pytest.raises(ValueError, match="length"):
        table_update(q, [0, 1], [0], [0, 1], [0.0, 1.0], alpha=0.5, gamma=0.9)
    # a non-finite result is rejected and leaves the table unchanged
    with pytest.raises(ValueError, match="finite"):
        table_update(q, [0], [0], [0], [float("inf")], alpha=0.5, gamma=0.9)
    assert q == zeros_table()
    # later in a column: the failing update writes nothing, earlier ones stay
    with pytest.raises(ValueError, match="finite"):
        table_update(q, [1, 0], [1, 0], [4, 0], [2.0, float("nan")],
                     alpha=0.5, gamma=0.9)
    assert q[1][4] == 1.0 and q[0][0] == 0.0


def test_transition_rejects_negative_reward():
    q = zeros_table()
    with pytest.raises(ValueError):
        table_update(q, [0], [0], [0], [-1.0], alpha=0.5, gamma=0.9)
    assert q == zeros_table()
    params = _init(np.random.default_rng(0))
    target_max = q_matrix(params).max(axis=-1)
    for bad in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            train_minibatch(params, [0, 1], [0, 0], [0, 3], [1.0, bad],
                            target_max, 0.1, 0.9)


# ---------------------------------------------------------------- forward

def test_forward_zero_params_zero_output():
    sizes = (2, 8, 18, 14)
    weights = tuple(np.zeros((a, b)) for a, b in zip(sizes[:-1], sizes[1:]))
    biases = tuple(np.zeros(b) for b in sizes[1:])
    params = _params(weights, biases)
    np.testing.assert_array_equal(q_matrix(params)[0, 0], np.zeros(14))


def test_forward_output_layer_linearity():
    rng = np.random.default_rng(5)
    params = _init(rng)
    k = 3.7
    scaled = _params(params.weights[:-1] + (k * params.weights[-1],),
                     params.biases[:-1] + (k * params.biases[-1],), cap=params.cap)
    np.testing.assert_allclose(q_matrix(scaled)[0, 1],
                               k * q_matrix(params)[0, 1], rtol=1e-12)


def test_init_mlp_uniform_unit_interval():
    params = _init(np.random.default_rng(8))
    for w in params.weights + params.biases:
        assert np.all(w >= 0.0) and np.all(w < 1.0)
    flat = np.concatenate([w.ravel() for w in params.weights])
    assert 0.4 < flat.mean() < 0.6


def test_init_mlp_draws_network_i_from_generator_i():
    """Network i takes its draws from rngs[i] alone: layer by layer, a
    (fan_in, fan_out) uniform block of weights, then the biases."""
    seeds = np.random.SeedSequence(9).spawn(3)
    params = init_mlp([np.random.default_rng(s) for s in seeds], 5, 2.5)
    assert params.flat.shape[0] == 3 and params.layer_sizes == (2, 8, 18, 5)
    assert params.cap == 2.5
    for i, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        for w, b in zip(params.weights, params.biases):
            assert np.array_equal(w[i], rng.uniform(0.0, 1.0, size=w.shape[1:]))
            assert np.array_equal(b[i, 0], rng.uniform(0.0, 1.0, size=b.shape[2]))


def test_forward_golden_values():
    # pinned seed -> pinned outputs, frozen from the finite-difference
    # verified implementation
    params = _init(np.random.default_rng(20240101))
    q = q_matrix(params)[0]
    expected_s0 = [28.193978636926726, 34.63741058528186, 34.458935110527584,
                   32.76355161922245, 35.92803478405758, 33.47556743350543,
                   34.62707148807791, 37.83850668331971, 34.890247501935704,
                   31.442098178149376, 31.146672352456896, 30.56881207707937,
                   30.949120390200086, 37.04328609845974]
    np.testing.assert_allclose(q[0], expected_s0, rtol=1e-12)


def _network(params, i=0):
    """Network i of a stack: its (fan_in, fan_out) weights and (fan_out,)
    biases, as views."""
    return [w[i] for w in params.weights], [b[i, 0] for b in params.biases]


def _reference_forward(params, x, i=0):
    """Forward pass of network i over the rows of x, keeping
    pre-activations."""
    pre, post = [], [x]
    h = x
    weights, biases = _network(params, i)
    for k, (w, b) in enumerate(zip(weights, biases)):
        z = h @ w + b
        pre.append(z)
        h = z if k == len(weights) - 1 else np.clip(z, 0.0, params.cap)
        post.append(h)
    return pre, post


def _stack(networks):
    """One stacked parameter set of the given N=1 parameter sets."""
    first = networks[0]
    return MlpParams(np.concatenate([p.flat for p in networks]),
                     first.layer_sizes, first.cap)


@pytest.mark.parametrize("weight_scale", [1.0, 8.0])
def test_q_matrix_is_the_cached_two_state_pass(weight_scale):
    params = _init(np.random.default_rng(21))
    params = _params(tuple(weight_scale * w for w in params.weights),
                     params.biases, cap=params.cap)
    _, post = _reference_forward(params, np.eye(2))
    q = q_matrix(params)
    assert q.shape == (1, 2, 14)
    assert np.array_equal(q[0], post[-1])
    assert q_matrix(params) is q
    with pytest.raises(ValueError):
        q[0, 0, 0] = 1.0


def test_params_are_views_of_one_flat_vector():
    rng = np.random.default_rng(22)
    for n in (1, 3):
        networks = [_init(rng) for _ in range(n)]
        params = _stack(networks)
        sizes = params.layer_sizes
        assert params.flat.shape == (
            n, sum(a * b + b for a, b in zip(sizes, sizes[1:])))
        for k, (w, b) in enumerate(zip(params.weights, params.biases)):
            assert w.shape == (n, sizes[k], sizes[k + 1])
            assert b.shape == (n, 1, sizes[k + 1])
            assert np.shares_memory(w, params.flat) and np.shares_memory(b, params.flat)
            for i, network in enumerate(networks):
                assert np.array_equal(w[i], network.weights[k][0])
                assert np.array_equal(b[i], network.biases[k][0])
        # network i of the stack is network i on its own
        for i, network in enumerate(networks):
            assert np.array_equal(q_matrix(params)[i], q_matrix(network)[0])
        for clone in (copy.deepcopy(params), pickle.loads(pickle.dumps(params))):
            np.testing.assert_array_equal(clone.flat, params.flat)
            assert not np.shares_memory(clone.flat, params.flat)
            for w, b in zip(clone.weights, clone.biases):
                assert np.shares_memory(w, clone.flat) and np.shares_memory(b, clone.flat)
            np.testing.assert_array_equal(q_matrix(clone), q_matrix(params))


# ---------------------------------------------------------------- training

def _loss_only(params, batch, target_max, gamma):
    """Loss evaluated without touching the training code path."""
    states, nxt, actions, rewards = batch
    y = rewards + gamma * target_max[nxt]
    x = np.eye(2)[states]
    h = x
    weights, biases = _network(params)
    for k, (w, b) in enumerate(zip(weights, biases)):
        z = h @ w + b
        h = z if k == len(weights) - 1 else np.clip(z, 0.0, params.cap)
    pred = h[np.arange(len(states)), actions]
    return float(0.5 * np.mean((y - pred) ** 2))


def _random_batch(rng, n=25, reward_scale=12.0):
    """Columns (states, next states, actions, rewards), drawn sample by
    sample in that order."""
    rows = [(int(rng.integers(2)), int(rng.integers(2)), int(rng.integers(14)),
             float(rng.uniform(0, reward_scale))) for _ in range(n)]
    return tuple(np.array(column) for column in zip(*rows))


def _max_fd_relative_error(params, batch, target_max, gamma, h=1e-5):
    """Central finite differences against the gradient recovered from one
    unit-step update; checks every weight and bias."""
    new_params, _ = train_minibatch(params, *batch, target_max, alpha=1.0,
                                    gamma=gamma)
    worst = 0.0
    for li in range(len(params.weights)):
        for arrays, new_arrays, attr in (
                (params.weights, new_params.weights, "weights"),
                (params.biases, new_params.biases, "biases")):
            analytic = arrays[li] - new_arrays[li]
            flat = arrays[li].ravel()
            for j in range(flat.size):
                orig = flat[j]
                flat[j] = orig + h
                up = _loss_only(params, batch, target_max, gamma)
                flat[j] = orig - h
                down = _loss_only(params, batch, target_max, gamma)
                flat[j] = orig
                numeric = (up - down) / (2.0 * h)
                ga = analytic.ravel()[j]
                denom = max(abs(ga), abs(numeric), 1e-8)
                worst = max(worst, abs(ga - numeric) / denom)
    return worst


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for trial in range(12):
        params = _init(rng)
        if trial % 3 == 0:
            # push units past the saturation cap
            params = _params(tuple(8.0 * w for w in params.weights),
                             params.biases, cap=params.cap)
        target_max = rng.uniform(0, 5, size=(2, 14)).max(axis=1)
        batch = _random_batch(rng)
        worst = max(worst, _max_fd_relative_error(params, batch, target_max, 0.9))
    assert worst <= 1e-4, worst


def test_zero_gradient_at_optimum():
    rng = np.random.default_rng(77)
    params = _init(rng)
    q = q_matrix(params)[0]
    gamma = 0.9
    target_max = np.zeros(2)
    # rewards chosen so each sample's target equals the current prediction
    rows = []
    for _ in range(25):
        s, ns, a = int(rng.integers(2)), int(rng.integers(2)), int(rng.integers(14))
        r = q[s, a] - gamma * target_max[ns]
        rows.append((s, ns, a, max(r, 0.0)))
    batch = [np.array(column) for column in zip(*rows)]
    new_params, loss = train_minibatch(params, *batch, target_max, 0.1, gamma)
    assert loss == pytest.approx(0.0, abs=1e-20)
    for a, b in zip(new_params.weights, params.weights):
        np.testing.assert_array_equal(a, b)


def test_training_drives_prediction_to_target():
    rng = np.random.default_rng(31)
    params = _init(rng)
    target_max = np.zeros(2)
    batch = ([0] * 25, [1] * 25, [4] * 25, [3.0] * 25)
    losses = []
    for _ in range(300):
        params, loss = train_minibatch(params, *batch, target_max, 0.05, 0.9)
        losses.append(loss)
    assert q_matrix(params)[0, 0, 4] == pytest.approx(3.0, abs=1e-3)
    burn = losses[5:]
    assert all(b <= a + 1e-12 for a, b in zip(burn, burn[1:]))


def test_train_minibatch_rejects_bad_args():
    params = _init(np.random.default_rng(0))
    target_max = q_matrix(params).max(axis=-1)
    with pytest.raises(ValueError):
        train_minibatch(params, [], [], [], [], target_max, 0.1, 0.9)
    with pytest.raises(ValueError):
        train_minibatch(params, *_random_batch(np.random.default_rng(1)),
                        target_max, 0.0, 0.9)
    with pytest.raises(ValueError, match="differ in length"):
        train_minibatch(params, [0, 1], [0, 1], [2], [1.0, 1.0],
                        target_max, 0.1, 0.9)
    # rates out of range are bad arguments, not a divergence
    for alpha, gamma in ((float("nan"), 0.9), (0.1, float("nan")),
                         (0.1, -1.0), (0.1, 5.0)):
        with pytest.raises(ValueError, match="learning rate|discount factor"):
            train_minibatch(params, *_random_batch(np.random.default_rng(1)),
                            target_max, alpha, gamma)


def test_divergence_raises_numeric_error():
    rng = np.random.default_rng(13)
    params = _init(rng)
    target_max = np.zeros(2)
    batch = _random_batch(rng, reward_scale=100.0)
    with pytest.raises(FloatingPointError) as excinfo:
        with np.errstate(all="ignore"):
            for _ in range(2000):
                params, _ = train_minibatch(params, *batch, target_max, 5.0, 0.9)
    # the message prints plain numbers, not numpy scalar reprs
    assert "np.float64" not in str(excinfo.value)


def test_divergence_prints_no_numpy_warnings():
    rng = np.random.default_rng(13)
    params = _init(rng)
    target_max = np.zeros(2)
    batch = _random_batch(rng, reward_scale=100.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatingPointError,
                           match=r"^non-finite gradient \(loss=.*training has diverged$"):
            for _ in range(2000):
                params, _ = train_minibatch(params, *batch, target_max, 5.0, 0.9)


def test_overflowing_update_raises_numeric_error():
    """A finite gradient whose update overflows is a divergence too."""
    params = _init(np.random.default_rng(0))
    target_max = q_matrix(params).max(axis=-1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatingPointError, match="non-finite parameter update"):
            train_minibatch(params, [0, 1], [1, 0], [3, 7], [1.0, 2.0],
                            target_max, 1e308, 0.9)


def _reference_step(params, states, next_states, actions, rewards, target_max,
                    alpha, gamma, i=0):
    """train_minibatch restated per sample for network i: the batch's one-hot
    rows through the batched forward pass, the same backward pass, a
    per-layer update."""
    b = len(states)
    rows = np.arange(b)
    weights, biases = _network(params, i)
    pre, post = _reference_forward(params, np.eye(2)[states], i)
    y = rewards + gamma * target_max[next_states]
    err = post[-1][rows, actions] - y
    loss = float(0.5 * np.mean(err ** 2))
    delta = np.zeros_like(post[-1])
    delta[rows, actions] = err / b
    n_layers = len(weights)
    new_weights, new_biases = [None] * n_layers, [None] * n_layers
    for k in range(n_layers - 1, -1, -1):
        new_weights[k] = weights[k] - alpha * (post[k].T @ delta)
        new_biases[k] = biases[k] - alpha * delta.sum(axis=0)
        if k > 0:
            delta = delta @ weights[k].T
            z = pre[k - 1]
            delta = delta * ((z > 0.0) & (z < params.cap))
    return new_weights, new_biases, loss


def test_train_minibatch_matches_per_sample_reference():
    """Bit for bit, on the learner's network (one output per action of the
    default 14-action space, whatever the number of radios), over batches
    of 25 and of random sizes from 2 to 64 rows, for one network and for
    each network of a stack of three. Zero-mean weights, scaled up on
    every other trial, put hidden units below 0, inside (0, cap) and above
    cap, differently for the two states."""
    rng = np.random.default_rng(2205)
    n_actions = len(ActionSpace.default())
    sizes = (2, 8, 18, n_actions)
    unit_regions = set()
    for trial in range(400):
        n = 1 if trial < 200 else 3
        scale = 8.0 if trial % 2 else 1.0
        params = _stack([_params(
            tuple(scale * rng.normal(size=(a, b)) for a, b in zip(sizes, sizes[1:])),
            tuple(rng.normal(size=b) for b in sizes[1:])) for _ in range(n)])
        for i in range(n):
            pre, _ = _reference_forward(params, np.eye(2), i)
            for z in pre[:-1]:
                unit_regions.update(np.sign(z - params.cap).ravel() + np.sign(z).ravel())
                unit_regions.add(bool(np.any((z[0] > 0) != (z[1] > 0))))
        target_max = rng.uniform(0, 5, size=(n, 2, n_actions)).max(axis=-1)
        b = 25 if trial % 4 < 2 else int(rng.integers(2, 65))
        batch = (rng.integers(2, size=(n, b)), rng.integers(2, size=(n, b)),
                 rng.integers(n_actions, size=(n, b)), rng.uniform(0, 12, size=(n, b)))
        alpha = float(rng.choice([1e-4, 0.05, 1.0]))
        new_params, loss = train_minibatch(params, *batch, target_max, alpha, 0.9)
        assert loss.shape == (n,)
        for i in range(n):
            weights, biases, ref_loss = _reference_step(
                params, *(c[i] for c in batch), target_max[i], alpha, 0.9, i)
            assert loss[i] == ref_loss
            got_weights, got_biases = _network(new_params, i)
            for got, want in zip(got_weights + got_biases, weights + biases):
                assert np.array_equal(got, want)
            _, post = _reference_forward(new_params, np.eye(2), i)
            assert np.array_equal(q_matrix(new_params)[i], post[-1])
    # units below 0 (-2), inside (0, cap) (0) and above cap (2) all occurred,
    # and some unit was active for one state only (True)
    assert {-2.0, 0.0, 2.0, True} <= unit_regions


def _single_step(params, i, batch, target_max, alpha, gamma):
    """train_minibatch on network i of a stack alone: (flat row, loss) or
    the FloatingPointError text."""
    single = MlpParams(params.flat[i:i + 1], params.layer_sizes, params.cap)
    try:
        new, loss = train_minibatch(single, *(c[i] for c in batch),
                                    target_max[i], alpha, gamma)
    except FloatingPointError as exc:
        return str(exc)
    return new.flat[0], float(loss[0])


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_stacked_step_equals_single_network_steps(n):
    """A step of a stack of n networks gives each network, bit for bit,
    what a step of that network alone gives. A network scaled up so that
    its step is not finite (its gradient overflows, or its update with a
    huge step size) makes the stacked step raise the lowest-index
    diverging network's own error, and the other networks' steps do not
    depend on it."""
    rng = np.random.default_rng(40 + n)
    for trial in range(24):
        params = _init(rng, n)
        target_max = rng.uniform(0, 5, size=(n, 2))
        batch = (rng.integers(2, size=(n, 25)), rng.integers(2, size=(n, 25)),
                 rng.integers(14, size=(n, 25)), rng.uniform(0, 12, size=(n, 25)))
        alpha = 0.05
        diverging = sorted(set(rng.integers(n, size=trial % 3).tolist()))
        flat = params.flat.copy()
        for i in diverging:
            if trial % 2:
                flat[i] *= 1e300        # the gradient overflows
            else:
                # huge output biases: the update overflows
                flat[i, -params.n_actions:] = 1e300
                alpha = 1e10
        params = MlpParams(flat, params.layer_sizes, params.cap)
        single = [_single_step(params, i, batch, target_max, alpha, 0.9)
                  for i in range(n)]
        assert [i for i in range(n) if isinstance(single[i], str)] == diverging
        if diverging:
            with pytest.raises(FloatingPointError) as excinfo:
                train_minibatch(params, *batch, target_max, alpha, 0.9)
            assert str(excinfo.value) == single[diverging[0]]
            keep = [i for i in range(n) if i not in diverging]
            if not keep:
                continue
            params = MlpParams(flat[keep], params.layer_sizes, params.cap)
            batch = tuple(c[keep] for c in batch)
            target_max = target_max[keep]
            single = [single[i] for i in keep]
        new_params, loss = train_minibatch(params, *batch, target_max, alpha, 0.9)
        for row, want in enumerate(single):
            assert np.array_equal(new_params.flat[row], want[0])
            assert loss[row] == want[1]


def test_no_replay_memory_in_training_path():
    """Training consumes exactly the transitions handed to it: the same
    inputs give the same outputs no matter what was trained in between, so
    no history can be buffered anywhere in the path."""
    rng = np.random.default_rng(3)
    params = _init(rng)
    target_max = q_matrix(params).max(axis=-1)
    batch1 = _random_batch(rng)
    batch2 = _random_batch(rng)
    out_a = train_minibatch(params, *batch2, target_max, 0.01, 0.9)
    train_minibatch(params, *batch1, target_max, 0.01, 0.9)   # interleaved call
    out_b = train_minibatch(params, *batch2, target_max, 0.01, 0.9)
    assert out_a[1] == out_b[1]
    for a, b in zip(out_a[0].weights, out_b[0].weights):
        np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------- target

def test_target_frozen_between_refreshes():
    rng = np.random.default_rng(16)
    params = _init(rng)
    initial_q = q_matrix(params)
    target_max = initial_q.max(axis=-1)
    snapshot = target_max.copy()
    batch = _random_batch(rng)
    for _ in range(10):
        params, _ = train_minibatch(params, *batch, target_max, 0.001, 0.9)
    np.testing.assert_array_equal(target_max, snapshot)
    assert not np.allclose(q_matrix(params), initial_q)
