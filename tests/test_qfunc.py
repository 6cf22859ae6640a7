import math
import warnings

import numpy as np
import pytest

from conftest import mlp_params, select_networks
from crpower import qfunc
from crpower.environment import ActionSpace
from crpower.qfunc import (
    _Descent,
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
    """Parameters copied from per-layer arrays (see conftest.mlp_params)."""
    return mlp_params(weights, biases, cap)


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


def _expand(columns, counts):
    """Run-length columns written out: entry k repeated counts[k] times."""
    return tuple([v for v, count in zip(column, counts) for _ in range(count)]
                 for column in columns)


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
    start = [row[:] for row in q]
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

    # the same updates as runs of 1 to 11 repeats, half of them with
    # s' == s, read against the repeats written out one by one
    counts = [int(v) for v in rng.integers(1, 12, size=n)]
    q = [row[:] for row in start]
    table_update(q, *columns, 0.5, 0.9, counts=counts)
    assert q == _restated(start, _expand(columns, counts), 0.5, 0.9)

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


def test_table_update_run_lengths():
    # Long s' == s runs on a row maximum: with no reward, entry (0, 0)
    # falls below the row's next entry mid-run, and a later rewarded run
    # lifts it above again. A run starts on an exact tie in row 1, and
    # s' != s runs and runs of one step lie between them.
    start = [[10.0, 9.0, 5.0, 2.0], [7.0, 7.0, 3.0, 1.0]]
    columns = ([0, 1, 0, 1, 0, 0, 1],
               [0, 1, 1, 0, 0, 1, 1],
               [0, 1, 2, 0, 0, 2, 3],
               [0.0, 0.25, 0.0, 3.0, 4.0, 1.0, 2.0])
    counts = [40, 25, 1, 6, 30, 1, 12]
    q, tops = [row[:] for row in start], []
    for update in zip(*_expand(columns, counts)):
        q = _restated(q, [[v] for v in update], 0.7, 0.9)
        tops.append(q[0][0] == max(q[0]))
    assert tops[0] and not tops[1] and tops[-1]
    for alpha in (0.7, 1.0, 0.0):
        q = [row[:] for row in start]
        table_update(q, *columns, alpha, 0.9, counts=counts)
        assert q == _restated(start, _expand(columns, counts), alpha, 0.9)

    # written collects the value each entry left in its cell
    q, written = [row[:] for row in start], []
    table_update(q, *columns, 0.7, 0.9, counts=counts, written=written)
    expected, values = [row[:] for row in start], []
    for k, count in enumerate(counts):
        expected = _restated(expected, _expand([c[k:k + 1] for c in columns],
                                               [count]), 0.7, 0.9)
        values.append(expected[columns[0][k]][columns[2][k]])
    assert written == values and q == expected

    # a negative reward at a run's head fails there: the earlier runs stay
    # applied and the entry is not written
    q = [row[:] for row in start]
    with pytest.raises(ValueError, match="nonnegative"):
        table_update(q, [0, 1, 1], [0, 1, 1], [0, 1, 2], [0.0, -1.0, 1.0],
                     0.7, 0.9, counts=[5, 3, 2])
    assert q == _restated(start, ([0] * 5, [0] * 5, [0] * 5, [0.0] * 5), 0.7, 0.9)

    # A run that turns non-finite mid-run: its second repeat overflows. The
    # entry keeps its first repeat's value, and the run before it stays.
    q = [[0.0, 0.0], [0.0, 0.0]]
    with pytest.raises(ValueError, match="finite"):
        table_update(q, [1, 0, 1], [1, 0, 1], [0, 1, 1], [1.0, 1e308, 1.0],
                     1.0, 0.9, counts=[3, 5, 2])
    finite = _restated([[0.0, 0.0], [0.0, 0.0]],
                       ([1, 1, 1, 0], [1, 1, 1, 0], [0, 0, 0, 1],
                        [1.0, 1.0, 1.0, 1e308]), 1.0, 0.9)
    assert q == finite and q[0][1] == 1e308

    # An s' != s run that turns non-finite: the run before it in the same
    # call lifts row 1's maximum to 1e308, so the target 1e308 + 0.9 *
    # 1e308 overflows. (With a fixed target each repeat moves the entry
    # toward it, so such a run fails on its first repeat.) The entry
    # keeps its value from before the run, and the run before it stays.
    q = [[0.0, 0.0], [0.0, 0.0]]
    with pytest.raises(ValueError, match="finite"):
        table_update(q, [1, 0], [0, 1], [0, 1], [1e308, 1e308],
                     1.0, 0.9, counts=[2, 3])
    assert q == [[0.0, 0.0], [1e308, 0.0]]

    # A NaN reward in a run of several repeats, with s' != s and with
    # s' == s: NaN passes the sign check and fails the finiteness check,
    # leaving the entry at its value from before the run; the earlier
    # runs stay applied.
    for next_state in (1, 0):
        q = [row[:] for row in start]
        columns = ([1, 0, 0], [0, 1, next_state], [2, 1, 0],
                   [2.0, 1.0, float("nan")])
        written = []
        with pytest.raises(ValueError, match="finite"):
            table_update(q, *columns, 0.7, 0.9, counts=[4, 2, 6],
                         written=written)
        expected = _restated(start, _expand([c[:2] for c in columns], [4, 2]),
                             0.7, 0.9)
        assert q == expected and q[0][0] == start[0][0] == 10.0
        assert written == [expected[1][2], expected[0][1]]

    # a counts column of the wrong length, or with an entry below 1, fails
    # before any update
    for bad in ([1, 2], [1, 2, 3, 4], [1, 0, 2], [3, -1, 1]):
        q = [row[:] for row in start]
        with pytest.raises(ValueError):
            table_update(q, [0, 1, 0], [0, 1, 1], [0, 1, 2], [1.0, 1.0, 1.0],
                         0.7, 0.9, counts=bad)
        assert q == start


# ---------------------------------------------------------- kept maximum

def _bits(q):
    """q as the hex strings of its floats, so that 0.0 and -0.0 differ."""
    return [[v.hex() for v in row] for row in q]


def _check_pass(start, columns, counts, alpha, gamma):
    """table_update of the run-length columns on a copy of start, bit for
    bit against _restated of the repeats written out one by one; returns
    the table."""
    q = [row[:] for row in start]
    table_update(q, *columns, alpha, gamma, counts=counts)
    assert _bits(q) == _bits(_restated(start, _expand(columns, counts),
                                       alpha, gamma))
    return q


@pytest.fixture
def rescans(monkeypatch):
    """The row scans table_update falls back to: max() over a row whose
    written entry is parked at -inf, appended to the returned list."""
    calls = []

    def counting_max(*args, **kwargs):
        if len(args) == 1 and isinstance(args[0], list) and -math.inf in args[0]:
            calls.append(args[0][:])
        return max(*args, **kwargs)

    monkeypatch.setattr(qfunc, "max", counting_max, raising=False)
    return calls


def test_kept_maximum_rescans_when_the_runner_up_falls(rescans):
    # Row 0 keeps action 0 (its maximum, 5.0) and 4.0, action 1's value, as
    # the maximum of the others. Entry 1 lowers action 1 below 4.0, so that
    # maximum is unknown: the row is scanned once and action 1 is kept,
    # with 5.0. Entry 3 lowers action 0, which held that 5.0: a second
    # scan. Entries 2 and 4 read row 0's maximum after each scan. In the
    # tied row the lowered action 1 shares 4.0 with action 2, and the row
    # is scanned all the same; there action 2 ends as row 0's maximum.
    for row0, top in (([5.0, 4.0, 3.0, 1.0], 3.5125), ([5.0, 4.0, 4.0, 1.0], 4.0)):
        start = [row0, [2.0, 0.0, 0.0, 0.0]]
        columns = ([0, 1, 0, 1], [1, 0, 1, 0], [1, 1, 0, 2], [0.0] * 4)
        rescans.clear()
        q = _check_pass(start, columns, [1] * 4, 0.5, 0.9)
        assert [scan[:2] for scan in rescans] == [[5.0, -math.inf],
                                                  [-math.inf, 2.9]]
        assert q[0][:2] == [3.5125, 2.9] and q[1][1:3] == [2.25, 0.45 * top]
    # as runs of repeats, s' != s and s' == s
    rescans.clear()
    _check_pass(start, ([0, 1, 0, 0], [1, 0, 0, 1], [1, 1, 0, 2], [0.0] * 4),
                [3, 2, 4, 5], 0.5, 0.9)
    assert rescans


def test_kept_maximum_overtaken_by_another_entry(rescans):
    # Row 0 keeps action 0. A write to action 2 lifts it above the row's
    # maximum: it becomes the maximum of the others and the row's maximum
    # in O(1), and entry 2 reads it as row 0's maximum. The s' == s runs on
    # the kept action read the others' maximum without a scan; the second
    # one takes the maximum back.
    start = [[5.0, 4.0, 3.0], [0.0, 0.0, 0.0]]
    columns = ([0, 1, 0, 0, 1], [1, 0, 0, 0, 0], [2, 0, 0, 0, 1],
               [20.0, 0.0, 1.0, 4.0, 0.5])
    for counts in ([1, 1, 4, 6, 1], [1, 1, 1, 1, 1], [3, 2, 4, 6, 2]):
        q = _check_pass(start, columns, counts, 0.5, 0.9)
    assert rescans == []
    assert q[0][0] > q[0][2] > 5.0


def test_kept_maximum_ties_and_signed_zeros():
    # Rows of tied maxima, signed zeros among them, under zero and -0.0
    # rewards and all three kinds of entry
    columns = ([0, 0, 1, 0, 1, 1, 0, 0, 1],
               [0, 1, 0, 0, 1, 1, 1, 0, 0],
               [1, 3, 0, 2, 1, 0, 1, 0, 3],
               [0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 0.0, 0.0, -0.0])
    for start in ([[-0.0, 0.0, -0.0, 0.0], [0.0, -0.0, 0.0, -0.0]],
                  [[-0.0, -0.0, -0.0, -0.0], [-0.0, 0.0, -0.0, -0.0]],
                  [[3.0, 3.0, 1.0, 3.0], [3.0, 2.0, 3.0, 0.0]]):
        for alpha in (0.0, 0.5, 1.0):
            for counts in ([1] * 9, [2, 1, 3, 4, 1, 2, 1, 5, 3]):
                _check_pass(start, columns, counts, alpha, 0.9)


def test_kept_maximum_runs_alternate_between_two_actions():
    # s' == s runs on two near-top actions of row 0 in turn: rewards first
    # let each fall below the other, then lift each above the other
    start = [[2.0, 1.9, 0.5, 1.95], [1.0, 0.0, 0.0, 0.0]]
    n = 10
    columns = ([0] * n, [0] * n, [0, 1] * (n // 2),
               [0.0, 0.1, 0.0, 0.3, 2.0, 0.0, 0.0, 3.0, 0.2, 0.2])
    for counts in ([5, 5, 6, 4, 3, 7, 2, 2, 9, 9], [2] * n):
        for alpha in (0.3, 1.0):
            _check_pass(start, columns, counts, alpha, 0.9)


def test_kept_maximum_random_columns_over_three_actions():
    # Large values against small rewards make the maxima fall; s' == s
    # half of the time, a tenth of the rewards zero, runs of 1 to 5, and
    # the same columns as several calls, each starting from the last
    rng = np.random.default_rng(26)
    n = 6000
    states = rng.integers(2, size=n)
    same = rng.random(n) < 0.5
    next_states = np.where(same, states, rng.integers(2, size=n))
    rewards = np.where(rng.random(n) < 0.1, 0.0, rng.uniform(0, 2, size=n))
    columns = (states.tolist(), next_states.tolist(),
               rng.integers(3, size=n).tolist(), rewards.tolist())
    counts = rng.integers(1, 6, size=n).tolist()
    start = rng.choice([8.0, 9.0, 10.0], size=(2, 3)).tolist()
    for alpha, gamma in ((0.5, 0.9), (0.05, 0.99), (1.0, 0.5)):
        q = _check_pass(start, columns, counts, alpha, gamma)
        step = [row[:] for row in start]
        for lo in range(0, n, 700):
            table_update(step, *(c[lo:lo + 700] for c in columns), alpha,
                         gamma, counts=counts[lo:lo + 700])
        assert _bits(step) == _bits(q)


def test_kept_maximum_failure_mid_pass():
    # Before the failing entry: action 0, the row's kept maximum, is
    # lowered to below its runner-up; action 2 overtakes; the runner-up is
    # lowered. The failing s' == s run on action 2 overflows on its 4th
    # repeat (5e307 per repeat on top of 1.1e307): the entry keeps its 3rd
    # repeat's value, the entries before it stay applied and written holds
    # their values alone.
    start = [[1e307, 9e306, 0.0], [0.0, 0.0, 0.0]]
    columns = ([0, 0, 0, 1, 0, 0, 1],
               [1, 1, 1, 0, 0, 1, 1],
               [0, 2, 1, 0, 2, 0, 1],
               [0.0, 1.1e307, 0.0, 1.0, 5e307, 1.0, 1.0])
    counts = [1, 1, 2, 3, 6, 1, 1]
    q, written = [row[:] for row in start], [7.0]
    with pytest.raises(ValueError, match="finite"):
        table_update(q, *columns, 1.0, 1.0, counts=counts, written=written)
    before = [c[:4] for c in columns]
    expected = _restated(start, _expand(before, counts[:4]), 1.0, 1.0)
    values = [7.0]
    for k in range(4):
        values.append(_restated(start, _expand([c[:k + 1] for c in columns],
                                               counts[:k + 1]), 1.0, 1.0)
                      [columns[0][k]][columns[2][k]])
    assert written == values
    # the failing entry's last finite value, its 3rd repeat
    assert expected[0][2] == 1.1e307
    expected = _restated(expected, ([0] * 3, [0] * 3, [2] * 3, [5e307] * 3),
                         1.0, 1.0)
    assert _bits(q) == _bits(expected) and q[0][2] == 1.1e307 + 3 * 5e307

    # A NaN reward ahead of a negative one: min() of the rewards may return
    # the NaN, yet the replay meets the NaN first; the other way round the
    # negative reward fails first. Either way the entries before it stay.
    for bad, match in (((float("nan"), -1.0), "finite"),
                       ((-1.0, float("nan")), "nonnegative")):
        q = [row[:] for row in start]
        with pytest.raises(ValueError, match=match):
            table_update(q, [1, 0, 1, 1], [1, 0, 1, 0], [0, 1, 2, 1],
                         [1.0, 2.0, *bad], 0.5, 0.9, counts=[2, 2, 3, 1])
        assert _bits(q) == _bits(_restated(start, _expand(
            ([1, 0], [1, 0], [0, 1], [1.0, 2.0]), [2, 2]), 0.5, 0.9))

    # a table that ends the pass non-finite without a failing update (an
    # entry no update writes) is replayed and left as the pass leaves it
    start = [[math.inf, 1.0, 0.0], [0.0, 0.0, 0.0]]
    q = [row[:] for row in start]
    table_update(q, [1, 0], [1, 1], [1, 2], [1.0, 1.0], 0.5, 0.9)
    assert _bits(q) == _bits(_restated(start, ([1, 0], [1, 1], [1, 2],
                                                [1.0, 1.0]), 0.5, 0.9))


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
    assert len(params.weights[0]) == 3 and params.layer_sizes == (2, 8, 18, 5)
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
    return _params(
        tuple(np.concatenate(layer) for layer in zip(*(p.weights for p in networks))),
        tuple(np.concatenate(layer) for layer in zip(*(p.biases for p in networks))),
        cap=networks[0].cap)


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
        # layer by layer, the weights of all n networks, then their biases
        # once per state
        assert params.flat.shape == (
            n * sum(a * b + 2 * b for a, b in zip(sizes, sizes[1:])),)
        for k, (w, b) in enumerate(zip(params.weights, params.biases)):
            assert w.shape == (n, sizes[k], sizes[k + 1])
            assert b.shape == (n, 2, sizes[k + 1])
            assert np.shares_memory(w, params.flat) and np.shares_memory(b, params.flat)
            for i, network in enumerate(networks):
                assert np.array_equal(w[i], network.weights[k][0])
                assert np.array_equal(b[i], network.biases[k][0])
        # network i of the stack is network i on its own
        for i, network in enumerate(networks):
            assert np.array_equal(q_matrix(params)[i], q_matrix(network)[0])


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
    unit-step update; checks every weight and bias. A bias is perturbed in
    both of its state rows, which hold one parameter."""
    new_params, _ = train_minibatch(params, *batch, target_max, alpha=1.0,
                                    gamma=gamma)
    worst = 0.0
    for li in range(len(params.weights)):
        w, b = params.weights[li][0], params.biases[li][0]
        # entry j of a view is one parameter: a weight, or a bias's two rows
        for view, analytic in (
                (w.reshape(-1, 1), (w - new_params.weights[li][0]).ravel()),
                (b.T, b[0] - new_params.biases[li][0, 0])):
            for j, ga in enumerate(analytic):
                orig = view[j].copy()
                view[j] = orig + h
                up = _loss_only(params, batch, target_max, gamma)
                view[j] = orig - h
                down = _loss_only(params, batch, target_max, gamma)
                view[j] = orig
                numeric = (up - down) / (2.0 * h)
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
    per-layer update. Returns the new weights and biases, the loss, the
    rounding scale of every new parameter (the same backward pass on
    absolute values: |activations|, |weights| and |Q(s, a)| + |target| in
    place of each error) and the loss's rounding scale, which bounds it."""
    b = len(states)
    rows = np.arange(b)
    weights, biases = _network(params, i)
    pre, post = _reference_forward(params, np.eye(2)[states], i)
    y = rewards + gamma * target_max[next_states]
    err = post[-1][rows, actions] - y
    loss = float(0.5 * np.mean(err ** 2))
    delta = np.zeros_like(post[-1])
    delta[rows, actions] = err / b
    err_scale = np.abs(post[-1][rows, actions]) + np.abs(y)
    scale = np.zeros_like(post[-1])
    scale[rows, actions] = err_scale / b
    n_layers = len(weights)
    new, scales = [None] * 2 * n_layers, [None] * 2 * n_layers
    for k in range(n_layers - 1, -1, -1):
        new[k] = weights[k] - alpha * (post[k].T @ delta)
        new[n_layers + k] = biases[k] - alpha * delta.sum(axis=0)
        scales[k] = np.abs(post[k]).T @ scale
        scales[n_layers + k] = scale.sum(axis=0)
        if k > 0:
            z = pre[k - 1]
            inside = (z > 0.0) & (z < params.cap)
            delta = (delta @ weights[k].T) * inside
            scale = (scale @ np.abs(weights[k]).T) * inside
    return new, loss, scales, float(0.5 * np.mean(err_scale ** 2))


# The step and _reference_step compute the same sums, grouped differently:
# the step adds each (state, action) cell's errors first. Each side's
# rounding error is then at most about n * eps times its rounding scale,
# n the longest chain of additions (up to 64 samples, then 18, 14 and 8
# units: about 100). ROUNDING allows both sides that, with room to spare.
ROUNDING = 256 * np.finfo(float).eps


def test_train_minibatch_matches_per_sample_reference():
    """To rounding, on the learner's network (one output per action of the
    default 14-action space, whatever the number of radios), over batches
    of 25 and of random sizes from 2 to 64 rows, for one network and for
    each network of a stack of three: every new parameter within
    alpha * ROUNDING of its rounding scale (plus one ulp for the final
    subtraction), and the loss within ROUNDING of its own. Zero-mean
    weights, scaled up on every other trial, put hidden units below 0,
    inside (0, cap) and above cap, differently for the two states."""
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
            want, ref_loss, scales, loss_scale = _reference_step(
                params, *(c[i] for c in batch), target_max[i], alpha, 0.9, i)
            assert abs(loss[i] - ref_loss) <= ROUNDING * loss_scale
            got_weights, got_biases = _network(new_params, i)
            for got, w, s in zip(got_weights + got_biases, want, scales):
                assert np.all(np.abs(got - w) <= alpha * ROUNDING * s
                              + np.spacing(np.abs(w)))
            _, post = _reference_forward(new_params, np.eye(2), i)
            assert np.array_equal(q_matrix(new_params)[i], post[-1])
    # units below 0 (-2), inside (0, cap) (0) and above cap (2) all occurred,
    # and some unit was active for one state only (True)
    assert {-2.0, 0.0, 2.0, True} <= unit_regions


def _two_row_step(params, states, next_states, actions, rewards, target_max,
                  alpha, gamma, i=0):
    """train_minibatch restated on the two state rows for network i: the
    errors of the cached two-state pass, added into their (state, action)
    cells one sample at a time in sample order, then the backward pass
    on the two rows of the sums. Returns the new weights and biases."""
    b = len(states)
    weights, biases = _network(params, i)
    pre, post = _reference_forward(params, np.eye(2), i)
    y = rewards + gamma * target_max[next_states]
    err = post[-1][states, actions] - y
    delta = np.zeros((2, params.n_actions))
    for s, a, e in zip(states, actions, err / b):
        delta[s, a] += e
    n_layers = len(weights)
    new = [None] * 2 * n_layers
    for k in range(n_layers - 1, 0, -1):
        new[k] = weights[k] - alpha * (post[k].T @ delta)
        new[n_layers + k] = biases[k] - alpha * (delta[0] + delta[1])
        z = pre[k - 1]
        delta = (delta @ weights[k].T) * ((z > 0.0) & (z < params.cap))
    # eye(2).T @ delta is delta
    new[0] = weights[0] - alpha * delta
    new[n_layers] = biases[0] - alpha * (delta[0] + delta[1])
    return new


@pytest.mark.parametrize("n", [1, 3])
def test_train_minibatch_is_the_two_row_step(n):
    """Bit for bit: the step is the two-row step restated above, for one
    network and for each network of a stack of three, on batches of 25 and
    of 1 to 64 rows (a cell may then hold no sample or many), with hidden
    units on both sides of 0 and of cap. The new parameters' Q matrices
    are the two-state pass of the restated parameters."""
    rng = np.random.default_rng(1355 + n)
    sizes = (2, 8, 18, 14)
    for trial in range(60):
        scale = 8.0 if trial % 2 else 1.0
        params = _stack([_params(
            tuple(scale * rng.normal(size=(a, b)) for a, b in zip(sizes, sizes[1:])),
            tuple(rng.normal(size=b) for b in sizes[1:])) for _ in range(n)])
        target_max = rng.uniform(0, 5, size=(n, 2))
        b = 25 if trial % 3 else int(rng.integers(1, 65))
        batch = (rng.integers(2, size=(n, b)), rng.integers(2, size=(n, b)),
                 rng.integers(14, size=(n, b)), rng.uniform(0, 12, size=(n, b)))
        alpha = float(rng.choice([1e-4, 0.05, 1.0]))
        new_params, _ = train_minibatch(params, *batch, target_max, alpha, 0.9)
        for i in range(n):
            want = _two_row_step(params, *(c[i] for c in batch), target_max[i],
                                 alpha, 0.9, i)
            got_weights, got_biases = _network(new_params, i)
            for got, w in zip(got_weights + got_biases, want):
                assert np.array_equal(got, w)
            restated = _params(want[:3], want[3:])
            assert np.array_equal(q_matrix(new_params)[i], q_matrix(restated)[0])


def test_descent_hands_on_the_two_state_pass_it_computed():
    """A DQL phase reads each new block's Q matrices from the descent and
    takes its parameters after the last update. q_matrix of those
    parameters is the pass the descent computed, held in a read-only copy
    that does not keep the descent's snapshots alive; each pass equals
    that of a fresh copy of its block; and the caller's block is left as
    it was."""
    rng = np.random.default_rng(61)
    n, b, n_updates = 3, 25, 5
    params = _init(rng, n)
    before = params.flat.copy()
    columns = (rng.integers(2, size=(n, b * n_updates)),
               rng.integers(2, size=(n, b * n_updates)),
               rng.integers(14, size=(n, b * n_updates)),
               rng.uniform(0, 12, size=(n, b * n_updates)))
    descent = _Descent(params, *columns, n_updates, 0.001, 0.9)
    with np.errstate(over="ignore", invalid="ignore"):
        targets = descent.targets(q_matrix(params).max(axis=2), 0, n_updates)
        for u in range(n_updates):
            descent.run(targets[u:u + 1])
            q = descent.q
            fresh = select_networks(descent.params(), list(range(n)))
            assert np.array_equal(q, q_matrix(fresh))
    handed = q_matrix(descent.params())
    assert np.array_equal(handed, q)
    assert handed.base is None and not handed.flags.writeable
    assert not np.shares_memory(handed, descent.snapshots)
    assert np.array_equal(params.flat, before)


def _single_step(params, i, batch, target_max, alpha, gamma):
    """train_minibatch on network i of a stack alone: (its parameters,
    loss) or the FloatingPointError text."""
    single = select_networks(params, [i])
    try:
        new, loss = train_minibatch(single, *(c[i] for c in batch),
                                    target_max[i], alpha, gamma)
    except FloatingPointError as exc:
        return str(exc)
    return new.flat, float(loss[0])


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
        for i in diverging:
            if trial % 2:
                for view in params.weights + params.biases:
                    view[i] *= 1e300    # the gradient overflows
            else:
                # huge output biases: the update overflows
                params.biases[-1][i] = 1e300
                alpha = 1e10
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
            params = select_networks(params, keep)
            batch = tuple(c[keep] for c in batch)
            target_max = target_max[keep]
            single = [single[i] for i in keep]
        new_params, loss = train_minibatch(params, *batch, target_max, alpha, 0.9)
        for row, want in enumerate(single):
            assert np.array_equal(select_networks(new_params, [row]).flat, want[0])
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
