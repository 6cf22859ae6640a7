import math

import numpy as np
import pytest

from crpower.topology import (
    ConfigurationError,
    GridSpec,
    NodePlacement,
    pairwise_wrap_distances,
    sample_placement,
)


def pair_distance(a, b, spec):
    """pairwise_wrap_distances on one-point arrays."""
    one = [np.asarray(p, dtype=float).reshape(1, 2) for p in (a, b)]
    return float(pairwise_wrap_distances(*one, spec)[0, 0])


def test_default_spec():
    spec = GridSpec()
    assert spec.extent == (600.0, 600.0)
    assert spec.coverage_radius_m == 100.0


def test_invalid_specs_rejected():
    with pytest.raises(ConfigurationError):
        GridSpec(active_ap_count=10)           # exceeds 3x3 grid
    for spacing in (0.0, float("nan")):
        with pytest.raises(ConfigurationError):
            GridSpec(spacing_m=spacing)
    with pytest.raises(ConfigurationError):
        GridSpec(active_ap_count=0)


def test_wrap_distance_identity_and_hand_value():
    spec = GridSpec()
    assert pair_distance((123.0, 456.0), (123.0, 456.0), spec) == 0.0
    # (0,0) to (400,400) on a 600 m torus: 200 per axis -> sqrt(80000)
    d = pair_distance((0.0, 0.0), (400.0, 400.0), spec)
    assert d == pytest.approx(np.sqrt(2.0) * 200.0, abs=1e-9)
    assert d == pytest.approx(282.8427, abs=1e-3)


def test_wrap_distance_symmetry_and_half_extent_bound():
    spec = GridSpec()
    rng = np.random.default_rng(0)
    pts = rng.uniform(0, 600, size=(50, 2))
    for a, b in zip(pts[:25], pts[25:]):
        assert pair_distance(a, b, spec) == pytest.approx(
            pair_distance(b, a, spec), abs=1e-12)
        # no per-axis displacement exceeds half the extent
        assert pair_distance(a, b, spec) <= np.sqrt(2.0) * 300.0 + 1e-9
    mat = pairwise_wrap_distances(pts, pts, spec)
    np.testing.assert_allclose(mat, mat.T, rtol=0.0, atol=1e-12)
    assert np.all(np.diag(mat) == 0.0)
    assert mat.max() <= np.sqrt(2.0) * 300.0 + 1e-9


def test_toroidal_triangle_inequality():
    spec = GridSpec()
    rng = np.random.default_rng(7)
    pts = rng.uniform(0, 600, size=(60, 2))
    for a, b, c in zip(pts[:20], pts[20:40], pts[40:]):
        dab = pair_distance(a, b, spec)
        dbc = pair_distance(b, c, spec)
        dac = pair_distance(a, c, spec)
        assert dac <= dab + dbc + 1e-9
    # every triple: d[i, k] <= d[i, j] + d[j, k]
    d = pairwise_wrap_distances(pts, pts, spec)
    assert np.all(d[:, None, :] <= d[:, :, None] + d[None, :, :] + 1e-9)


def test_sample_placement_determinism():
    spec = GridSpec()
    p1 = sample_placement(spec, 2, np.random.default_rng(42))
    p2 = sample_placement(spec, 2, np.random.default_rng(42))
    assert p1.active_ap_indices == p2.active_ap_indices
    np.testing.assert_array_equal(p1.pn_rx_positions, p2.pn_rx_positions)
    np.testing.assert_array_equal(p1.cr_tx_positions, p2.cr_tx_positions)
    np.testing.assert_array_equal(p1.cr_rx_positions, p2.cr_rx_positions)
    assert len(p1.active_ap_indices) == 7 and p1.n_cr == 2


def test_sample_placement_invariants():
    spec = GridSpec()
    rng = np.random.default_rng(3)
    for _ in range(50):
        p = sample_placement(spec, 2, rng)
        assert len(set(p.active_ap_indices)) == 7
        for pos in (p.pn_rx_positions, p.cr_tx_positions, p.cr_rx_positions):
            assert np.all(pos >= 0.0) and np.all(pos[:, 0] < 600.0)
            assert np.all(pos[:, 1] < 600.0)
        # receivers stay within radius of their transmitter (torus metric)
        for k, ap_idx in enumerate(p.active_ap_indices):
            d = pair_distance(p.ap_positions[ap_idx], p.pn_rx_positions[k], spec)
            assert d <= spec.coverage_radius_m + 1e-9
        for j in range(p.n_cr):
            d = pair_distance(p.cr_tx_positions[j], p.cr_rx_positions[j], spec)
            assert d <= 50.0 + 1e-9


def test_cr_rx_distance_distribution():
    # 10^4 samples: distances supported on [0, 50] and spread over it
    spec = GridSpec()
    rng = np.random.default_rng(11)
    dists = []
    for _ in range(5000):
        p = sample_placement(spec, 2, rng)
        for j in range(2):
            dists.append(pair_distance(p.cr_tx_positions[j],
                                       p.cr_rx_positions[j], spec))
    dists = np.asarray(dists)
    assert dists.min() >= 0.0
    assert dists.max() <= 50.0 + 1e-9
    assert dists.max() > 49.0          # the support is actually reached
    # uniform over the disk means E[d] = 2/3 * 50
    assert np.mean(dists) == pytest.approx(100.0 / 3.0, rel=0.03)


def test_placement_json_roundtrip():
    p = sample_placement(GridSpec(), 2, np.random.default_rng(5))
    q = NodePlacement.from_json(p.to_json())
    assert q.active_ap_indices == p.active_ap_indices
    np.testing.assert_allclose(q.pn_rx_positions, p.pn_rx_positions)
    np.testing.assert_allclose(q.cr_rx_positions, p.cr_rx_positions)
    assert q.grid == p.grid


def test_pairwise_matches_scalar():
    """Each entry is the scalar toroidal distance of its pair, and equals
    the distance computed on that pair alone."""
    spec = GridSpec()
    rng = np.random.default_rng(9)
    a = rng.uniform(0, 600, size=(4, 2))
    b = rng.uniform(0, 600, size=(3, 2))
    mat = pairwise_wrap_distances(a, b, spec)
    assert mat.shape == (4, 3)
    for i in range(4):
        for j in range(3):
            dx, dy = (min(abs(u - v), 600.0 - abs(u - v)) for u, v in zip(a[i], b[j]))
            assert mat[i, j] == pytest.approx(math.hypot(dx, dy), abs=1e-9)
            assert mat[i, j] == pair_distance(a[i], b[j], spec)
