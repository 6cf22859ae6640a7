import numpy as np
import pytest

from crpower.channel import (
    ChannelGains,
    SHADOWING_STD_DB,
    build_gains,
    dbm_to_mw,
    path_gain,
    sn_sinrs,
)
from crpower.topology import GridSpec, sample_placement


def test_path_gain_hand_value():
    # 200 m, no shadowing: 128.1 + 37.6*log10(0.2) + 10 = 111.819 dB
    g = path_gain(200.0, 0.0)
    assert 10.0 * np.log10(g) == pytest.approx(-111.819, abs=2e-3)
    assert g == pytest.approx(6.577e-12, rel=1e-3)


def test_path_gain_log_linearity():
    # +10 dB shadowing scales the gain by exactly 0.1, elementwise
    d = np.array([50.0, 200.0, 555.0])
    np.testing.assert_allclose(path_gain(d, 10.0), 0.1 * path_gain(d, 0.0),
                               rtol=1e-12)
    shadow = np.array([0.0, 10.0, -3.0])
    for di, si, g in zip(d, shadow, path_gain(d, shadow)):
        assert g == pytest.approx(path_gain(di, si), rel=1e-15)


def test_path_gain_distance_clamp_and_errors():
    assert path_gain(0.5) == path_gain(1.0)
    np.testing.assert_array_equal(path_gain(np.array([0.0, 0.5, 1.0])),
                                  path_gain(1.0))
    with pytest.raises(ValueError):
        path_gain(float("nan"))
    with pytest.raises(ValueError):
        path_gain(100.0, float("inf"))
    with pytest.raises(ValueError):
        path_gain(np.array([100.0, np.nan]))


def test_shadowing_statistics():
    rng = np.random.default_rng(123)
    placement = sample_placement(GridSpec(), 2, rng)
    # recover shadowing samples by inverting the loss model on g_pp draws
    samples = []
    for _ in range(300):
        gains = build_gains(placement, rng)
        base = path_gain(_distances(placement))
        shadow_db = 10.0 * np.log10(base / gains.g_pp)
        samples.append(shadow_db.ravel())
    samples = np.concatenate(samples)
    assert abs(np.mean(samples)) < 0.05 * SHADOWING_STD_DB
    assert np.std(samples) == pytest.approx(SHADOWING_STD_DB, rel=0.05)


def _distances(placement):
    from crpower.topology import pairwise_wrap_distances
    return pairwise_wrap_distances(placement.active_ap_positions,
                                   placement.pn_rx_positions, placement.grid)


def test_dbm_roundtrip():
    values = np.array([-130.0, -20.0, 0.0, 17.5, 40.0])
    back = 10.0 * np.log10(dbm_to_mw(values))
    np.testing.assert_allclose(back, values, rtol=1e-12)


def _single_link_gains(g: float, noise: float = 1e-13) -> ChannelGains:
    tiny = 1e-30
    return ChannelGains(
        g_pp=np.array([[g]]),
        g_ps=np.array([[tiny]]),
        g_ss=np.array([[tiny]]),
        g_sp=np.array([[tiny]]),
        noise_power_mw=noise,
    )


def test_sn_sinr_zero_when_off_and_degenerate_case():
    gains = _single_link_gains(1e-9)
    gains = ChannelGains(gains.g_pp, gains.g_ps, np.array([[1e-9]]),
                         gains.g_sp, gains.noise_power_mw)
    pn_mw = dbm_to_mw(np.array([-20.0]))
    assert sn_sinrs(gains, pn_mw, np.array([0.0]))[0] == 0.0
    # lone CR, negligible PN interference: gamma = G*P/noise
    expected = 1e-9 * 1.0 / (1e-30 * dbm_to_mw(-20.0) + 1e-13)
    assert sn_sinrs(gains, pn_mw, np.array([1.0]))[0] == pytest.approx(
        expected, rel=1e-9)


def test_symmetric_cr_links_have_identical_sinr():
    own, cross, pn_leak = 1e-9, 1e-12, 1e-13
    gains = ChannelGains(
        g_pp=np.array([[1e-10]]),
        g_ps=np.array([[1e-13], [1e-13]]),
        g_ss=np.array([[own, cross], [cross, own]]),
        g_sp=np.array([[pn_leak, pn_leak]]),
    )
    sn = sn_sinrs(gains, dbm_to_mw(np.array([10.0])), np.array([0.5, 0.5]))
    assert sn[0] == pytest.approx(sn[1], rel=1e-12)


def test_sinr_monotonicity_in_powers():
    rng = np.random.default_rng(8)
    placement = sample_placement(GridSpec(), 2, rng)
    gains = build_gains(placement, rng)
    pn_mw = dbm_to_mw(np.full(gains.n_pn, 20.0))
    # one batched call: rows are (base, more own power, more interference)
    cr_mw = np.array([[0.1, 0.2], [0.2, 0.2], [0.1, 0.4]])
    sn = sn_sinrs(gains, pn_mw, cr_mw)
    low, high, more_interf = sn[:, 0]
    assert high > low
    assert more_interf < low


def _scalar_sinrs(gains, pn_mw, cr_mw):
    """Reference: each CR link's SINR from scalar sums over transmitters."""
    sn = []
    for i in range(gains.n_cr):
        other = sum(gains.g_ss[j, i] * cr_mw[j]
                    for j in range(gains.n_cr) if j != i)
        pn_interf = sum(gains.g_sp[m, i] * pn_mw[m] for m in range(gains.n_pn))
        sn.append(gains.g_ss[i, i] * cr_mw[i]
                  / (other + pn_interf + gains.noise_power_mw))
    return np.array(sn)


def test_all_sinrs_matches_scalar_ops():
    """sn_sinrs gives every CR link's SINR as scalar sums do."""
    rng = np.random.default_rng(21)
    placement = sample_placement(GridSpec(), 2, rng)
    gains = build_gains(placement, rng)
    pn_mw = dbm_to_mw(rng.uniform(-20, 40, gains.n_pn))
    cr_mw = np.array([0.0, 3.0])
    np.testing.assert_allclose(sn_sinrs(gains, pn_mw, cr_mw),
                               _scalar_sinrs(gains, pn_mw, cr_mw), rtol=1e-12)
    # a (K, N) block of CR powers gives one row per assignment
    block = np.array([[0.0, 3.0], [1.0, 0.0], [0.5, 2.0]])
    sn_k = sn_sinrs(gains, pn_mw, block)
    assert sn_k.shape == (3, 2)
    for row, s in zip(block, sn_k):
        np.testing.assert_allclose(s, _scalar_sinrs(gains, pn_mw, row),
                                   rtol=1e-12)
    with pytest.raises(ValueError):
        sn_sinrs(gains, pn_mw, np.zeros(3))
    with pytest.raises(ValueError):
        sn_sinrs(gains, pn_mw[:-1], cr_mw)


def test_gain_validation():
    with pytest.raises(ValueError):
        _single_link_gains(2.0)        # gains must be <= 1
    # every check is written so that NaN fails too
    for g in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match=r"g_pp entries must lie in \(0, 1\]"):
            _single_link_gains(g)
    for noise in (0.0, -1e-13, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="noise power must be positive"):
            _single_link_gains(1e-10, noise=noise)
    good = _single_link_gains(1e-10)
    with pytest.raises(ValueError, match="g_sp entries"):
        ChannelGains(good.g_pp, good.g_ps, good.g_ss, np.array([[np.nan]]))


def test_gains_json_roundtrip():
    rng = np.random.default_rng(31)
    placement = sample_placement(GridSpec(), 2, rng)
    gains = build_gains(placement, rng)
    back = ChannelGains.from_json(gains.to_json())
    np.testing.assert_allclose(back.g_pp, gains.g_pp)
    np.testing.assert_allclose(back.g_ss, gains.g_ss)
    assert back.noise_power_mw == gains.noise_power_mw
