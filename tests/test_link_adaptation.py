import numpy as np
import pytest

from crpower.link_adaptation import (
    AmcTable,
    amc_mode,
    relative_throughput_change,
)


def shannon_reference_table(snr_gap=1.0, snr_min_db=-10.0, snr_max_db=40.0,
                            n_rows=2000, max_efficiency=None) -> AmcTable:
    """Dense table on the gap-adjusted Shannon curve log2(1 + snr/gap), an
    idealized AMC reference; max_efficiency caps the top mode."""
    thr = np.linspace(snr_min_db, snr_max_db, n_rows)
    eff = np.log2(1.0 + (10.0 ** (thr / 10.0)) / snr_gap)
    if max_efficiency is not None:
        eff = np.minimum(eff, max_efficiency)
    return AmcTable(thr, eff, snr_gap=snr_gap)


def throughput(sinr, table):
    """Mbps of the best AMC mode each SINR supports, as the outcome
    tensor reads it."""
    return table.mode_throughputs_mbps[amc_mode(sinr, table)]


def test_default_table_shape():
    table = AmcTable.default()
    assert len(table.snr_thresholds_db) == 15
    assert table.snr_thresholds_db[0] == -6.0
    assert table.snr_thresholds_db[-1] == 20.0
    assert table.spectral_efficiencies[0] == 0.15
    assert table.spectral_efficiencies[-1] == 6.0
    assert table.bandwidth_hz == 180_000.0


def test_throughput_floor_and_ceiling():
    table = AmcTable.default()
    below = 10.0 ** (-7.0 / 10.0)       # -7 dB, under the lowest threshold
    assert throughput(below, table) == 0.0
    assert throughput(0.0, table) == 0.0
    above = 10.0 ** (25.0 / 10.0)
    # 6 b/s/Hz * 180 kHz = 1.08 Mbps
    assert throughput(above, table) == pytest.approx(1.08, abs=1e-12)
    # the top mode caps it however high the SINR
    assert throughput(1e12, table) == pytest.approx(1.08)


def test_throughput_monotone_over_sweep():
    table = AmcTable.default()
    sweep = 10.0 ** (np.linspace(-10.0, 30.0, 400) / 10.0)
    tputs = [throughput(s, table) for s in sweep]
    assert all(b >= a for a, b in zip(tputs, tputs[1:]))


def test_throughput_rejects_bad_input():
    with pytest.raises(ValueError, match="nonnegative"):
        amc_mode(-1.0, AmcTable.default())


def test_table_validation():
    with pytest.raises(ValueError):
        AmcTable(np.array([]), np.array([]))
    with pytest.raises(ValueError):
        AmcTable(np.array([0.0, 0.0]), np.array([1.0, 2.0]))   # not increasing
    with pytest.raises(ValueError):
        AmcTable(np.array([0.0, 1.0]), np.array([2.0, 1.0]))   # decreasing eff
    # NaN passes every ordering comparison, so non-finite entries are
    # rejected on their own
    for thr, eff in (([0.0, np.nan], [0.15, 0.5]), ([np.nan, 1.0], [0.15, 0.5]),
                     ([0.0, np.inf], [0.15, 0.5]), ([0.0, 1.0], [0.15, np.nan]),
                     ([0.0, 1.0], [np.nan, 0.5]), ([0.0, 1.0], [0.15, np.inf])):
        with pytest.raises(ValueError, match="must be finite"):
            AmcTable(np.array(thr), np.array(eff))
    for name in ("xi", "snr_gap", "bandwidth_hz"):
        for value in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError, match=f"{name} must be positive"):
                AmcTable(np.array([0.0]), np.array([1.0]), **{name: value})


def test_relative_change_hand_value():
    # xi=4, gap=1, I=0 dB: -(1/4)*log2(2) = -0.25 exactly
    table = AmcTable.default(xi=4.0, snr_gap=1.0)
    assert relative_throughput_change(0.0, table) == pytest.approx(
        -0.25, abs=1e-12)


def test_relative_change_limits_and_monotonicity():
    table = AmcTable.default(xi=4.0, snr_gap=1.0)
    assert relative_throughput_change(float("-inf"), table) == 0.0
    grid = np.linspace(-30.0, 30.0, 100)
    values = [relative_throughput_change(i, table) for i in grid]
    assert all(v <= 0.0 for v in values)
    mags = [-v for v in values]
    assert all(b > a for a, b in zip(mags, mags[1:]))


def test_csv_roundtrip(tmp_path):
    path = tmp_path / "amc.csv"
    path.write_text("snr_db,spectral_efficiency\n-3.0,0.5\n5.0,2.0\n")
    table = AmcTable.from_csv(path, xi=3.0, snr_gap=2.0)
    assert table.xi == 3.0 and table.snr_gap == 2.0
    np.testing.assert_allclose(table.snr_thresholds_db, [-3.0, 5.0])
    np.testing.assert_allclose(table.spectral_efficiencies, [0.5, 2.0])


def test_shannon_reference_default_is_uncapped():
    table = shannon_reference_table()
    thr = table.snr_thresholds_db
    expected = np.log2(1.0 + 10.0 ** (thr / 10.0) / table.snr_gap)
    np.testing.assert_allclose(table.spectral_efficiencies, expected,
                               rtol=0.0, atol=1e-12)
    assert table.spectral_efficiencies[-1] > 6.0


def test_shannon_reference_opt_in_cap():
    table = shannon_reference_table(max_efficiency=6.0)
    thr = table.snr_thresholds_db
    eff = table.spectral_efficiencies
    above = thr > 10.0 * np.log10(63.0)     # log2(1 + 63) = 6 b/s/Hz
    assert above.any() and (~above).any()
    assert np.all(eff[above] == 6.0)
    np.testing.assert_allclose(
        eff[~above], np.log2(1.0 + 10.0 ** (thr[~above] / 10.0)),
        rtol=0.0, atol=1e-12)
    assert throughput(10.0 ** 3.0, table) == pytest.approx(1.08, abs=1e-12)


def test_step_map_consistent_with_closed_form():
    """Dense Shannon-gap table: measured relative throughput change under
    added interference tracks the closed form within 5% at high SINR."""
    table = shannon_reference_table(snr_gap=1.0, snr_min_db=-10.0,
                                    snr_max_db=45.0, n_rows=4000)
    noise = 1.0
    signal = 10.0 ** 3.0               # 30 dB SNR operating point
    base = throughput(signal / noise, table)
    xi_operating = base / (table.bandwidth_hz / 1e6)
    for i_db in np.linspace(-5.0, 10.0, 16):
        interference = noise * 10.0 ** (i_db / 10.0)
        degraded = throughput(signal / (noise + interference), table)
        measured = (degraded - base) / base
        predicted = -np.log2(1.0 + 10.0 ** (i_db / 10.0)) / xi_operating
        assert measured == pytest.approx(predicted, rel=0.05)
