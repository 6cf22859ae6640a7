"""SINR-to-throughput mapping and the relative throughput change it implies.

Adaptive modulation and coding is abstracted as a monotone step table from
SINR to spectral efficiency. The primary network's sensitivity to
secondary interference is the closed form

    T% = -(1/xi) * log2(1 + gap * 10^(I/10))

with I the secondary interference expressed in dB relative to the
background noise power.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import cached_property
from importlib import resources

import numpy as np

__all__ = [
    "AmcTable",
    "amc_mode",
    "relative_throughput_change",
]


@dataclass(frozen=True)
class AmcTable:
    """Step map from SINR (dB thresholds) to spectral efficiency (b/s/Hz).

    xi is the primary-link spectral efficiency with no secondary
    transmission and gap the SNR gap of practical coding; both enter only
    the relative-throughput-change formula.
    """

    snr_thresholds_db: np.ndarray
    spectral_efficiencies: np.ndarray
    bandwidth_hz: float = 180_000.0
    snr_gap: float = 1.0
    xi: float = 4.0

    def __post_init__(self):
        thr = np.asarray(self.snr_thresholds_db, dtype=float)
        eff = np.asarray(self.spectral_efficiencies, dtype=float)
        if thr.size == 0:
            raise ValueError("AMC table is empty")
        if thr.size != eff.size:
            raise ValueError("thresholds and efficiencies differ in length")
        if not (np.all(np.isfinite(thr)) and np.all(np.isfinite(eff))):
            raise ValueError("SNR thresholds and efficiencies must be finite")
        if np.any(np.diff(thr) <= 0):
            raise ValueError("SNR thresholds must be strictly increasing")
        if np.any(eff < 0) or np.any(np.diff(eff) < 0):
            raise ValueError("efficiencies must be nonnegative and nondecreasing")
        # written so that NaN fails too
        for name in ("xi", "snr_gap", "bandwidth_hz"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        object.__setattr__(self, "snr_thresholds_db", thr)
        object.__setattr__(self, "spectral_efficiencies", eff)

    @cached_property
    def mode_throughputs_mbps(self) -> np.ndarray:
        """Throughput in Mbps of each amc_mode index: 0 for no mode, then
        one entry per table row."""
        return (np.concatenate(([0.0], self.spectral_efficiencies))
                * self.bandwidth_hz / 1e6)

    @staticmethod
    def from_csv(path, **kwargs) -> "AmcTable":
        """Load rows from a CSV with header ``snr_db,spectral_efficiency``."""
        thresholds, efficiencies = [], []
        with open(path, newline="") as fh:
            for row in csv.DictReader(fh):
                thresholds.append(float(row["snr_db"]))
                efficiencies.append(float(row["spectral_efficiency"]))
        return AmcTable(np.array(thresholds), np.array(efficiencies), **kwargs)

    @staticmethod
    def default(**kwargs) -> "AmcTable":
        """The packaged 15-row CQI-like table (-6..20 dB, 0.15..6 b/s/Hz)."""
        ref = resources.files("crpower").joinpath("data/default_amc.csv")
        with resources.as_file(ref) as path:
            return AmcTable.from_csv(path, **kwargs)


def amc_mode(sinr, table: AmcTable):
    """Index of the best AMC mode each SINR supports: 0 below the lowest
    threshold, else 1 + the table row.

    The table is evaluated on the SINR in dB, so sinr must be a
    nonnegative linear ratio. Elementwise over arrays; a scalar gives a
    scalar.
    """
    sinr = np.asarray(sinr, dtype=float)
    if np.any(sinr < 0):
        raise ValueError("SINR must be a nonnegative linear ratio")
    with np.errstate(divide="ignore"):
        sinr_db = 10.0 * np.log10(sinr)          # -inf for a silent link
    return np.searchsorted(table.snr_thresholds_db, sinr_db, side="right")


def relative_throughput_change(interference_over_noise_db, table: AmcTable):
    """Fractional primary throughput change caused by secondary interference.

    Always <= 0; -inf interference (no secondary transmission) gives 0.
    Elementwise over arrays; a scalar gives a scalar.
    """
    ratio = 10.0 ** (np.asarray(interference_over_noise_db, dtype=float) / 10.0)
    return -np.log2(1.0 + table.snr_gap * ratio) / table.xi
