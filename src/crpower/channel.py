"""Channel gains and SINR arithmetic.

Gains follow a log-distance loss model with fixed penetration loss and
lognormal shadowing; every internal power is linear mW and conversions to
dB happen only at the boundaries, so sn_sinrs takes the primary and the
CR powers in mW. It gives the secondary links' SINRs alone: no state or
reward reads a primary link's SINR under CR transmission. The loss model
and the SINRs are vectorised, so one call covers a whole gain matrix or
every joint action of a scenario at once.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .topology import GridSpec, NodePlacement, pairwise_wrap_distances

__all__ = [
    "ChannelGains",
    "path_gain",
    "build_gains",
    "sn_sinrs",
    "received_power_mw",
    "dbm_to_mw",
]

# Loss model constants: fixed offset + distance slope (d in km) + penetration.
PATHLOSS_OFFSET_DB = 128.1
PATHLOSS_SLOPE_DB = 37.6
PENETRATION_LOSS_DB = 10.0
SHADOWING_STD_DB = 6.0

NOISE_POWER_MW = 1e-13          # -130 dBm AWGN on every link


def dbm_to_mw(dbm):
    return 10.0 ** (np.asarray(dbm, dtype=float) / 10.0)


def path_gain(distance_m, shadowing_db=0.0):
    """Linear power gain of links at the given distances, elementwise.

    loss_dB = 128.1 + 37.6*log10(d_km) + 10 + S, with the distance clamped
    to 1 m below that.
    """
    d = np.asarray(distance_m, dtype=float)
    shadowing_db = np.asarray(shadowing_db, dtype=float)
    if not (np.all(np.isfinite(d)) and np.all(np.isfinite(shadowing_db))):
        raise ValueError("distance and shadowing must be finite")
    d_km = np.maximum(d, 1.0) / 1000.0
    loss_db = (PATHLOSS_OFFSET_DB + PATHLOSS_SLOPE_DB * np.log10(d_km)
               + PENETRATION_LOSS_DB + shadowing_db)
    return 10.0 ** (-loss_db / 10.0)


@dataclass(frozen=True)
class ChannelGains:
    """Linear gains between every transmitter/receiver pair of interest.

    Indexing is [transmitter, receiver]:
      g_pp[m, k]  active AP m   -> PN receiver k
      g_ps[j, k]  CR tx j       -> PN receiver k
      g_ss[j, i]  CR tx j       -> CR receiver i
      g_sp[m, i]  active AP m   -> CR receiver i
    """

    g_pp: np.ndarray
    g_ps: np.ndarray
    g_ss: np.ndarray
    g_sp: np.ndarray
    noise_power_mw: float = NOISE_POWER_MW

    def __post_init__(self):
        m = self.g_pp.shape[0]
        n = self.g_ss.shape[0]
        if self.g_pp.shape != (m, m) or self.g_ss.shape != (n, n):
            raise ValueError("g_pp and g_ss must be square")
        if self.g_ps.shape != (n, m) or self.g_sp.shape != (m, n):
            raise ValueError("cross matrices inconsistent with g_pp/g_ss")
        # written so that NaN fails too
        for name in ("g_pp", "g_ps", "g_ss", "g_sp"):
            g = getattr(self, name)
            if not np.all((g > 0.0) & (g <= 1.0)):
                raise ValueError(f"{name} entries must lie in (0, 1]")
        if not 0.0 < self.noise_power_mw < np.inf:
            raise ValueError("noise power must be positive and finite")

    @property
    def n_pn(self) -> int:
        return self.g_pp.shape[0]

    @property
    def n_cr(self) -> int:
        return self.g_ss.shape[0]

    def to_json(self) -> str:
        return json.dumps({
            "g_pp": self.g_pp.tolist(),
            "g_ps": self.g_ps.tolist(),
            "g_ss": self.g_ss.tolist(),
            "g_sp": self.g_sp.tolist(),
            "noise_power_mw": self.noise_power_mw,
        }, indent=2)

    @staticmethod
    def from_json(text: str) -> "ChannelGains":
        doc = json.loads(text)
        return ChannelGains(
            g_pp=np.asarray(doc["g_pp"], dtype=float),
            g_ps=np.asarray(doc["g_ps"], dtype=float),
            g_ss=np.asarray(doc["g_ss"], dtype=float),
            g_sp=np.asarray(doc["g_sp"], dtype=float),
            noise_power_mw=float(doc["noise_power_mw"]),
        )


def _shadowing(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.normal(0.0, SHADOWING_STD_DB, size=shape)


def build_gains(placement: NodePlacement, rng: np.random.Generator) -> ChannelGains:
    """Frozen gains for one scenario, over NOISE_POWER_MW of noise.

    Shadowing is drawn once per transmitter-receiver pair and never
    re-sampled; the same loss model applies to all four link classes.
    Gains are capped at 1 (no amplification through shadowing).
    """
    spec: GridSpec = placement.grid
    ap = placement.active_ap_positions
    pn_rx = placement.pn_rx_positions
    cr_tx = placement.cr_tx_positions
    cr_rx = placement.cr_rx_positions

    def gains(tx, rx):
        d = pairwise_wrap_distances(tx, rx, spec)
        return np.minimum(path_gain(d, _shadowing(rng, d.shape)), 1.0)

    return ChannelGains(
        g_pp=gains(ap, pn_rx),
        g_ps=gains(cr_tx, pn_rx),
        g_ss=gains(cr_tx, cr_rx),
        g_sp=gains(ap, cr_rx),
    )


def received_power_mw(tx_mw, g: np.ndarray) -> np.ndarray:
    """Total power each receiver gets from a set of transmitters, tx_mw @ g.

    tx_mw is (N,) or (K, N) for the N rows of g. The sum runs transmitter
    by transmitter, so every row of a (K, N) block comes out bit for bit
    as it would alone, which a BLAS matmul does not promise.
    """
    per_tx = np.moveaxis(np.asarray(tx_mw, dtype=float), -1, 0)
    # accumulate as (receivers, K): long inner loops instead of short rows
    total = np.multiply.outer(g[0], per_tx[0])
    for j in range(1, g.shape[0]):
        total += np.multiply.outer(g[j], per_tx[j])
    return total.T


def sn_sinrs(gains: ChannelGains, pn_mw, cr_mw) -> np.ndarray:
    """Vectorized SINRs of the CR links under one or many CR power
    assignments.

    pn_mw holds the M primary powers and cr_mw the CR powers (0.0 is off),
    both in mW; cr_mw may be (N,) or (K, N), and the SINRs then come back
    as (N,) or (K, N). Each link's SINR is its own received power over
    every other transmitter's received power plus noise.
    """
    pn_mw = np.asarray(pn_mw, dtype=float)
    cr_mw = np.asarray(cr_mw, dtype=float)
    if pn_mw.shape != (gains.n_pn,) or cr_mw.shape[-1] != gains.n_cr:
        raise ValueError("powers do not match gain matrices")
    signal = np.diag(gains.g_ss) * cr_mw
    total = received_power_mw(cr_mw, gains.g_ss)
    pn_at_sn = gains.g_sp.T @ pn_mw
    return signal / (total - signal + pn_at_sn + gains.noise_power_mw)
