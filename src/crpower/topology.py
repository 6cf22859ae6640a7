"""Geometry of the primary and secondary networks on a wrap-around grid.

The primary network is a rows x cols lattice of access points with fixed
spacing; a subset of the APs is active, each serving one receiver placed
inside its cell. Secondary (cognitive-radio) transmitters fall anywhere on
the grid, each with a receiver close by. All distances are toroidal so the
finite grid has no edge effects.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "GridSpec",
    "NodePlacement",
    "sample_placement",
]

# PN receivers stay inside the cell of their AP: half the lattice spacing.
COVERAGE_RADIUS_FRACTION = 0.5
# SN receivers sit within this distance of their transmitter (meters).
CR_RX_RADIUS_M = 50.0


class ConfigurationError(ValueError):
    """Raised when a scenario description is internally inconsistent."""


@dataclass(frozen=True)
class GridSpec:
    """Dimensions of the AP lattice."""

    rows: int = 3
    cols: int = 3
    spacing_m: float = 200.0
    active_ap_count: int = 7

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ConfigurationError("grid must have at least one row and column")
        if not self.spacing_m > 0:        # NaN fails too
            raise ConfigurationError("AP spacing must be positive")
        if not (1 <= self.active_ap_count <= self.rows * self.cols):
            raise ConfigurationError(
                f"active_ap_count={self.active_ap_count} outside "
                f"[1, {self.rows * self.cols}]"
            )

    @property
    def extent(self) -> tuple[float, float]:
        """(width, height) of the torus in meters."""
        return (self.cols * self.spacing_m, self.rows * self.spacing_m)

    @property
    def coverage_radius_m(self) -> float:
        return COVERAGE_RADIUS_FRACTION * self.spacing_m


@dataclass(frozen=True)
class NodePlacement:
    """One sampled layout: AP lattice, active links, and CR link endpoints.

    ``pn_rx_positions[k]`` is the receiver served by AP
    ``active_ap_indices[k]``. All coordinates are wrapped into
    [0, width) x [0, height).
    """

    ap_positions: np.ndarray           # (rows*cols, 2) meters
    active_ap_indices: tuple[int, ...]
    pn_rx_positions: np.ndarray        # (active_ap_count, 2)
    cr_tx_positions: np.ndarray        # (n_cr, 2)
    cr_rx_positions: np.ndarray        # (n_cr, 2)
    grid: GridSpec = field(default_factory=GridSpec)

    @property
    def n_cr(self) -> int:
        return len(self.cr_tx_positions)

    @property
    def active_ap_positions(self) -> np.ndarray:
        return self.ap_positions[list(self.active_ap_indices)]

    def to_json(self) -> str:
        doc = {
            "grid": {
                "rows": self.grid.rows,
                "cols": self.grid.cols,
                "spacing_m": self.grid.spacing_m,
                "active_ap_count": self.grid.active_ap_count,
            },
            "ap_positions": self.ap_positions.tolist(),
            "active_ap_indices": list(self.active_ap_indices),
            "pn_rx_positions": self.pn_rx_positions.tolist(),
            "cr_tx_positions": self.cr_tx_positions.tolist(),
            "cr_rx_positions": self.cr_rx_positions.tolist(),
        }
        return json.dumps(doc, indent=2)

    @staticmethod
    def from_json(text: str) -> "NodePlacement":
        doc = json.loads(text)
        grid = GridSpec(**doc["grid"])
        return NodePlacement(
            ap_positions=np.asarray(doc["ap_positions"], dtype=float),
            active_ap_indices=tuple(doc["active_ap_indices"]),
            pn_rx_positions=np.asarray(doc["pn_rx_positions"], dtype=float),
            cr_tx_positions=np.asarray(doc["cr_tx_positions"], dtype=float),
            cr_rx_positions=np.asarray(doc["cr_rx_positions"], dtype=float),
            grid=grid,
        )


def pairwise_wrap_distances(points_a: np.ndarray, points_b: np.ndarray,
                            spec: GridSpec) -> np.ndarray:
    """Matrix of toroidal distances in meters, shape (len(a), len(b)).

    Per axis the displacement is min(|d|, extent - |d|), so it never
    exceeds half the grid extent.
    """
    extent = np.asarray(spec.extent)
    delta = np.abs(points_a[:, None, :] - points_b[None, :, :])
    delta = np.minimum(delta, extent - delta)
    return np.hypot(delta[..., 0], delta[..., 1])


def _uniform_disk(rng: np.random.Generator, radius: float, n: int) -> np.ndarray:
    # radius via inverse CDF of r^2 so the disk is covered uniformly
    r = radius * np.sqrt(rng.uniform(0.0, 1.0, size=n))
    theta = rng.uniform(0.0, 2.0 * np.pi, size=n)
    return np.column_stack([r * np.cos(theta), r * np.sin(theta)])


def sample_placement(spec: GridSpec, n_cr: int,
                     rng: np.random.Generator) -> NodePlacement:
    """Draw one network layout from the given RNG stream.

    APs sit on the lattice points; the active subset is a uniform draw.
    Each active AP serves a receiver uniform over the coverage disk, each
    CR transmitter is uniform over the grid, and each CR receiver is
    uniform over a 50 m disk around its transmitter. Offsets are wrapped
    back onto the torus.
    """
    if n_cr < 1:
        raise ConfigurationError("need at least one CR link")

    width, height = spec.extent
    extent = np.array([width, height])

    cols_idx, rows_idx = np.meshgrid(np.arange(spec.cols), np.arange(spec.rows))
    ap_positions = np.column_stack([
        cols_idx.ravel() * spec.spacing_m,
        rows_idx.ravel() * spec.spacing_m,
    ]).astype(float)

    n_aps = spec.rows * spec.cols
    active = np.sort(rng.choice(n_aps, size=spec.active_ap_count, replace=False))

    pn_rx = ap_positions[active] + _uniform_disk(
        rng, spec.coverage_radius_m, spec.active_ap_count)
    pn_rx = np.mod(pn_rx, extent)

    cr_tx = rng.uniform(0.0, 1.0, size=(n_cr, 2)) * extent
    cr_rx = np.mod(cr_tx + _uniform_disk(rng, CR_RX_RADIUS_M, n_cr), extent)

    return NodePlacement(
        ap_positions=ap_positions,
        active_ap_indices=tuple(int(i) for i in active),
        pn_rx_positions=pn_rx,
        cr_tx_positions=cr_tx,
        cr_rx_positions=cr_rx,
        grid=spec,
    )
