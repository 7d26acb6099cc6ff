"""Finite-station placement by alternating assignment and position updates.

The optimizer alternates a nearest-station assignment of the grid cells
with a closed-form update of every station position. For a fixed
partition the cost is a positive quadratic in the positions, and the
simultaneous per-station update is an exact coordinate minimizer whose
full-vector step still descends (the relevant matrix 2D - H stays
positive semidefinite). A reassignment can in principle raise the
backhaul term because it reshuffles the per-cell traffic, so a new
partition is only accepted when it does not increase total power; this
makes the power trace monotone by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.integrate import trapezoid

from .density import DensityField, _cdf_quantiles, _midpoint_levels
from .power_model import (
    CellPartition,
    PowerReport,
    RadioParams,
    SingularGainError,
    TrafficVector,
    _positions,
    _price,
    station_traffic,
    total_power,
)

__all__ = [
    "OptimizerConfig",
    "PlacementSolution",
    "voronoi_partition",
    "update_positions",
    "initial_positions",
    "optimize",
]


@dataclass
class OptimizerConfig:
    """Knobs for the alternating optimizer.

    `init` picks the starting layout: "quantile" places stations at
    equal-mass quantiles of the density, "jitter" adds a small seeded
    perturbation to those, "explicit" uses `positions` as given.
    `include_inter` is a diagnostic switch; with it off the optimizer
    runs the pure quantizer (Lloyd) dynamics and the trace tracks the
    access power only.
    """

    max_iterations: int = 500
    position_tolerance: float = 1e-8
    init: str = "quantile"
    positions: Optional[np.ndarray] = None
    seed: int = 0
    damping: float = 1.0
    include_inter: bool = True

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if not self.position_tolerance > 0:
            raise ValueError("position tolerance must be positive")
        if not 0.0 < self.damping <= 1.0:
            raise ValueError("damping must lie in (0, 1]")
        if self.init not in ("quantile", "jitter", "explicit"):
            raise ValueError(f"unknown init strategy {self.init!r}")
        if self.init == "explicit" and self.positions is None:
            raise ValueError("explicit init needs positions")


@dataclass
class PlacementSolution:
    """Result of one optimizer run."""

    positions: np.ndarray
    partition: CellPartition
    traffic: TrafficVector
    report: PowerReport
    trace: np.ndarray
    converged: bool
    iterations: int


def voronoi_partition(positions, d: DensityField) -> CellPartition:
    """Assign every grid cell to its nearest station (by cell center).

    Ties go to the lowest station index. Non-finite positions raise
    ValueError and duplicate ones SingularGainError. The squared
    distance is built one axis at a time and one station at a time with
    a running minimum, so no cells x K array is made.
    """
    pos = _positions(positions, d.domain.ndim)
    if not np.all(np.isfinite(pos)):
        raise ValueError("station positions must be finite")
    K = pos.shape[0]
    if K > 1:
        diff = pos[:, None, :] - pos[None, :, :]
        dist2 = np.sum(diff * diff, axis=-1)
        np.fill_diagonal(dist2, np.inf)
        if dist2.min() == 0.0:
            raise SingularGainError(
                "duplicate station positions; damping below 1 or jitter init avoids this"
            )
    mids = [0.5 * (ax[:-1] + ax[1:]) for ax in d.domain.axes]
    best = np.full(d.domain.cell_counts, np.inf)
    assignment = np.zeros(d.domain.cell_counts, dtype=int)
    for k, p in enumerate(pos):
        sq = [(m - c) ** 2 for m, c in zip(mids, p)]
        d2 = sq[0] if len(sq) == 1 else np.add.outer(sq[0], sq[1])
        closer = d2 < best
        np.minimum(best, d2, out=best)
        assignment[closer] = k
    return CellPartition(d.domain, assignment, K)


def update_positions(
    positions,
    traffic: TrafficVector,
    params: RadioParams,
    damping: float = 1.0,
    include_inter: bool = True,
) -> np.ndarray:
    """Move every station to its per-station cost minimizer.

    Balances the mass centroid of the cell (`traffic.first` over
    `traffic.mass`, the sums of the partition the traffic was reduced
    from) against the traffic-weighted barycenter of the other stations.
    Stations whose cell carries no mass and no traffic are left in
    place. A non-finite balance, e.g. from an overflowing noise power,
    raises ValueError.
    """
    pos = _positions(positions, traffic.first.shape[1])
    A = params.noise_power * params.shannon_factor

    with np.errstate(all="ignore"):
        num = A * traffic.first
        den = A * traffic.mass
        if include_inter:
            m_i = traffic.per_station
            m = traffic.total
            w = 2.0 * params.noise_power / m * m_i
            others_p = (m_i[:, None] * pos).sum(axis=0)[None, :] - m_i[:, None] * pos
            others_m = m - m_i
            num = num + w[:, None] * others_p
            den = den + w * others_m
    if not (np.all(np.isfinite(num)) and np.all(np.isfinite(den))):
        raise ValueError("station update overflowed; the power scale is too large")

    new = pos.copy()
    movable = den > 0
    new[movable] = num[movable] / den[movable, None]
    blended = (1.0 - damping) * pos + damping * new
    blended[~movable] = pos[~movable]
    return blended


def initial_positions(
    d: DensityField, K: int, cfg: OptimizerConfig
) -> np.ndarray:
    """Starting station layout per the configured strategy."""
    if K < 1:
        raise ValueError("station count must be at least 1")
    ndim = d.domain.ndim
    if cfg.init == "explicit":
        pos = _positions(cfg.positions, ndim)
        if pos.shape != (K, ndim):
            raise ValueError(f"explicit positions must have shape ({K}, {ndim})")
        return pos.copy()

    if ndim == 1:
        pos = d.quantiles(_midpoint_levels(K))[:, None]
    else:
        pos = _product_quantiles(d, K)

    if cfg.init == "jitter":
        rng = np.random.default_rng(cfg.seed)
        spans = np.array([hi - lo for lo, hi in d.domain.bounds])
        scale = 0.25 * spans / (2.0 * K)
        pos = pos + rng.uniform(-1.0, 1.0, size=pos.shape) * scale
        for k, (lo, hi) in enumerate(d.domain.bounds):
            eps = 1e-9 * (hi - lo)
            pos[:, k] = np.clip(pos[:, k], lo + eps, hi - eps)
    return pos


def _product_quantiles(d: DensityField, K: int) -> np.ndarray:
    """Quantiles of the marginal CDFs arranged on a near-square product grid."""
    kx = max(int(round(math.sqrt(K))), 1)
    ky = math.ceil(K / kx)
    xg, yg = d.domain.axes
    qx = _cdf_quantiles(xg, trapezoid(d.values, yg, axis=1), _midpoint_levels(kx))
    qy = _cdf_quantiles(yg, trapezoid(d.values, xg, axis=0), _midpoint_levels(ky))
    grid = [(x, y) for x in qx for y in qy]
    return np.asarray(grid[:K], dtype=float)


def optimize(
    d: DensityField, K: int, params: RadioParams, cfg: Optional[OptimizerConfig] = None
) -> PlacementSolution:
    """Alternate assignment and position updates until positions settle.

    Runs until the largest station move drops below the configured
    tolerance or the iteration budget is exhausted. The power trace has
    one entry per round and never increases (up to float noise).
    """
    if cfg is None:
        cfg = OptimizerConfig()
    pos = initial_positions(d, K, cfg)
    partition = voronoi_partition(pos, d)
    traffic = station_traffic(partition, d)
    report = total_power(pos, partition, d, params)
    trace = [_cost(report, cfg)]

    converged = False
    iterations = 0
    for _ in range(cfg.max_iterations):
        iterations += 1
        new_pos = update_positions(pos, traffic, params, cfg.damping, cfg.include_inter)
        move = float(np.max(np.linalg.norm(new_pos - pos, axis=1)))
        candidate = voronoi_partition(new_pos, d)
        cand_traffic = station_traffic(candidate, d)
        cand_report = _price(new_pos, cand_traffic, params)
        keep_report = _price(new_pos, traffic, params)
        if _cost(cand_report, cfg) <= _cost(keep_report, cfg):
            partition, traffic, report = candidate, cand_traffic, cand_report
        else:
            report = keep_report
        trace.append(_cost(report, cfg))

        pos = new_pos
        if move < cfg.position_tolerance:
            converged = True
            break

    return PlacementSolution(
        positions=pos,
        partition=partition,
        traffic=traffic,
        report=report,
        trace=np.asarray(trace),
        converged=converged,
        iterations=iterations,
    )


def _cost(report: PowerReport, cfg: OptimizerConfig) -> float:
    return report.total if cfg.include_inter else report.intra_total
