"""Finite-station placement by alternating assignment and position updates.

The optimizer alternates a nearest-station assignment of the grid cells
with an exact update of every station position. For a fixed partition
the cost is a positive quadratic in the positions, and because each
station's traffic is proportional to its cell mass, its minimizer has a
closed form: every station moves to `kappa * c_i + (1 - kappa) * b`, its
cell's mass centroid contracted toward the barycenter b of all cells by
`kappa = (2^theta - 1) / (2^theta - 1 + 2 tau)` (see `update_positions`).
A reassignment can in principle raise the backhaul term because it
reshuffles the per-cell traffic, so a new partition is only accepted
when it does not increase total power; this makes the power trace
monotone by construction.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .density import DensityField, _check_count, _grid_points, _midpoint_levels, _non_numeric, _positive
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

#: Largest station count `optimize` accepts; it bounds the K x K pair
#: arrays of pricing (K x K x 2 floats are 16 MiB). Assignment's bound
#: arrays hold at most half an entry per cell whatever K is.
MAX_STATION_COUNT = 1024


@dataclass
class OptimizerConfig:
    """Knobs for the alternating optimizer.

    `init` picks the starting layout: "quantile" places stations at
    equal-mass quantiles of the density, "jitter" adds a small seeded
    perturbation to those, "explicit" starts from `positions`, in the domain.
    `position_tolerance` is a fraction of the domain's largest side.
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
        _check_count(self.max_iterations, "max_iterations", 1)
        _check_count(self.seed, "seed", 0)
        self.position_tolerance = _positive(self.position_tolerance, "position_tolerance")
        for name in ("damping", "positions"):
            if _non_numeric(getattr(self, name)):
                raise ValueError(f"{name} must be numeric, not a string or boolean")
        if not 0.0 < self.damping <= 1.0:
            raise ValueError("damping must lie in (0, 1]")
        if not isinstance(self.include_inter, bool):
            raise ValueError("include_inter must be true or false")
        if self.init not in ("quantile", "jitter", "explicit"):
            raise ValueError(f"unknown init strategy {self.init!r}")
        if (self.positions is None) == (self.init == "explicit"):
            raise ValueError('positions are read only by init "explicit", which needs them')


@dataclass
class PlacementSolution:
    """Result of one optimizer run; `report.traffic` holds the station sums of `partition`."""

    positions: np.ndarray
    partition: CellPartition
    report: PowerReport
    trace: np.ndarray
    converged: bool
    iterations: int


def voronoi_partition(positions, d: DensityField) -> CellPartition:
    """Assign every grid cell to its nearest station (by cell center).

    Ties go to the lowest station index. Non-finite positions raise
    ValueError and duplicate ones SingularGainError. The grid is cut into
    tiles, and each station runs a running minimum of its squared
    distances over the box of tiles where it can be nearest
    (`_candidate_boxes`); a station's distance to a cell is the same
    float wherever it is computed, so the partition is the one a sweep of
    every station over every cell gives.
    """
    pos = _positions(positions, d.domain.ndim)
    if not np.all(np.isfinite(pos)):
        raise ValueError("station positions must be finite")
    K = pos.shape[0]
    if len(set(map(tuple, pos.tolist()))) < K:
        raise SingularGainError(
            "duplicate station positions; damping below 1 or jitter init avoids this"
        )
    mids = d.domain.midpoints
    best = np.full(d.domain.cell_counts, np.inf)
    assignment = np.zeros(d.domain.cell_counts, dtype=int)
    # far stations square to inf, which still orders correctly
    with np.errstate(over="ignore"):
        for k, box in _candidate_boxes(pos, mids):
            d2 = functools.reduce(np.add.outer, [(m[s] - c) ** 2 for m, s, c in zip(mids, box, pos[k])])
            near = best[box]
            closer = d2 < near
            np.minimum(near, d2, out=near)
            assignment[box][closer] = k
    return CellPartition(d.domain, assignment, K)


#: Cells per tile along each axis of a 1D and of a 2D grid, the fastest
#: sizes on 200 000 cells in 1D and 200 x 200 in 2D.
_TILE_CELLS = (1024, 8)


def _candidate_boxes(pos: np.ndarray, mids) -> list:
    """`(k, box)`, in index order, for every station k that can be nearest
    to some cell; `box` slices the smallest box of tiles that holds every
    tile where it can be.

    From the first and last cell center of a tile along each axis, the
    station's squared distances to the tile's cells lie between a low and
    a high bound, computed with the same rounded operations as the
    distances, so they hold exactly. Station k can be nearest in tile t
    only if `low[k, t] <= min_j high[j, t]`, and `<=` keeps a tied
    lower-index station. An axis of n cells gets at most `n / (2K)**(1/ndim)`
    tiles, so each (K, tiles) bound array holds at most half an entry per
    cell; a grid of one tile is not bounded at all.
    """
    K, ndim = pos.shape
    counts = [
        max(1, min(len(m) // _TILE_CELLS[ndim - 1], int(len(m) / (2 * K) ** (1.0 / ndim))))
        for m in mids
    ]
    if max(counts) == 1:
        return [(k, (slice(None),) * ndim) for k in range(K)]
    edges = [np.arange(t + 1) * len(m) // t for m, t in zip(mids, counts)]
    near, far = zip(*(_tile_offsets(m, e, c) for m, e, c in zip(mids, edges, pos.T)))
    low, high = (functools.reduce(lambda a, b: a[..., None] + b[:, None, :], t) for t in (near, far))
    candidate = low <= high.min(axis=0)
    hits = [candidate.any(axis=tuple(j + 1 for j in range(ndim) if j != a)) for a in range(ndim)]
    # per axis, the cells from each station's first to its last candidate tile
    spans = [
        map(slice, e[h.argmax(axis=1)].tolist(), e[len(e) - 1 - h[:, ::-1].argmax(axis=1)].tolist())
        for h, e in zip(hits, edges)
    ]
    boxes = list(zip(*spans))
    return [(k, boxes[k]) for k in np.flatnonzero(hits[0].any(axis=1)).tolist()]


def _tile_offsets(mids: np.ndarray, edges: np.ndarray, coords: np.ndarray):
    """Least and greatest `(mid - c)**2` over each tile's cell centers, per coordinate c.

    Centers increase along an axis, so the offsets of a tile's cells lie
    between those of its first and last center, and rounding keeps that order.
    """
    first = mids[edges[:-1]] - coords[:, None]
    last = mids[edges[1:] - 1] - coords[:, None]
    return np.clip(0.0, first, last) ** 2, np.maximum(-first, last) ** 2


def update_positions(
    positions,
    traffic: TrafficVector,
    params: RadioParams,
    damping: float = 1.0,
    include_inter: bool = True,
) -> np.ndarray:
    """Move every station to the exact minimizer of the fixed-partition cost.

    With s0, s1 the cell masses and first moments (`traffic.mass`,
    `traffic.first`) and t the station traffic, the gradient of the cost
    vanishes where `M q = A s1` with `M = diag(A s0 + g m t) - g t t^T`,
    `A = sigma2 (2^theta - 1)` and `g = 2 sigma2 / m`. Since `t = tau s0`
    (tau the throughput per unit mass), Sherman-Morrison reduces the
    solve to `q_i = kappa c_i + (1 - kappa) b`: c_i is the mass centroid
    of cell i, b the barycenter of all cells and
    `kappa = (2^theta - 1) / (2^theta - 1 + 2 tau)`; sigma2 cancels.
    Without the backhaul term kappa is 1. `damping` blends the target
    with the current position; stations whose cell carries no mass stay
    in place.
    """
    pos = _positions(positions, traffic.first.shape[1])
    movable = traffic.mass > 0
    target = pos.copy()
    target[movable] = traffic.first[movable] / traffic.mass[movable, None]
    if include_inter:
        total_mass = traffic.mass.sum()
        shannon = params.shannon_factor
        kappa = shannon / (shannon + 2.0 * traffic.total / total_mass)
        barycenter = traffic.first.sum(axis=0) / total_mass
        target = kappa * target + (1.0 - kappa) * barycenter
    blended = (1.0 - damping) * pos + damping * target
    return np.where(movable[:, None], blended, pos)


def initial_positions(
    d: DensityField, K: int, cfg: OptimizerConfig
) -> np.ndarray:
    """Starting layout of K stations, K a whole number, per the configured strategy."""
    _check_count(K, "station count", 1, MAX_STATION_COUNT)
    ndim = d.domain.ndim
    if cfg.init == "explicit":
        pos = _positions(cfg.positions, ndim)
        if pos.shape != (K, ndim):
            raise ValueError(f"explicit positions must have shape ({K}, {ndim})")
        if not d.domain.contains(pos).all():
            raise ValueError("explicit positions must lie inside the domain")
        return pos.copy()

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
    """Equal-mass quantiles of the cell-mass marginals on a near-square product grid, x-major."""
    ndim = d.domain.ndim
    kx = max(round(K ** (1.0 / ndim)), 1)
    counts = (kx, math.ceil(K / kx))[:ndim]
    quantiles = [d._axis_quantiles(k, _midpoint_levels(n)) for k, n in enumerate(counts)]
    return _grid_points(quantiles).reshape(-1, ndim)[:K]


def optimize(
    d: DensityField, K: int, params: RadioParams, cfg: Optional[OptimizerConfig] = None
) -> PlacementSolution:
    """Alternate assignment and position updates until positions settle.

    The positions have settled when an update moves no station by
    `position_tolerance` times the domain's largest side; that round
    prices the kept partition, unless no station moved at all, and does
    not assign the cells again. The power trace has one entry per round
    and never increases (up to float noise).
    """
    if cfg is None:
        cfg = OptimizerConfig()
    pos = initial_positions(d, K, cfg)
    partition = voronoi_partition(pos, d)
    report = total_power(pos, partition, d, params)
    trace = [_cost(report, cfg)]
    tolerance = cfg.position_tolerance * max(hi - lo for lo, hi in d.domain.bounds)

    for iterations in range(1, cfg.max_iterations + 1):
        new_pos = update_positions(pos, report.traffic, params, cfg.damping, cfg.include_inter)
        converged = float(np.max(np.linalg.norm(new_pos - pos, axis=1))) < tolerance
        if not np.array_equal(new_pos, pos):
            report = _price(new_pos, report.traffic, params)
        pos = new_pos
        if not converged:
            candidate = voronoi_partition(pos, d)
            cand_report = _price(pos, station_traffic(candidate, d), params)
            if _cost(cand_report, cfg) <= _cost(report, cfg):
                partition, report = candidate, cand_report
        trace.append(_cost(report, cfg))
        if converged:
            break

    return PlacementSolution(
        positions=pos,
        partition=partition,
        report=report,
        trace=np.asarray(trace),
        converged=converged,
        iterations=iterations,
    )


def _cost(report: PowerReport, cfg: OptimizerConfig) -> float:
    return report.total if cfg.include_inter else report.intra_total
