"""Transmission power model for a wireless network with microwave backhaul.

Every base station serves the terminals of its cell over access links and
exchanges the aggregate traffic with every other station over backhaul
links. Both link types use the free-space gain 1/d^2. Access links invert
the Shannon rate at the demanded throughput; backhaul links use the
low-SNR linearization of the rate, which makes their power proportional
to the traffic product of the two endpoint cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .density import DensityField, Domain

__all__ = [
    "RadioParams",
    "SingularGainError",
    "CellPartition",
    "TrafficVector",
    "PowerReport",
    "station_traffic",
    "total_power",
]


class SingularGainError(ValueError):
    """The free-space gain model diverges for coincident endpoints."""


@dataclass(frozen=True)
class RadioParams:
    """Link-budget constants: receiver noise power and per-unit-mass throughput."""

    noise_power: float
    throughput: float

    def __post_init__(self):
        if not self.noise_power > 0:
            raise ValueError("noise power must be positive")
        if not self.throughput > 0:
            raise ValueError("throughput must be positive")

    @property
    def shannon_factor(self) -> float:
        """Power multiplier 2**throughput - 1 from inverting the rate formula."""
        return math.pow(2.0, self.throughput) - 1.0


def _positions(p, ndim: int) -> np.ndarray:
    """Station positions as a (K, ndim) array; a flat 1D input is K points."""
    arr = np.asarray(p, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None] if ndim == 1 else arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != ndim:
        raise ValueError(f"positions must be an array of {ndim}-coordinate points")
    return arr


@dataclass
class CellPartition:
    """Assignment of every grid cell of a domain to one of K stations."""

    domain: Domain
    assignment: np.ndarray
    stations: int

    def __post_init__(self):
        self.assignment = np.asarray(self.assignment, dtype=int).reshape(
            self.domain.cell_counts
        )
        if self.stations < 1:
            raise ValueError("a partition needs at least one station")
        if self.assignment.size and (
            self.assignment.min() < 0 or self.assignment.max() >= self.stations
        ):
            raise ValueError("cell assignments must index a station")


@dataclass(frozen=True)
class TrafficVector:
    """Per-station sums of one partition's cells.

    `mass` (K,), `first` (K, ndim) and `second` (K,) sum the cell masses,
    first moments and second moments (about the origin) over each
    station's cell; `per_station` is the traffic throughput * mass and
    `total` the network total. For a fixed partition the cost and its
    position update see the cells only through these sums.
    """

    per_station: np.ndarray
    total: float
    mass: np.ndarray
    first: np.ndarray
    second: np.ndarray


def station_traffic(partition: CellPartition, d: DensityField) -> TrafficVector:
    """Reduce a partition's cells to per-station traffic and moment sums."""
    assign = partition.assignment.ravel()
    mass, *first, second = (
        np.bincount(assign, weights=w.ravel(), minlength=partition.stations)
        for w in (d.cell_masses(), *d.cell_first_moments(), d.cell_second_moments())
    )
    per_station = d.throughput * mass
    return TrafficVector(
        per_station, float(per_station.sum()), mass, np.stack(first, axis=1), second
    )


@dataclass
class PowerReport:
    """Breakdown of the network transmission power for one configuration.

    `intra_per_cell` holds the access power of each station's cell, one
    entry per station; `inter_per_pair` the backhaul power of each
    ordered station pair.
    """

    intra_per_cell: np.ndarray
    inter_per_pair: np.ndarray
    intra_total: float
    inter_total: float
    total: float


def total_power(
    positions, partition: CellPartition, d: DensityField, params: RadioParams
) -> PowerReport:
    """Total network power: access links plus all ordered backhaul pairs.

    A terminal at distance d from its station costs
    sigma2 * (2^theta - 1) * d^2 per unit mass; stations i and j at
    distance d cost sigma2 * d^2 * m_i * m_j / m per ordered pair, where
    m_i is a station's traffic and m the network total. Each unordered
    pair of stations therefore contributes twice. Coincident stations
    that both carry traffic raise SingularGainError; a station without
    traffic needs no backhaul link, so duplicates involving one are
    tolerated.
    """
    pos = _positions(positions, d.domain.ndim)
    if pos.shape[0] != partition.stations:
        raise ValueError("one position per station is required")
    return _price(pos, station_traffic(partition, d), params)


def _price(pos: np.ndarray, tv: TrafficVector, params: RadioParams) -> PowerReport:
    """`total_power` of (K, ndim) positions from a partition's station sums.

    A station's access term is A * sum over its cell of |x - p|^2, which
    expands to A * (second - 2 p . first + |p|^2 mass); the clamp at 0
    absorbs the cancellation of that expansion.
    """
    access = tv.second - 2.0 * np.sum(pos * tv.first, axis=1) + np.sum(pos * pos, axis=1) * tv.mass
    intra = params.noise_power * params.shannon_factor * np.maximum(access, 0.0)

    traffic, m = tv.per_station, tv.total
    if not m > 0:
        raise ValueError("total traffic must be positive")

    K = len(traffic)
    diff = pos[:, None, :] - pos[None, :, :]
    dist2 = np.sum(diff * diff, axis=-1)
    coincident = (dist2 == 0.0) & ~np.eye(K, dtype=bool)
    both_loaded = np.outer(traffic > 0, traffic > 0)
    if np.any(coincident & both_loaded):
        raise SingularGainError(
            "coincident stations with traffic on both ends"
        )
    inter = params.noise_power / m * np.outer(traffic, traffic) * dist2
    np.fill_diagonal(inter, 0.0)

    intra_total = float(intra.sum())
    inter_total = float(inter.sum())
    return PowerReport(
        intra_per_cell=intra,
        inter_per_pair=inter,
        intra_total=intra_total,
        inter_total=inter_total,
        total=intra_total + inter_total,
    )
