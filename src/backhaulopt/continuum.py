"""Asymptotic station-density solver on an interval.

In the many-station limit the placement problem becomes a transport
problem: find the station measure whose induced map from the terminal
density minimizes total power. With the quadratic interaction kernel the
fixed-point iteration on the induced transport map degenerates to an
affine map after a single step, and for a centered terminal density the
optimal station density is a pure dilation of the terminal density.

Everything here is 1D; planar instances are handled by the discrete
optimizer only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np
from scipy.integrate import simpson

from .density import DensityField, _cdf_quantiles, _midpoint_levels
from .power_model import RadioParams

__all__ = [
    "AffineMap",
    "GridCollapseError",
    "SampledMap",
    "Measure1D",
    "SchemeResult",
    "dilation_factor",
    "pushforward",
    "fixed_point_step",
    "iterate_fixed_point",
    "optimal_station_density",
    "quantile_placements",
    "sup_distance",
]


class GridCollapseError(ValueError):
    """The image of a transport map outran the float grid resolution.

    Raised when a map sends the domain so far from the origin that an
    evenly spaced grid over the image can no longer be strictly
    increasing in floats. In practice this means the map iteration is
    diverging, typically through the unstable barycenter mode.
    """


def dilation_factor(throughput: float) -> float:
    """Support-widening ratio of the optimal station density.

    The optimal station layout spreads the terminal density by the factor
    1 + 4 / (2**throughput - 1) about its barycenter. Large throughput
    drives the factor to 1: backhaul costs stop mattering and stations
    shadow the terminals.
    """
    if not throughput > 0:
        raise ValueError("throughput must be positive")
    return 1.0 + 4.0 / (math.pow(2.0, throughput) - 1.0)


@dataclass(frozen=True)
class AffineMap:
    """Strictly increasing affine transport map y = slope * x + offset."""

    slope: float
    offset: float = 0.0

    def __post_init__(self):
        if not self.slope > 0:
            raise ValueError("transport maps must be strictly increasing")

    def __call__(self, x):
        return self.slope * np.asarray(x, dtype=float) + self.offset

    def invert_with_slope(self, y):
        y = np.asarray(y, dtype=float)
        return (y - self.offset) / self.slope, np.full_like(y, self.slope)


@dataclass(frozen=True)
class SampledMap:
    """Smooth monotone transport map known through samples on a grid.

    Inversion is a binary search over the sample values with linear
    interpolation inside the bracketing segment. The slope reported for
    the change of variables is a centered-difference estimate of the
    underlying map's derivative; segment slopes would make the
    pushforward density jump at every node and lose quadrature accuracy.
    """

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if x.ndim != 1 or x.shape != y.shape or x.size < 2:
            raise ValueError("a sampled map needs matching 1D sample arrays")
        if not np.all(np.diff(x) > 0):
            raise ValueError("sample locations must be strictly increasing")
        if not np.all(np.diff(y) > 0):
            raise ValueError("transport maps must be strictly increasing")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "_slope", np.gradient(y, x))

    def __call__(self, x):
        return np.interp(np.asarray(x, dtype=float), self.x, self.y)

    def invert_with_slope(self, y):
        y = np.asarray(y, dtype=float)
        idx = np.clip(np.searchsorted(self.y, y, side="right") - 1, 0, self.x.size - 2)
        run = self.x[idx + 1] - self.x[idx]
        rise = self.y[idx + 1] - self.y[idx]
        t = np.clip((y - self.y[idx]) / rise, 0.0, 1.0)
        xq = self.x[idx] + t * run
        return xq, np.interp(xq, self.x, self._slope)


TransportMap = Union[AffineMap, SampledMap]


class Measure1D:
    """Nonnegative measure on an interval, sampled on a uniform grid.

    `total_mass` and `barycenter` are Simpson quadratures of the samples.
    """

    def __init__(self, grid: np.ndarray, values: np.ndarray):
        grid = np.asarray(grid, dtype=float)
        values = np.asarray(values, dtype=float)
        if grid.ndim != 1 or grid.shape != values.shape or grid.size < 3:
            raise ValueError("a measure needs matching 1D grid and value arrays")
        if not np.all(np.diff(grid) > 0):
            raise ValueError("measure grid must be strictly increasing")
        if not (np.all(np.isfinite(values)) and values.min() >= -1e-12):
            raise ValueError("measure densities must be finite and nonnegative")
        self.grid = grid
        self.values = np.maximum(values, 0.0)
        self.total_mass = float(simpson(self.values, x=grid))
        if not 0 < self.total_mass < math.inf:
            raise ValueError("measure mass must be positive and finite")
        self.barycenter = float(simpson(self.values * grid, x=grid)) / self.total_mass

    @staticmethod
    def from_density(d: DensityField, mass: float) -> "Measure1D":
        if d.domain.ndim != 1:
            raise ValueError("measures are 1D")
        return Measure1D(d.domain.axis(0), mass * d.values)

    @staticmethod
    def from_values(grid, values, mass: Optional[float] = None) -> "Measure1D":
        """Build from raw samples, optionally rescaled to a target mass."""
        m = Measure1D(np.asarray(grid, dtype=float), np.asarray(values, dtype=float))
        if mass is None:
            return m
        return Measure1D(m.grid, m.values * (mass / m.total_mass))

    def spread(self) -> float:
        """Standard deviation about the barycenter."""
        second = float(simpson(self.values * self.grid**2, x=self.grid))
        var = second / self.total_mass - self.barycenter**2
        return math.sqrt(max(var, 0.0))

    def normalized(self) -> "Measure1D":
        return Measure1D(self.grid, self.values / self.total_mass)

    def quantiles(self, levels) -> np.ndarray:
        return _cdf_quantiles(self.grid, self.values, levels)


def sup_distance(a: Measure1D, b: Measure1D) -> float:
    """Largest pointwise density difference between two measures.

    The measures may live on different grids; each is linearly
    interpolated and treated as zero off-support. The difference of the
    interpolants is piecewise linear with breakpoints in the union of the
    node sets, so evaluating there gives the exact sup.
    """
    nodes = np.union1d(a.grid, b.grid)
    va = np.interp(nodes, a.grid, a.values, left=0.0, right=0.0)
    vb = np.interp(nodes, b.grid, b.values, left=0.0, right=0.0)
    return float(np.max(np.abs(va - vb)))


def pushforward(f: DensityField, T: TransportMap, mass: float) -> Measure1D:
    """Image of the terminal density under a monotone map, scaled to `mass`.

    The returned density is v(y) = mass * f(T^-1(y)) / T'(T^-1(y)) on the
    image grid of the source domain. Raises GridCollapseError when the
    grid nodes of the image collide in floats: the image sits too far
    from the origin, or has shrunk to a single float.
    """
    if f.domain.ndim != 1:
        raise ValueError("pushforward is 1D")
    if not mass > 0:
        raise ValueError("mass must be positive")
    a, b = f.domain.bounds[0]
    ya, yb = float(T(a)), float(T(b))
    ygrid = np.linspace(ya, yb, f.domain.resolution[0])
    if not np.all(np.diff(ygrid) > 0):
        raise GridCollapseError(
            f"map image [{ya:.6g}, {yb:.6g}] cannot be resolved on "
            f"{ygrid.size} nodes; the map has diverged"
        )
    xq, slope = T.invert_with_slope(ygrid)
    xq = np.clip(xq, a, b)
    return Measure1D(ygrid, mass * f.eval(xq) / slope)


def fixed_point_step(
    f: DensityField, nu: Measure1D, params: RadioParams
) -> tuple[AffineMap, Measure1D]:
    """One step of the fixed-point iteration on the induced map.

    Builds the map x + 2 / ((2^t - 1) m) * grad(V * nu) from the current
    station measure and pushes the terminal density through it. The
    measure must carry the total traffic m (equal to the throughput).
    For the kernel V(x) = |x|^2 the gradient is 2 * mass * (x -
    barycenter): only the aggregates of the measure matter, which is
    what makes the iteration degenerate to an affine map.
    """
    m = params.throughput
    if abs(nu.total_mass - m) > 1e-6 * max(1.0, m):
        raise ValueError("the station measure must carry the total traffic")
    coeff = 2.0 / (params.shannon_factor * m)
    slope = 1.0 + 2.0 * coeff * nu.total_mass
    offset = -2.0 * coeff * nu.total_mass * nu.barycenter
    T = AffineMap(slope, offset)
    return T, pushforward(f, T, m)


@dataclass
class SchemeResult:
    """Outcome of the fixed-point iteration."""

    measure: Measure1D
    steps: int
    converged: bool
    last_change: float


def iterate_fixed_point(
    f: DensityField,
    nu0: Measure1D,
    params: RadioParams,
    tolerance: float = 1e-8,
    max_steps: int = 50,
) -> SchemeResult:
    """Run the fixed-point iteration until the density stops moving.

    Stops when the sup-norm change between consecutive iterates, on the
    union of their grids, is below `tolerance` times their larger peak,
    so the test is free of the traffic the measures carry; `last_change`
    is the absolute change. With the quadratic kernel a centered start reaches
    the fixed point in one step and confirms it on the second.

    The barycenter is an unstable mode of the iteration: any off-center
    component is amplified by -(dilation - 1) per step. A run whose map
    diverges that way ends early with converged False and the last
    representable iterate.
    """
    if max_steps < 1:
        raise ValueError("max_steps must be at least 1")
    nu = nu0
    last_change = math.inf
    for step in range(1, max_steps + 1):
        try:
            _, nxt = fixed_point_step(f, nu, params)
        except GridCollapseError:
            return SchemeResult(nu, step - 1, False, last_change)
        last_change = sup_distance(nu, nxt)
        peak = max(nu.values.max(), nxt.values.max())
        nu = nxt
        if last_change < tolerance * peak:
            return SchemeResult(nu, step, True, last_change)
    return SchemeResult(nu, max_steps, False, last_change)


def optimal_station_density(f: DensityField, throughput: float) -> Measure1D:
    """Closed-form optimal station density for a centered terminal density.

    Dilates the terminal density by the throughput-dependent factor:
    v(y) = f(y / c) / c with c the dilation factor. The result is
    probability-normalized; scale by the traffic for the traffic measure.
    Terminal densities with a barycenter away from 0 must be re-centered
    first.
    """
    if f.domain.ndim != 1:
        raise ValueError("the closed form is 1D")
    bary = float(f.centroid()[0])
    if abs(bary) > 1e-6:
        raise ValueError(
            f"terminal density barycenter is {bary:.3g}; re-center the domain first"
        )
    return pushforward(f, AffineMap(dilation_factor(throughput)), 1.0)


def quantile_placements(nu: Measure1D, K: int) -> np.ndarray:
    """Equal-mass representative station positions for a station measure.

    Positions sit at the (2i - 1) / (2K) quantiles of the measure
    normalized to a probability measure, i = 1..K.
    """
    if K < 1:
        raise ValueError("station count must be at least 1")
    return nu.quantiles(_midpoint_levels(K))
