"""Terminal densities, demand folding, and grid quadrature.

The network model works with a probability density of terminal locations
over a bounded interval (1D) or axis-aligned rectangle (2D), together with
a throughput demand. A location-dependent demand is folded into the
density (`fold_demand`) so that every downstream computation can assume a
single constant per-unit-mass throughput.

All integrals are composite Simpson sums with one panel per grid cell,
which makes integrals over unions of grid cells exactly additive. The
samples live on the refined grid, grid nodes interleaved with cell
midpoints, and one rule covers 1D and 2D: the 1D Simpson rule
(h/6) * (f0 + 4 f1/2 + f1) applied along each axis in turn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import special
from scipy.integrate import cumulative_trapezoid

__all__ = [
    "Domain",
    "FunctionSpec",
    "DemandField",
    "DensityField",
    "fold_demand",
    "expected_terminals",
]

#: Relative slack used when deciding whether a point sits inside a domain.
CONTAINMENT_TOL = 1e-9


def _std_normal_pdf(z):
    return np.exp(-0.5 * np.square(z)) / math.sqrt(2.0 * math.pi)


def _std_normal_cdf(z):
    return 0.5 * (1.0 + special.erf(np.asarray(z, dtype=float) / math.sqrt(2.0)))


@dataclass(frozen=True)
class Domain:
    """Uniformly gridded interval (1D) or axis-aligned rectangle (2D).

    Attributes:
        bounds: per-axis (lower, upper) pairs.
        resolution: number of grid nodes per axis, at least 2.
    """

    bounds: tuple[tuple[float, float], ...]
    resolution: tuple[int, ...]

    def __post_init__(self):
        bounds = tuple((float(lo), float(hi)) for lo, hi in self.bounds)
        resolution = tuple(int(r) for r in self.resolution)
        object.__setattr__(self, "bounds", bounds)
        object.__setattr__(self, "resolution", resolution)
        if not 1 <= len(bounds) <= 2:
            raise ValueError("only 1D intervals and 2D rectangles are supported")
        if len(resolution) != len(bounds):
            raise ValueError("resolution must give one entry per axis")
        for lo, hi in bounds:
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError("domain bounds must be finite")
            if not lo < hi:
                raise ValueError("domain bounds must satisfy lower < upper")
        for r in resolution:
            if r < 2:
                raise ValueError("resolution must be at least 2 nodes per axis")

    @staticmethod
    def interval(lower: float, upper: float, resolution: int = 2001) -> "Domain":
        return Domain(((lower, upper),), (resolution,))

    @staticmethod
    def rectangle(xbounds, ybounds, resolution=(201, 201)) -> "Domain":
        if isinstance(resolution, int):
            resolution = (resolution, resolution)
        return Domain((tuple(xbounds), tuple(ybounds)), tuple(resolution))

    @property
    def ndim(self) -> int:
        return len(self.bounds)

    def axis(self, k: int) -> np.ndarray:
        lo, hi = self.bounds[k]
        return np.linspace(lo, hi, self.resolution[k])

    @property
    def axes(self) -> tuple[np.ndarray, ...]:
        return tuple(self.axis(k) for k in range(self.ndim))

    @property
    def spacings(self) -> tuple[float, ...]:
        return tuple(
            (hi - lo) / (r - 1) for (lo, hi), r in zip(self.bounds, self.resolution)
        )

    @property
    def volume(self) -> float:
        out = 1.0
        for lo, hi in self.bounds:
            out *= hi - lo
        return out

    @property
    def cell_counts(self) -> tuple[int, ...]:
        return tuple(r - 1 for r in self.resolution)

    def cell_centers(self) -> np.ndarray:
        """Centers of the grid cells, shape (cells,) in 1D or (cells, 2) in 2D."""
        pts = _grid_points([0.5 * (ax[:-1] + ax[1:]) for ax in self.axes])
        return pts.reshape((-1,) + pts.shape[self.ndim :])

    def contains(self, points: np.ndarray) -> np.ndarray:
        coords, shape = _coords(points, self.ndim)
        ok = np.ones(coords[0].shape, dtype=bool)
        for x, (lo, hi) in zip(coords, self.bounds):
            tol = CONTAINMENT_TOL * (hi - lo)
            ok &= (x >= lo - tol) & (x <= hi + tol)
        return ok.reshape(shape)


def _coords(points, ndim: int):
    """Per-axis coordinates of points ((...,) in 1D, (..., 2) in 2D) and the points' shape."""
    pts = np.asarray(points, dtype=float)
    if ndim == 1:
        return [pts.reshape(-1)], pts.shape
    if pts.shape[-1:] != (ndim,):
        raise ValueError(f"{ndim}D points must have a trailing axis of length {ndim}")
    return [pts[..., k].ravel() for k in range(ndim)], pts.shape[:-1]


def _grid_points(axes) -> np.ndarray:
    """The tensor grid of per-axis coordinates: (n,) in 1D, (nx, ny, 2) in 2D."""
    if len(axes) == 1:
        return axes[0]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)


@dataclass(frozen=True)
class FunctionSpec:
    """Closed-form function description: a kind tag plus parameters.

    Density kinds (normalized over the domain): ``uniform``; ``normal``
    with ``mu``/``sigma`` (truncated to the domain and renormalized);
    ``truncated_normal`` with ``mu``, ``sigma``, ``a``, ``b``;
    ``triangular`` with ``a``, ``c``, ``b`` (1D only); ``grid`` with raw
    ``values`` on the domain nodes. Demand functions may additionally use
    ``constant`` (``value``) and ``affine`` (``slope``, ``intercept``).

    Keeping functions as tags plus parameters, rather than arbitrary
    callables, lets verification code integrate them independently.
    """

    kind: str
    params: dict

    DENSITY_KINDS = ("uniform", "normal", "truncated_normal", "triangular", "grid")
    DEMAND_KINDS = DENSITY_KINDS + ("constant", "affine")


def _per_axis(value, ndim: int, name: str) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(value, dtype=float))
    if arr.size == 1:
        arr = np.full(ndim, arr.item())
    if arr.shape != (ndim,):
        raise ValueError(f"{name} must be a scalar or one value per axis")
    return arr


def default_domain(spec: FunctionSpec, resolution: int = 2001) -> Domain:
    """Natural domain for a spec that implies one (normal and triangular kinds)."""
    if spec.kind == "normal":
        mu = np.atleast_1d(np.asarray(spec.params["mu"], dtype=float))
        sigma = np.atleast_1d(np.asarray(spec.params["sigma"], dtype=float))
        ndim = max(mu.size, sigma.size)
        mu = _per_axis(mu, ndim, "mu")
        sigma = _per_axis(sigma, ndim, "sigma")
        bounds = tuple((m - 8.0 * s, m + 8.0 * s) for m, s in zip(mu, sigma))
        return Domain(bounds, (resolution,) * ndim)
    if spec.kind == "truncated_normal":
        a = np.atleast_1d(np.asarray(spec.params["a"], dtype=float))
        b = np.atleast_1d(np.asarray(spec.params["b"], dtype=float))
        ndim = a.size
        return Domain(tuple(zip(a, b)), (resolution,) * ndim)
    if spec.kind == "triangular":
        return Domain.interval(spec.params["a"], spec.params["b"], resolution)
    raise ValueError(f"kind {spec.kind!r} needs an explicit domain")


def spec_values(spec: FunctionSpec, domain: Domain, points: np.ndarray) -> np.ndarray:
    """Evaluate a function spec at points inside the domain.

    `points` is an array of locations, shape (...,) in 1D or (..., 2)
    in 2D. Grid-kind specs are evaluated by multilinear interpolation.
    """
    coords, out_shape = _coords(points, domain.ndim)
    kind, p = spec.kind, spec.params
    if kind == "uniform":
        out = np.full(coords[0].shape, 1.0 / domain.volume)
    elif kind in ("normal", "truncated_normal"):
        mu = _per_axis(p["mu"], domain.ndim, "mu")
        sigma = _per_axis(p["sigma"], domain.ndim, "sigma")
        if np.any(sigma <= 0):
            raise ValueError("sigma must be positive")
        if kind == "truncated_normal":
            lo = _per_axis(p["a"], domain.ndim, "a")
            hi = _per_axis(p["b"], domain.ndim, "b")
        else:
            lo = np.array([b[0] for b in domain.bounds])
            hi = np.array([b[1] for b in domain.bounds])
        out = np.ones_like(coords[0])
        for k in range(domain.ndim):
            z = (coords[k] - mu[k]) / sigma[k]
            mass = _std_normal_cdf((hi[k] - mu[k]) / sigma[k]) - _std_normal_cdf(
                (lo[k] - mu[k]) / sigma[k]
            )
            out = out * _std_normal_pdf(z) / (sigma[k] * mass)
    elif kind == "triangular":
        if domain.ndim != 1:
            raise ValueError("triangular densities are 1D only")
        a, c, b = float(p["a"]), float(p["c"]), float(p["b"])
        if not a <= c <= b or a == b:
            raise ValueError("triangular parameters must satisfy a <= c <= b, a < b")
        x = coords[0]
        out = np.zeros_like(x)
        if c > a:
            rising = (x >= a) & (x <= c)
            out[rising] = 2.0 * (x[rising] - a) / ((b - a) * (c - a))
        if b > c:
            falling = (x > c) & (x <= b)
            out[falling] = 2.0 * (b - x[falling]) / ((b - a) * (b - c))
    elif kind == "grid":
        out = _interp_grid(domain, np.asarray(p["values"], dtype=float), coords)
    elif kind == "constant":
        out = np.full(coords[0].shape, float(p["value"]))
    elif kind == "affine":
        slope = _per_axis(p["slope"], domain.ndim, "slope")
        out = np.full(coords[0].shape, float(p.get("intercept", 0.0)))
        for k in range(domain.ndim):
            out = out + slope[k] * coords[k]
    else:
        raise ValueError(f"unknown function kind {kind!r}")
    return out.reshape(out_shape)


def _cdf_quantiles(grid: np.ndarray, values: np.ndarray, levels) -> np.ndarray:
    """Points where the normalized trapezoid CDF of samples reaches each level."""
    cdf = cumulative_trapezoid(values, grid, initial=0.0)
    cdf /= cdf[-1]
    return np.interp(np.asarray(levels, dtype=float), cdf, grid)


def _midpoint_levels(n: int) -> np.ndarray:
    """Levels (2i - 1) / (2n), i = 1..n: the centers of n equal-mass slices."""
    return (2.0 * np.arange(1, n + 1) - 1.0) / (2.0 * n)


def _interp_grid(domain: Domain, values: np.ndarray, coords) -> np.ndarray:
    values = values.reshape(domain.resolution)
    if domain.ndim == 1:
        return np.interp(coords[0], domain.axis(0), values)
    xg, yg = domain.axes
    ix = np.clip(np.searchsorted(xg, coords[0], side="right") - 1, 0, len(xg) - 2)
    iy = np.clip(np.searchsorted(yg, coords[1], side="right") - 1, 0, len(yg) - 2)
    tx = (coords[0] - xg[ix]) / (xg[ix + 1] - xg[ix])
    ty = (coords[1] - yg[iy]) / (yg[iy + 1] - yg[iy])
    tx = np.clip(tx, 0.0, 1.0)
    ty = np.clip(ty, 0.0, 1.0)
    return (
        values[ix, iy] * (1 - tx) * (1 - ty)
        + values[ix + 1, iy] * tx * (1 - ty)
        + values[ix, iy + 1] * (1 - tx) * ty
        + values[ix + 1, iy + 1] * tx * ty
    )


def _refine(a: np.ndarray, axis: int) -> np.ndarray:
    """`a` with the midpoint of every neighbouring pair inserted along `axis`."""
    lead = (slice(None),) * axis
    shape = list(a.shape)
    shape[axis] = 2 * shape[axis] - 1
    out = np.empty(shape)
    out[lead + np.s_[::2,]] = a
    out[lead + np.s_[1::2,]] = 0.5 * (a[lead + np.s_[:-1,]] + a[lead + np.s_[1:,]])
    return out


def _simpson_points(axes) -> np.ndarray:
    """Every Simpson point of the panels between consecutive entries of `axes`.

    The refined grid of panel edges and panel midpoints: shape (2n-1,)
    in 1D, (2nx-1, 2ny-1, 2) in 2D.
    """
    return _grid_points([_refine(ax, 0) for ax in axes])


def _stencil(spec: FunctionSpec, domain: Domain) -> np.ndarray:
    """A spec's values at every Simpson point of the domain grid."""
    return spec_values(spec, domain, _simpson_points(domain.axes))


def _node_stencil(domain: Domain, values: np.ndarray) -> np.ndarray:
    """Simpson-point values of gridded data: midpoints by linear interpolation."""
    f = np.asarray(values, dtype=float).reshape(domain.resolution)
    for k in range(domain.ndim):
        f = _refine(f, k)
    return f


def _simpson(f: np.ndarray, widths, weights=(None, None)) -> np.ndarray:
    """Per-cell Simpson integrals of samples `f` on the refined grid.

    Applies (h/6) * (f0 + 4 f1/2 + f1) along each axis in turn. `widths`
    gives each axis's cell widths, a scalar or one per cell; `weights`
    holds for each axis None or a factor sampled at that axis's Simpson
    points. Returns one C-contiguous value per cell.
    """
    for k, h in enumerate(widths):
        trailing = (1,) * (f.ndim - k - 1)
        if weights[k] is not None:
            f = f * np.reshape(weights[k], (-1,) + trailing)
        lead = (slice(None),) * k
        f = (np.reshape(h, (-1,) + trailing) / 6.0) * (
            f[lead + np.s_[:-1:2,]] + 4.0 * f[lead + np.s_[1::2,]] + f[lead + np.s_[2::2,]]
        )
    return f


class DensityField:
    """Probability density sampled on a domain grid.

    Carries the constant per-unit-mass throughput the density absorbs, the
    node samples, and (when available) the closed form it came from.
    Instances are immutable by convention; all methods are read-only.

    Attributes:
        domain: the gridded support.
        values: density samples at the grid nodes.
        throughput: constant per-unit-mass throughput, > 0.
        analytic: the closed-form spec behind the samples, None for
            gridded or folded data.
    """

    def __init__(
        self,
        domain: Domain,
        values: np.ndarray,
        throughput: float,
        analytic: Optional[FunctionSpec] = None,
        *,
        scale: float = 1.0,
        stencil: Optional[np.ndarray] = None,
    ):
        self.domain = domain
        self.values = np.ascontiguousarray(values, dtype=float).reshape(domain.resolution)
        self.throughput = float(throughput)
        self.analytic = analytic
        self._scale = float(scale)
        if not self.throughput > 0:
            raise ValueError("throughput must be positive")
        if stencil is None:
            stencil = _node_stencil(domain, self.values)
        self._stencil = stencil
        if not stencil.min() >= -1e-12:
            raise ValueError("density values must be nonnegative")
        self._cell_mass = _simpson(stencil, domain.spacings)
        mass = float(self._cell_mass.sum())
        if not abs(mass - 1.0) <= 1e-9:
            raise ValueError(
                f"density must integrate to 1, got {mass!r}; normalize first"
            )
        self._moment_cache: dict[str, np.ndarray] = {}

    # ------------------------------------------------------------------ build

    @staticmethod
    def from_spec(
        spec: FunctionSpec,
        throughput: float = 1.0,
        domain: Optional[Domain] = None,
        resolution: int = 2001,
    ) -> "DensityField":
        """Build a normalized field from a closed-form spec.

        The quadrature residual of the closed form on this grid is folded
        into an internal scale factor, so the stored samples integrate to
        exactly 1 at any resolution.
        """
        if spec.kind not in FunctionSpec.DENSITY_KINDS:
            raise ValueError(f"{spec.kind!r} is not a density kind")
        if domain is None:
            domain = default_domain(spec, resolution)
        if spec.kind == "grid":
            return DensityField.from_values(
                domain, np.asarray(spec.params["values"], dtype=float), throughput
            )
        return DensityField._normalized(domain, _stencil(spec, domain), throughput, spec)

    @staticmethod
    def from_values(
        domain: Domain, values: np.ndarray, throughput: float = 1.0
    ) -> "DensityField":
        """Build a normalized field from raw node samples."""
        return DensityField._normalized(domain, _node_stencil(domain, values), throughput)

    @staticmethod
    def _normalized(domain: Domain, stencil: np.ndarray, throughput, analytic=None) -> "DensityField":
        """The field of Simpson-point samples scaled to unit Simpson mass."""
        if not stencil.min() >= -1e-12:
            raise ValueError("density values must be nonnegative")
        mass = float(_simpson(stencil, domain.spacings).sum())
        if not 0 < mass < math.inf:
            raise ValueError("density mass must be positive and finite")
        scale = 1.0 / mass
        stencil = scale * stencil
        nodes = stencil[np.s_[::2,] * domain.ndim]
        return DensityField(domain, nodes, throughput, analytic, scale=scale, stencil=stencil)

    # ------------------------------------------------------------------- eval

    def eval(self, points) -> np.ndarray:
        """Density at arbitrary points of the domain.

        Uses the closed form when one is attached, multilinear
        interpolation of the node samples otherwise. Points outside the
        domain raise ValueError.
        """
        pts = np.asarray(points, dtype=float)
        if not np.all(self.domain.contains(pts)):
            raise ValueError("point outside the density domain")
        if self.analytic is not None:
            return self._scale * spec_values(self.analytic, self.domain, pts)
        return spec_values(FunctionSpec("grid", {"values": self.values}), self.domain, pts)

    # ------------------------------------------------------------- quadrature

    def cell_masses(self) -> np.ndarray:
        """Simpson mass of every grid cell; sums to 1."""
        return self._cell_mass

    def _axis_moment(self, k: int, power: int) -> np.ndarray:
        """Per-cell integrals of coordinate k to `power` against the density."""
        weights = [None] * self.domain.ndim
        weights[k] = _refine(self.domain.axis(k), 0) ** power
        return _simpson(self._stencil, self.domain.spacings, weights)

    def cell_first_moments(self) -> tuple[np.ndarray, ...]:
        """Per-cell integrals of each coordinate against the density."""
        if "first" not in self._moment_cache:
            self._moment_cache["first"] = tuple(
                self._axis_moment(k, 1) for k in range(self.domain.ndim)
            )
        return self._moment_cache["first"]

    def cell_second_moments(self) -> np.ndarray:
        """Per-cell integrals of the squared distance to the origin."""
        if "second" not in self._moment_cache:
            terms = [self._axis_moment(k, 2) for k in range(self.domain.ndim)]
            self._moment_cache["second"] = sum(terms[1:], terms[0])
        return self._moment_cache["second"]

    def centroid(self) -> np.ndarray:
        """Barycenter of the density."""
        return np.array([float(m.sum()) for m in self.cell_first_moments()])

    def spread(self) -> float:
        """Standard deviation about the barycenter (1D)."""
        if self.domain.ndim != 1:
            raise ValueError("spread is defined for 1D densities")
        c = float(self.centroid()[0])
        second = float(self.cell_second_moments().sum())
        return math.sqrt(max(second - c * c, 0.0))

    def integrate(self, region=None) -> float:
        """Integral of the density over a sub-interval or sub-rectangle.

        `region` is (lo, hi) in 1D or ((xlo, xhi), (ylo, yhi)) in 2D;
        None integrates the whole domain. Regions reaching outside the
        domain raise ValueError.
        """
        if region is None:
            return float(self._cell_mass.sum())
        edges = []
        for k, (lo, hi) in enumerate(self._normalize_region(region)):
            if hi <= lo:
                return 0.0
            ax = self.domain.axis(k)
            edges.append(np.concatenate([[lo], ax[(ax > lo) & (ax < hi)], [hi]]))
        vals = self.eval(_simpson_points(edges))
        return float(_simpson(vals, [np.diff(e) for e in edges]).sum())

    def _normalize_region(self, region):
        pairs = np.asarray(region, dtype=float).reshape(-1, 2)
        if len(pairs) != self.domain.ndim:
            raise ValueError(f"{self.domain.ndim}D regions need (lo, hi) bounds for each axis")
        out = []
        for (lo, hi), (dlo, dhi) in zip(pairs.tolist(), self.domain.bounds):
            tol = CONTAINMENT_TOL * (dhi - dlo)
            if lo > hi:
                raise ValueError("region bounds must satisfy lower <= upper")
            if lo < dlo - tol or hi > dhi + tol:
                raise ValueError("region exceeds the density domain")
            out.append((min(max(lo, dlo), dhi), min(max(hi, dlo), dhi)))
        return out

    def quantiles(self, levels) -> np.ndarray:
        """Quantile locations of a 1D density from its gridded CDF."""
        if self.domain.ndim != 1:
            raise ValueError("quantiles are defined for 1D densities")
        return _cdf_quantiles(self.domain.axis(0), self.values, levels)


@dataclass(frozen=True)
class DemandField:
    """Raw demand description before folding.

    `terminal_density` is the probability density of terminal locations
    on the domain; `throughput_demand` is a nonnegative throughput
    requirement per unit terminal mass, allowed to vary with location.
    """

    domain: Domain
    terminal_density: FunctionSpec
    throughput_demand: FunctionSpec

    def __post_init__(self):
        if self.terminal_density.kind not in FunctionSpec.DENSITY_KINDS:
            raise ValueError(
                f"{self.terminal_density.kind!r} is not a density kind"
            )
        if self.throughput_demand.kind not in FunctionSpec.DEMAND_KINDS:
            raise ValueError(
                f"{self.throughput_demand.kind!r} is not a demand kind"
            )


def fold_demand(demand: DemandField) -> DensityField:
    """Fold a location-dependent demand into the terminal density.

    Returns a density field whose samples are proportional to
    density * demand, normalized to unit mass, carrying the average
    throughput as its constant. The product density * throughput is
    preserved pointwise, so total power computations are unchanged by
    the folding.
    """
    base = DensityField.from_spec(
        demand.terminal_density, throughput=1.0, domain=demand.domain
    )
    t_stencil = _stencil(demand.throughput_demand, demand.domain)
    if not t_stencil.min() >= -1e-12:
        raise ValueError("throughput demand must be nonnegative")
    product = base._stencil * t_stencil
    throughput = float(_simpson(product, demand.domain.spacings).sum())
    if not throughput > 0:
        raise ValueError("demand is identically zero; nothing to serve")
    if demand.throughput_demand.kind == "constant":
        return DensityField(
            demand.domain,
            base.values,
            throughput,
            analytic=base.analytic,
            scale=base._scale,
            stencil=base._stencil,
        )
    return DensityField._normalized(demand.domain, product, throughput)


def expected_terminals(d: DensityField, region, total: float) -> float:
    """Expected number of terminals in a region out of `total` overall."""
    if total < 0:
        raise ValueError("total terminal count must be nonnegative")
    return total * d.integrate(region)
