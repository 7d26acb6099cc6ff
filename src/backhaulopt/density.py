"""Terminal densities, demand folding, and grid quadrature.

The network model works with a probability density of terminal locations
over a bounded interval (1D) or axis-aligned rectangle (2D), together with
a throughput demand. A location-dependent demand is folded into the
density (`fold_demand`) so that every downstream computation can assume a
single constant per-unit-mass throughput.

All integrals are composite Simpson sums with one panel per grid cell
(values at the cell endpoints and the cell midpoint), which makes
integrals over unions of grid cells exactly additive.
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
        mids = [0.5 * (ax[:-1] + ax[1:]) for ax in self.axes]
        if self.ndim == 1:
            return mids[0]
        mx, my = np.meshgrid(mids[0], mids[1], indexing="ij")
        return np.stack([mx.ravel(), my.ravel()], axis=-1)

    def contains(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        if self.ndim == 1:
            lo, hi = self.bounds[0]
            tol = CONTAINMENT_TOL * (hi - lo)
            return (pts >= lo - tol) & (pts <= hi + tol)
        ok = np.ones(pts.shape[:-1], dtype=bool)
        for k, (lo, hi) in enumerate(self.bounds):
            tol = CONTAINMENT_TOL * (hi - lo)
            ok &= (pts[..., k] >= lo - tol) & (pts[..., k] <= hi + tol)
        return ok


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
    pts = np.asarray(points, dtype=float)
    if domain.ndim == 1:
        coords = [pts.reshape(-1)]
        out_shape = pts.shape
    else:
        if pts.shape[-1] != 2:
            raise ValueError("2D points must have a trailing axis of length 2")
        coords = [pts[..., 0].ravel(), pts[..., 1].ravel()]
        out_shape = pts.shape[:-1]

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


class _Stencil:
    """Function values at every Simpson evaluation point of the grid.

    1D: values at nodes and at cell midpoints. 2D: values at nodes, at
    x-midpoints, at y-midpoints, and at cell centers. These are exactly
    the points a per-cell Simpson panel needs.
    """

    __slots__ = ("ndim", "arrays")

    def __init__(self, ndim: int, arrays: tuple):
        self.ndim = ndim
        self.arrays = arrays

    @staticmethod
    def points(domain: Domain):
        """Evaluation-point arrays, in the same order as the value arrays."""
        if domain.ndim == 1:
            x = domain.axis(0)
            return (x, 0.5 * (x[:-1] + x[1:]))
        xg, yg = domain.axes
        xm, ym = 0.5 * (xg[:-1] + xg[1:]), 0.5 * (yg[:-1] + yg[1:])

        def mesh(a, b):
            A, B = np.meshgrid(a, b, indexing="ij")
            return np.stack([A, B], axis=-1)

        return (mesh(xg, yg), mesh(xm, yg), mesh(xg, ym), mesh(xm, ym))

    @staticmethod
    def evaluate(spec: FunctionSpec, domain: Domain) -> "_Stencil":
        arrays = tuple(spec_values(spec, domain, p) for p in _Stencil.points(domain))
        return _Stencil(domain.ndim, arrays)

    @staticmethod
    def from_node_values(domain: Domain, values: np.ndarray) -> "_Stencil":
        """Stencil for gridded data: midpoints by linear interpolation."""
        v = np.asarray(values, dtype=float).reshape(domain.resolution)
        if domain.ndim == 1:
            return _Stencil(1, (v, 0.5 * (v[:-1] + v[1:])))
        v_mn = 0.5 * (v[:-1, :] + v[1:, :])
        v_nm = 0.5 * (v[:, :-1] + v[:, 1:])
        v_mm = 0.25 * (v[:-1, :-1] + v[1:, :-1] + v[:-1, 1:] + v[1:, 1:])
        return _Stencil(2, (v, v_mn, v_nm, v_mm))

    def scaled(self, factor: float) -> "_Stencil":
        return _Stencil(self.ndim, tuple(factor * a for a in self.arrays))

    def product(self, other: "_Stencil") -> "_Stencil":
        return _Stencil(
            self.ndim, tuple(a * b for a, b in zip(self.arrays, other.arrays))
        )

    def minimum(self) -> float:
        return min(float(a.min()) for a in self.arrays)


def _cell_integrals(domain: Domain, stencil: _Stencil, ax=None, ay=None) -> np.ndarray:
    """Per-cell Simpson integrals of a(x) * b(y) * f.

    `ax`/`ay` give the per-axis weight functions sampled at (nodes, mids);
    None means the constant 1. Returns one value per grid cell.
    """
    if domain.ndim == 1:
        h = domain.spacings[0]
        v, vm = stencil.arrays
        an, am = ax if ax is not None else (np.ones_like(v), np.ones_like(vm))
        return (h / 6.0) * (an[:-1] * v[:-1] + 4.0 * am * vm + an[1:] * v[1:])
    hx, hy = domain.spacings
    v_nn, v_mn, v_nm, v_mm = stencil.arrays
    xg, yg = domain.axes
    xm, ym = 0.5 * (xg[:-1] + xg[1:]), 0.5 * (yg[:-1] + yg[1:])
    an, am = ax if ax is not None else (np.ones_like(xg), np.ones_like(xm))
    bn, bm = ay if ay is not None else (np.ones_like(yg), np.ones_like(ym))
    An, Am = an[:, None], am[:, None]
    Bn, Bm = bn[None, :], bm[None, :]
    corners = (
        An[:-1] * Bn[:, :-1] * v_nn[:-1, :-1]
        + An[1:] * Bn[:, :-1] * v_nn[1:, :-1]
        + An[:-1] * Bn[:, 1:] * v_nn[:-1, 1:]
        + An[1:] * Bn[:, 1:] * v_nn[1:, 1:]
    )
    x_edges = Am * (Bn[:, :-1] * v_mn[:, :-1] + Bn[:, 1:] * v_mn[:, 1:])
    y_edges = Bm * (An[:-1] * v_nm[:-1, :] + An[1:] * v_nm[1:, :])
    centers = Am * Bm * v_mm
    return (hx * hy / 36.0) * (corners + 4.0 * (x_edges + y_edges) + 16.0 * centers)


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
        stencil: Optional[_Stencil] = None,
    ):
        self.domain = domain
        self.values = np.asarray(values, dtype=float).reshape(domain.resolution)
        self.throughput = float(throughput)
        self.analytic = analytic
        self._scale = float(scale)
        if not self.throughput > 0:
            raise ValueError("throughput must be positive")
        if stencil is None:
            stencil = _Stencil.from_node_values(domain, self.values)
        self._stencil = stencil
        if not stencil.minimum() >= -1e-12:
            raise ValueError("density values must be nonnegative")
        self._cell_mass = _cell_integrals(domain, stencil)
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
        return DensityField._normalized(domain, _Stencil.evaluate(spec, domain), throughput, spec)

    @staticmethod
    def from_values(
        domain: Domain, values: np.ndarray, throughput: float = 1.0
    ) -> "DensityField":
        """Build a normalized field from raw node samples."""
        return DensityField._normalized(
            domain, _Stencil.from_node_values(domain, values), throughput
        )

    @staticmethod
    def _normalized(domain: Domain, stencil: _Stencil, throughput, analytic=None) -> "DensityField":
        """The field of a stencil scaled to unit Simpson mass."""
        if not stencil.minimum() >= -1e-12:
            raise ValueError("density values must be nonnegative")
        mass = float(_cell_integrals(domain, stencil).sum())
        if not 0 < mass < math.inf:
            raise ValueError("density mass must be positive and finite")
        scale = 1.0 / mass
        return DensityField(
            domain,
            scale * stencil.arrays[0],
            throughput,
            analytic,
            scale=scale,
            stencil=stencil.scaled(scale),
        )

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
        if self.domain.ndim == 1:
            coords = [pts.reshape(-1)]
            shape = pts.shape
        else:
            coords = [pts[..., 0].ravel(), pts[..., 1].ravel()]
            shape = pts.shape[:-1]
        return _interp_grid(self.domain, self.values, coords).reshape(shape)

    # ------------------------------------------------------------- quadrature

    def cell_masses(self) -> np.ndarray:
        """Simpson mass of every grid cell; sums to 1."""
        return self._cell_mass

    def _axis_weights(self, k: int, power: int):
        ax = self.domain.axis(k)
        am = 0.5 * (ax[:-1] + ax[1:])
        return ax**power, am**power

    def cell_first_moments(self) -> tuple[np.ndarray, ...]:
        """Per-cell integrals of each coordinate against the density."""
        key = "first"
        if key not in self._moment_cache:
            if self.domain.ndim == 1:
                moments = (
                    _cell_integrals(self.domain, self._stencil, ax=self._axis_weights(0, 1)),
                )
            else:
                moments = (
                    _cell_integrals(self.domain, self._stencil, ax=self._axis_weights(0, 1)),
                    _cell_integrals(self.domain, self._stencil, ay=self._axis_weights(1, 1)),
                )
            self._moment_cache[key] = moments
        return self._moment_cache[key]

    def cell_second_moments(self) -> np.ndarray:
        """Per-cell integrals of the squared distance to the origin."""
        key = "second"
        if key not in self._moment_cache:
            out = _cell_integrals(self.domain, self._stencil, ax=self._axis_weights(0, 2))
            if self.domain.ndim == 2:
                out = out + _cell_integrals(
                    self.domain, self._stencil, ay=self._axis_weights(1, 2)
                )
            self._moment_cache[key] = out
        return self._moment_cache[key]

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
        bounds = self._normalize_region(region)
        panels = [self._axis_panels(k, lo, hi) for k, (lo, hi) in enumerate(bounds)]
        if any(p is None for p in panels):
            return 0.0
        if self.domain.ndim == 1:
            lo, hi = panels[0]
            pts = np.concatenate([lo, 0.5 * (lo + hi), hi])
            vals = self.eval(pts).reshape(3, -1)
            return float(np.sum((hi - lo) / 6.0 * (vals[0] + 4.0 * vals[1] + vals[2])))
        (xlo, xhi), (ylo, yhi) = panels
        x3 = np.stack([xlo, 0.5 * (xlo + xhi), xhi], axis=1)
        y3 = np.stack([ylo, 0.5 * (ylo + yhi), yhi], axis=1)
        px, py = np.meshgrid(x3.ravel(), y3.ravel(), indexing="ij")
        vals = self.eval(np.stack([px, py], axis=-1))
        vals = vals.reshape(len(xlo), 3, len(ylo), 3)
        w = np.array([1.0, 4.0, 1.0]) / 6.0
        inner = np.einsum("u,v,punv->pn", w, w, vals)
        sizes = np.outer(xhi - xlo, yhi - ylo)
        return float(np.sum(sizes * inner))

    def _normalize_region(self, region):
        if self.domain.ndim == 1:
            lo, hi = region
            pairs = [(float(lo), float(hi))]
        else:
            pairs = [(float(lo), float(hi)) for lo, hi in region]
            if len(pairs) != 2:
                raise ValueError("2D regions need bounds for both axes")
        out = []
        for (lo, hi), (dlo, dhi) in zip(pairs, self.domain.bounds):
            tol = CONTAINMENT_TOL * (dhi - dlo)
            if lo > hi:
                raise ValueError("region bounds must satisfy lower <= upper")
            if lo < dlo - tol or hi > dhi + tol:
                raise ValueError("region exceeds the density domain")
            out.append((min(max(lo, dlo), dhi), min(max(hi, dlo), dhi)))
        return out

    def _axis_panels(self, k: int, lo: float, hi: float):
        """Panel edges covering [lo, hi]: partial end cells, full cells between."""
        if hi <= lo:
            return None
        ax = self.domain.axis(k)
        inner = ax[(ax > lo) & (ax < hi)]
        edges = np.concatenate([[lo], inner, [hi]])
        return edges[:-1], edges[1:]

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
    t_stencil = _Stencil.evaluate(demand.throughput_demand, demand.domain)
    if not t_stencil.minimum() >= -1e-12:
        raise ValueError("throughput demand must be nonnegative")
    throughput = float(
        _cell_integrals(demand.domain, base._stencil.product(t_stencil)).sum()
    )
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
    folded = base._stencil.product(t_stencil).scaled(1.0 / throughput)
    return DensityField(
        demand.domain,
        folded.arrays[0],
        throughput,
        analytic=None,
        stencil=folded,
    )


def expected_terminals(d: DensityField, region, total: float) -> float:
    """Expected number of terminals in a region out of `total` overall."""
    if total < 0:
        raise ValueError("total terminal count must be nonnegative")
    return total * d.integrate(region)
