"""Terminal densities, demand folding, and grid quadrature.

The network model works with a probability density of terminal locations
over a bounded interval (1D) or axis-aligned rectangle (2D), together with
a throughput demand. A location-dependent demand is folded into the
density (`fold_demand`) so that every downstream computation can assume a
single constant per-unit-mass throughput.

Density integrals are composite Simpson sums with one panel per grid cell,
which makes integrals over unions of grid cells exactly additive. The
samples live on the refined grid, grid nodes interleaved with cell
midpoints, and one rule covers 1D and 2D: the 1D Simpson rule
(h/6) * (f0 + 4 f1/2 + f1) applied along each axis in turn.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
from dataclasses import dataclass
from typing import Optional

import numpy as np

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

#: Largest grid a Domain accepts, counted in Simpson points (2r - 1 per
#: axis for r nodes): 2**21 of them are 16 MiB per float array.
MAX_SIMPSON_POINTS = 2**21


def _std_normal_cdf(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


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
        if _non_numeric(self.bounds):
            raise ValueError("domain bounds must be numeric, not strings or booleans")
        bounds = tuple((float(lo), float(hi)) for lo, hi in self.bounds)
        try:
            resolution = tuple(operator.index(r) for r in self.resolution)
        except TypeError as exc:
            raise TypeError(f"resolution must be whole node counts: {exc}") from None
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
        points = math.prod(2 * r - 1 for r in resolution)
        if points > MAX_SIMPSON_POINTS:
            raise ValueError(
                f"a {resolution} grid has {points} Simpson points, "
                f"more than the limit of {MAX_SIMPSON_POINTS}"
            )

    @staticmethod
    def interval(lower: float, upper: float, resolution: int = 2001) -> "Domain":
        return Domain(((lower, upper),), (resolution,))

    @staticmethod
    def rectangle(xbounds, ybounds, resolution=(201, 201)) -> "Domain":
        if np.ndim(resolution) == 0:
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

    @functools.cached_property
    def midpoints(self) -> tuple[np.ndarray, ...]:
        """Per axis, the read-only cell-center coordinates, computed once."""
        mids = tuple(0.5 * (ax[:-1] + ax[1:]) for ax in self.axes)
        for m in mids:
            m.flags.writeable = False
        return mids

    def cell_centers(self) -> np.ndarray:
        """Centers of the grid cells, shape (cells,) in 1D (read-only) or (cells, 2) in 2D."""
        pts = _grid_points(self.midpoints)
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
    ``truncated_normal`` with ``mu``, ``sigma``, ``a``, ``b`` (0 off [a, b]);
    ``triangular`` with ``a``, ``c``, ``b`` (1D only); ``grid`` with raw
    ``values`` on the domain nodes. Demand functions may additionally use
    ``constant`` (``value``) and ``affine`` (``slope``, ``intercept``).
    An unknown kind or parameter name raises ValueError.

    Keeping functions as tags plus parameters, rather than arbitrary
    callables, lets verification code integrate them independently.
    """

    kind: str
    params: dict

    # every kind and the parameter names it reads
    PARAMS = {
        "uniform": (),
        "normal": ("mu", "sigma"),
        "truncated_normal": ("mu", "sigma", "a", "b"),
        "triangular": ("a", "c", "b"),
        "grid": ("values",),
        "constant": ("value",),
        "affine": ("slope", "intercept"),
    }
    DENSITY_KINDS = ("uniform", "normal", "truncated_normal", "triangular", "grid")

    def __post_init__(self):
        if self.kind not in self.PARAMS:
            raise ValueError(f"unknown function kind {self.kind!r}")
        names = self.PARAMS[self.kind]
        unknown = sorted(set(self.params) - set(names))
        if unknown:
            takes = ", ".join(names) or "no parameters"
            raise ValueError(
                f"unknown parameter {unknown[0]!r} for kind {self.kind!r}; it takes {takes}"
            )
        for name, value in self.params.items():
            if _non_numeric(value):
                raise ValueError(f"{self.kind} parameter {name!r} must be numeric, not a string or boolean")


def _non_numeric(value) -> bool:
    """Whether a number, or any entry of a list of them, is a string or boolean, which float() reads."""
    if isinstance(value, (list, tuple)):
        return any(map(_non_numeric, value))
    return isinstance(value, (str, bool)) or getattr(value, "dtype", np.dtype(float)).kind in "bUS"


def _check_count(value, name: str, least: int, most: float = math.inf) -> None:
    """Raise ValueError unless `value` is a whole number in [least, most]; True is not a count."""
    if isinstance(value, bool) or not (isinstance(value, numbers.Integral) and least <= value <= most):
        span = f"in [{least}, {most}]" if most < math.inf else f"at least {least}"
        raise ValueError(f"{name} must be a whole number, {span}")


def _positive(value, name: str) -> float:
    """`value` as a float if it is a finite number above 0, else ValueError (also for a string,
    boolean, None, list or int beyond float range); the message omits `value`, whose repr may raise."""
    try:
        number = math.nan if _non_numeric(value) else float(value)
    except (TypeError, ValueError, OverflowError):
        number = math.nan
    if not 0 < number < math.inf:
        raise ValueError(f"{name} must be a positive finite number")
    return number


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
        out = None
        for k in range(domain.ndim):
            mass = _std_normal_cdf((hi[k] - mu[k]) / sigma[k]) - _std_normal_cdf(
                (lo[k] - mu[k]) / sigma[k]
            )
            # exp(-0.5·z²)/sqrt(2π) at z = (x − mu)/sigma, one buffer per axis
            pdf = np.subtract(coords[k], mu[k])
            pdf /= sigma[k]
            np.square(pdf, out=pdf)
            pdf *= -0.5
            np.exp(pdf, out=pdf)
            pdf /= math.sqrt(2.0 * math.pi)
            if kind == "truncated_normal":  # zero beyond [a, b], as triangular is
                tol = CONTAINMENT_TOL * (hi[k] - lo[k])
                pdf[(coords[k] < lo[k] - tol) | (coords[k] > hi[k] + tol)] = 0.0
            if out is None:
                out = pdf  # the product starts at 1, and 1·pdf is pdf
            else:
                out *= pdf
            out /= sigma[k] * mass
    elif kind == "triangular":
        if domain.ndim != 1:
            raise ValueError("triangular densities are 1D only")
        a, c, b = float(p["a"]), float(p["c"]), float(p["b"])
        if not a <= c <= b or a == b:
            raise ValueError("triangular parameters must satisfy a <= c <= b, a < b")
        x = coords[0]
        out = np.zeros_like(x)
        # the rising branch, written last, owns the peak x = c unless c == a
        if b > c:
            falling = (x >= c) & (x <= b)
            out[falling] = 2.0 * (b - x[falling]) / ((b - a) * (b - c))
        if c > a:
            rising = (x >= a) & (x <= c)
            out[rising] = 2.0 * (x[rising] - a) / ((b - a) * (c - a))
    elif kind == "grid":
        out = _interp_grid(domain.axes, np.asarray(p["values"], dtype=float), coords)
    elif kind == "constant":
        out = np.full(coords[0].shape, float(p["value"]))
    elif kind == "affine":
        slope = _per_axis(p["slope"], domain.ndim, "slope")
        out = np.full(coords[0].shape, float(p.get("intercept", 0.0)))
        for k in range(domain.ndim):
            out = out + slope[k] * coords[k]
    return out.reshape(out_shape)


def _midpoint_levels(n: int) -> np.ndarray:
    """Levels (2i - 1) / (2n), i = 1..n: the centers of n equal-mass slices."""
    return (2.0 * np.arange(1, n + 1) - 1.0) / (2.0 * n)


def _interp_grid(axes, values: np.ndarray, coords) -> np.ndarray:
    """Multilinear interpolation of `values` tabulated on the tensor grid of `axes`."""
    values = values.reshape([ax.size for ax in axes])
    if len(axes) == 1:
        return np.interp(coords[0], axes[0], values)
    xg, yg = axes
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
    Simpson samples, and (when available) the closed form it came from.
    Instances are immutable by convention; all methods are read-only.

    The constructor takes nonnegative samples at every Simpson point of
    the grid (shape 2r - 1 per axis for r nodes), at any scale, and
    normalizes them to unit Simpson mass, reading samples in [-1e-12, 0)
    as 0; `from_spec` and `from_values` produce those samples from a
    closed form or from node values.

    Attributes:
        domain: the gridded support.
        values: node samples, a read-only view of the Simpson samples.
        throughput: constant per-unit-mass throughput, > 0.
        analytic: the closed-form spec behind the samples, None for
            gridded or folded data.
    """

    def __init__(
        self,
        domain: Domain,
        samples: np.ndarray,
        throughput: float,
        analytic: Optional[FunctionSpec] = None,
    ):
        samples = np.asarray(samples, dtype=float)
        shape = tuple(2 * r - 1 for r in domain.resolution)
        if samples.shape != shape:
            raise ValueError(f"density samples must have the Simpson-point shape {shape}")
        if not samples.min() >= -1e-12:  # NaN too; the mass check catches an inf
            raise ValueError("density samples must be finite and nonnegative")
        mass = float(_simpson(samples, domain.spacings).sum())
        if not 0 < mass < math.inf:
            raise ValueError("density mass must be positive and finite")
        self.throughput = _positive(throughput, "throughput")
        self.domain = domain
        self.analytic = analytic
        self._scale = 1.0 / mass
        self._stencil = self._scale * samples
        np.maximum(self._stencil, 0.0, out=self._stencil)  # rounding-level negatives
        self._stencil.flags.writeable = False  # `values` is a view of it

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
            return DensityField.from_values(domain, spec.params["values"], throughput)
        return DensityField(domain, _stencil(spec, domain), throughput, spec)

    @staticmethod
    def from_values(
        domain: Domain, values: np.ndarray, throughput: float = 1.0
    ) -> "DensityField":
        """Build a normalized field from raw node samples, with linear midpoints."""
        samples = np.asarray(values, dtype=float).reshape(domain.resolution)
        for k in range(domain.ndim):
            samples = _refine(samples, k)
        return DensityField(domain, samples, throughput)

    @property
    def values(self) -> np.ndarray:
        """Density samples at the grid nodes, a read-only view of the Simpson samples."""
        return self._stencil[np.s_[::2,] * self.domain.ndim]

    # ------------------------------------------------------------------- eval

    def eval(self, points) -> np.ndarray:
        """Density at arbitrary points of the domain.

        Uses the closed form when one is attached, and otherwise the
        multilinear interpolant of the Simpson samples the quadrature
        integrates: the node interpolant of gridded data, the product
        samples of a folded density. Points outside the domain raise
        ValueError.
        """
        pts = np.asarray(points, dtype=float)
        if not np.all(self.domain.contains(pts)):
            raise ValueError("point outside the density domain")
        if self.analytic is not None:
            return self._scale * spec_values(self.analytic, self.domain, pts)
        coords, shape = _coords(pts, self.domain.ndim)
        axes = [_refine(ax, 0) for ax in self.domain.axes]
        return _interp_grid(axes, self._stencil, coords).reshape(shape)

    # ------------------------------------------------------------- quadrature

    @functools.cached_property
    def _cell_mass(self) -> np.ndarray:
        """Per-cell Simpson masses, computed on first read: a station measure never reads them."""
        return _simpson(self._stencil, self.domain.spacings)

    def cell_masses(self) -> np.ndarray:
        """Simpson mass of every grid cell; sums to 1."""
        return self._cell_mass

    def _axis_moment(self, k: int, power: int) -> np.ndarray:
        """Per-cell integrals of coordinate k to `power` against the density."""
        weights = [None] * self.domain.ndim
        weights[k] = _refine(self.domain.axis(k), 0) ** power
        return _simpson(self._stencil, self.domain.spacings, weights)

    @functools.cached_property
    def _first_moments(self) -> tuple[np.ndarray, ...]:
        return tuple(self._axis_moment(k, 1) for k in range(self.domain.ndim))

    def cell_first_moments(self) -> tuple[np.ndarray, ...]:
        """Per-cell integrals of each coordinate against the density."""
        return self._first_moments

    @functools.cached_property
    def _second_moments(self) -> np.ndarray:
        terms = [self._axis_moment(k, 2) for k in range(self.domain.ndim)]
        return sum(terms[1:], terms[0])

    def cell_second_moments(self) -> np.ndarray:
        """Per-cell integrals of the squared distance to the origin."""
        return self._second_moments

    @functools.cached_property
    def _marginals(self) -> list[np.ndarray]:
        """Per axis, the cumulative cell-mass marginal at the nodes, normalized to end at 1."""
        ndim = self.domain.ndim
        sums = [np.cumsum(self._cell_mass.sum(axis=tuple(set(range(ndim)) - {j}))) for j in range(ndim)]
        return [np.concatenate([[0.0], c]) / c[-1] for c in sums]

    def _axis_quantiles(self, k: int, levels) -> np.ndarray:
        """Where the cumulative cell-mass marginal along axis k, linear in each
        cell, reaches each level."""
        return np.interp(np.asarray(levels, dtype=float), self._marginals[k], self.domain.axis(k))

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
        if _non_numeric(region):
            raise ValueError("region bounds must be numeric, not strings or booleans")
        pairs = np.asarray(region, dtype=float).reshape(-1, 2)
        if len(pairs) != self.domain.ndim:
            raise ValueError(f"{self.domain.ndim}D regions need (lo, hi) bounds for each axis")
        out = []
        for (lo, hi), (dlo, dhi) in zip(pairs.tolist(), self.domain.bounds):
            tol = CONTAINMENT_TOL * (dhi - dlo)
            if not lo <= hi:  # NaN too
                raise ValueError("region bounds must satisfy lower <= upper")
            if lo < dlo - tol or hi > dhi + tol:
                raise ValueError("region exceeds the density domain")
            out.append((min(max(lo, dlo), dhi), min(max(hi, dlo), dhi)))
        return out

    def quantiles(self, levels) -> np.ndarray:
        """Quantile locations of a 1D density from its cumulative Simpson cell masses."""
        if self.domain.ndim != 1:
            raise ValueError("quantiles are defined for 1D densities")
        return self._axis_quantiles(0, levels)


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
        return DensityField.from_spec(demand.terminal_density, throughput, demand.domain)
    return DensityField(demand.domain, product, throughput)


def expected_terminals(d: DensityField, region, total: float) -> float:
    """Expected number of terminals in a region out of `total` overall."""
    if _non_numeric(total) or not 0 <= total < math.inf:
        raise ValueError("total terminal count must be a nonnegative finite number")
    return total * d.integrate(region)
