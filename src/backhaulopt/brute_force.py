"""Independent brute-force verifiers.

Deliberately naive re-implementations of the power objective used to
cross-check the main solvers, plus the empirical discrete-vs-continuum
consistency probe. The quadrature weights and the cost formula are
re-derived inline on purpose; nothing here calls into the solver
modules' arithmetic.

The exact search solves the problem `optimize` solves: any partition of
the cells. For a fixed partition the best positions are kappa·c_i +
(1 − kappa)·b (c_i the cell centroids, b the barycenter), and the total
is then A·(kappa·W + (1 − kappa)·V), with W the cells' within-cell sum
of squares and V the density's. So the best partition is the one of
least W, a 1D k-means problem, solved exactly on a grid of allowed cuts
by dynamic programming (Wang & Song, "Ckmeans.1d.dp", R Journal 2011;
Grønlund et al., arXiv 1701.07204).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .continuum import dilation_factor, optimal_station_density
from .density import DensityField, _check_count, _non_numeric
from .power_model import RadioParams

__all__ = [
    "BruteForceResult",
    "ConsistencyReport",
    "naive_total_power",
    "midpoint_total_power",
    "brute_force_optimize",
    "consistency_report",
]

MAX_CANDIDATES = 401


def naive_total_power(positions, assignment, d: DensityField, params: RadioParams) -> float:
    """Total power by direct quadrature of every grid cell.

    Mirrors the published objective term by term: per-cell Simpson
    integral of the squared access distance, taken from the squared
    distance of each Simpson sample to the cell's station, and
    traffic-weighted backhaul over ordered station pairs. A cell's
    samples are every combination of low node, midpoint and high node
    per axis (3 in 1D, 9 in 2D), read from the density's own Simpson
    samples. Vectorized over cells but independent of the solver's
    moment sums; agrees with them to roundoff on the same grid.
    """
    ndim = d.domain.ndim
    pos = np.asarray(positions, dtype=float).reshape(-1, ndim)
    K = pos.shape[0]
    assign = np.asarray(assignment).ravel()
    gain = params.noise_power * (2.0 ** params.throughput - 1.0)

    axes = d.domain.axes
    mids = [0.5 * (g[:-1] + g[1:]) for g in axes]
    shape = tuple(m.size for m in mids)
    p = [pos[assign, k].reshape(shape) for k in range(ndim)]
    # (sample coordinate, its slice of the Simpson samples, Simpson weight) per axis
    samples = (
        ((g[:-1], np.s_[:-1:2], 1.0), (m, np.s_[1::2], 4.0), (g[1:], np.s_[2::2], 1.0))
        for g, m in zip(axes, mids)
    )
    s_m, s_i = np.zeros(shape), np.zeros(shape)
    for combo in itertools.product(*samples):
        coords, slices, weights = zip(*combo)
        val = functools.reduce(operator.mul, weights) * d._stencil[slices]
        s_m += val
        s_i += val * functools.reduce(np.add, ((c - q) ** 2 for c, q in zip(np.ix_(*coords), p)))
    w = functools.reduce(np.multiply.outer, map(np.diff, axes)) / 6.0**ndim
    mass = np.bincount(assign, weights=(w * s_m).ravel(), minlength=K)
    intra = np.bincount(assign, weights=(w * s_i).ravel(), minlength=K)

    traffic = [d.throughput * mk for mk in mass]
    m = sum(traffic)
    total = gain * sum(intra)
    for i in range(K):
        for j in range(K):
            if i != j:
                d2 = sum((pos[i][k] - pos[j][k]) ** 2 for k in range(ndim))
                total += params.noise_power * traffic[i] * traffic[j] * d2 / m
    return total


def _midpoint_sums(d: DensityField):
    """Cell midpoints, their weights w, the barycenter b of the weights,
    x = midpoint − b, and the prefix sums S0, S1, S2 of w, w·x and
    w·(x² + h²/12), each starting at 0.

    A cell of width h has the weight w = f(midpoint)·h, spread evenly
    over the cell; h²/12 is the spread's second moment about the midpoint.
    """
    if d.domain.ndim != 1:
        raise ValueError("the brute-force search is 1D")
    grid = d.domain.axis(0)
    h = np.diff(grid)
    centers = 0.5 * (grid[:-1] + grid[1:])
    w = d.eval(centers) * h
    b = float(np.sum(w * centers) / np.sum(w))
    x = centers - b
    zero = np.zeros(1)
    S0, S1, S2 = (np.concatenate([zero, np.cumsum(t)]) for t in (w, w * x, w * (x * x + h * h / 12.0)))
    return centers, w, b, x, S0, S1, S2


def _gain_and_kappa(d: DensityField, params: RadioParams):
    """A = sigma2·(2^theta − 1) and kappa = A / (A + 2·sigma2·tau), tau the density's throughput."""
    gain = params.noise_power * (2.0 ** params.throughput - 1.0)
    return gain, gain / (gain + 2.0 * params.noise_power * d.throughput)


def midpoint_total_power(positions, d: DensityField, params: RadioParams) -> float:
    """Total power under midpoint-rule quadrature, on the best cells for the positions.

    Each cell goes to the station whose generator b + (p − b)/kappa lies
    nearest its midpoint. These power-diagram cells are the optimum's
    cells, and at `brute_force_optimize`'s positions they cost no more
    than its own cells, up to rounding. The deliberately different
    quadrature makes agreement with the main path a real cross-check
    rather than a reimplementation; expect grid-resolution-level
    differences, not roundoff-level ones.
    """
    centers, _, b, _, S0, S1, S2 = _midpoint_sums(d)
    gain, kappa = _gain_and_kappa(d, params)
    p = np.sort(np.asarray(positions, dtype=float).reshape(-1)) - b
    q = b + p / kappa
    # ties at a shared boundary go to the lower station
    inner = np.searchsorted(centers, 0.5 * (q[:-1] + q[1:]), side="right")
    edges = np.concatenate([[0], inner, [centers.size]])
    s0, s1, s2 = (S[edges[1:]] - S[edges[:-1]] for S in (S0, S1, S2))
    traffic = d.throughput * s0
    access = gain * np.sum(s2 - 2.0 * p * s1 + p * p * s0)
    backhaul = params.noise_power * (traffic @ np.subtract.outer(p, p) ** 2 @ traffic) / traffic.sum()
    return float(access + backhaul)


@dataclass
class BruteForceResult:
    positions: np.ndarray
    power: float
    traffic: np.ndarray


def brute_force_optimize(
    d: DensityField, K: int, params: RadioParams, candidates
) -> BruteForceResult:
    """The least total power of K stations whose cells are cut at candidates.

    Exact over every partition of the cells into K runs whose boundaries
    lie on the cut grid: for each candidate the first cell whose
    midpoint is at or above it, and both ends. Each run's
    station sits at kappa·c_i + (1 − kappa)·b, so the total is
    A·(kappa·W + (1 − kappa)·V) under midpoint quadrature, and the search
    minimizes W. Over the runs from cut i to cut j, W = ΔS2 − ΔS1²/ΔS0
    in the prefix sums about b. A run is a cell when one of its cells has
    positive weight, by an exact count; a run without one has no centroid
    and is priced at inf, and a run lighter than the prefix sums' rounding
    at 0. The stations' positions and traffic are summed directly over
    the chosen runs. The least W of k runs ending at cut j is
    min_i best_{k−1}[i] + W(i, j): one numpy min over a (C+2)² table per
    level, O(K·C²) for C candidates, the first argmin breaking ties.

    Returns the stations in increasing order with their traffic. Raises
    ValueError when the grid cannot be cut into K runs of positive mass.
    """
    _check_count(K, "station count", 1)
    if _non_numeric(candidates):
        raise ValueError("candidates must be numeric, not strings or booleans")
    cand = np.unique(np.asarray(candidates, dtype=float).reshape(-1))
    if cand.size > MAX_CANDIDATES:
        raise ValueError(f"candidate grid limited to {MAX_CANDIDATES} points")
    if cand.size < K:
        raise ValueError("need at least K distinct candidates")
    if not d.domain.contains(cand).all():
        raise ValueError("candidates must lie inside the domain")

    centers, w, b, x, S0, S1, S2 = _midpoint_sums(d)
    gain, kappa = _gain_and_kappa(d, params)
    cuts = np.unique(np.concatenate([[0, centers.size], np.searchsorted(centers, cand)]))
    s0, s1, s2 = (S[cuts][None, :] - S[cuts][:, None] for S in (S0, S1, S2))
    # the runs from cut i to a later cut j that hold a cell of positive weight
    count = np.concatenate([[0], np.cumsum(w > 0)])[cuts]
    run = count[None, :] > count[:, None]
    heavy = run & (s0 > 0)
    W = np.where(run, 0.0, np.inf)
    W[heavy] = s2[heavy] - s1[heavy] ** 2 / s0[heavy]

    best = np.full(cuts.size, np.inf)
    best[0] = 0.0
    back = []
    for _ in range(K):
        total = best[:, None] + W
        back.append(np.argmin(total, axis=0))
        best = total[back[-1], np.arange(cuts.size)]
    if not best[-1] < math.inf:
        raise ValueError(f"the candidates cannot cut {K} cells of positive mass")
    path = [cuts.size - 1]
    for arg in reversed(back):
        path.append(arg[path[-1]])
    starts = cuts[path[::-1]][:-1]
    mass = np.add.reduceat(w, starts)
    return BruteForceResult(
        positions=b + kappa * np.add.reduceat(w * x, starts) / mass,
        power=float(gain * (kappa * best[-1] + (1.0 - kappa) * W[0, -1])),
        traffic=d.throughput * mass,
    )


@dataclass
class ConsistencyReport:
    """One row of the discrete-vs-asymptotic spread comparison.

    `ratio` is discrete_spread / f_spread, to be read against the
    dilation factor; the report records both and judges neither.
    """

    K: int
    theta: float
    discrete_spread: float
    continuum_spread: float
    ratio: float
    f_spread: float
    dilation: float


def consistency_report(
    d: DensityField, searches: list[BruteForceResult]
) -> list[ConsistencyReport]:
    """Set the spread of brute-forced placements against the asymptotic law.

    For each search result (K is its number of stations), measure the
    traffic-weighted spread of the optimal positions and set it against
    the spread of the asymptotic station density. The terminal density
    must be centered (the closed form requires it).
    """
    theta = d.throughput
    f_spread = d.spread()
    cont = optimal_station_density(d, theta).spread()
    lam = dilation_factor(theta)
    rows = []
    for res in searches:
        total = res.traffic.sum()
        mean = float(res.traffic @ res.positions) / total
        var = float(res.traffic @ (res.positions - mean) ** 2) / total
        disc = math.sqrt(max(var, 0.0))
        ratio = disc / f_spread if f_spread > 0 else math.nan
        rows.append(
            ConsistencyReport(
                K=len(res.positions),
                theta=theta,
                discrete_spread=disc,
                continuum_spread=cont,
                ratio=ratio,
                f_spread=f_spread,
                dilation=lam,
            )
        )
    return rows
