"""Independent brute-force verifiers.

Deliberately naive re-implementations of the power objective used to
cross-check the main solvers, plus the empirical discrete-vs-continuum
consistency probe. The quadrature weights and the cost formula are
re-derived inline on purpose; nothing here calls into the solver
modules' arithmetic.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .continuum import dilation_factor, optimal_station_density
from .density import DensityField
from .power_model import RadioParams

__all__ = [
    "BruteForceResult",
    "ConsistencyReport",
    "naive_total_power",
    "midpoint_total_power",
    "brute_force_optimize",
    "consistency_report",
]

MAX_STATIONS = 3
MAX_CANDIDATES = 401


def naive_total_power(positions, assignment, d: DensityField, params: RadioParams) -> float:
    """Total power by direct quadrature of every grid cell.

    Mirrors the published objective term by term: per-cell Simpson
    integral of the squared access distance, taken from the squared
    distance of each Simpson sample to the cell's station, and
    traffic-weighted backhaul over ordered station pairs. Vectorized
    over cells but independent of the solver's moment sums; agrees with
    them to roundoff on the same grid.
    """
    pos = np.asarray(positions, dtype=float).reshape(-1, d.domain.ndim)
    K = pos.shape[0]
    assign = np.asarray(assignment).ravel()
    gain = params.noise_power * (2.0 ** params.throughput - 1.0)

    if d.domain.ndim == 1:
        x = d.domain.axis(0)
        fx = np.asarray(d.values, dtype=float)
        mids = 0.5 * (x[:-1] + x[1:])
        fm = d.eval(mids)
        p = pos[assign, 0]
        w = np.diff(x) / 6.0
        cell_mass = w * (fx[:-1] + 4.0 * fm + fx[1:])
        cell_intra = w * (
            fx[:-1] * (x[:-1] - p) ** 2 + 4.0 * fm * (mids - p) ** 2 + fx[1:] * (x[1:] - p) ** 2
        )
    else:
        xg, yg = d.domain.axes
        xm = 0.5 * (xg[:-1] + xg[1:])
        ym = 0.5 * (yg[:-1] + yg[1:])
        # values at each (x node or midpoint, y node or midpoint) pattern
        tables = {
            (False, False): np.asarray(d.values, dtype=float),
            (True, False): d.eval(np.stack(np.meshgrid(xm, yg, indexing="ij"), axis=-1)),
            (False, True): d.eval(np.stack(np.meshgrid(xg, ym, indexing="ij"), axis=-1)),
            (True, True): d.eval(np.stack(np.meshgrid(xm, ym, indexing="ij"), axis=-1)),
        }
        shape = (xg.size - 1, yg.size - 1)
        px = pos[assign, 0].reshape(shape)
        py = pos[assign, 1].reshape(shape)
        # (sample coordinate, node slice, is midpoint, Simpson weight) per axis
        xs, ys = (
            ((g[:-1], np.s_[:-1], False, 1.0), (m, np.s_[:], True, 4.0), (g[1:], np.s_[1:], False, 1.0))
            for g, m in ((xg, xm), (yg, ym))
        )
        s_m = np.zeros(shape)
        s_i = np.zeros(shape)
        for ax, sx, mx, wx in xs:
            for ay, sy, my, wy in ys:
                val = wx * wy * tables[mx, my][sx, sy]
                s_m += val
                s_i += val * ((ax[:, None] - px) ** 2 + (ay[None, :] - py) ** 2)
        w = np.outer(np.diff(xg), np.diff(yg)) / 36.0
        cell_mass = w * s_m
        cell_intra = w * s_i
    mass = np.bincount(assign, weights=cell_mass.ravel(), minlength=K)
    intra = np.bincount(assign, weights=cell_intra.ravel(), minlength=K)

    traffic = [d.throughput * mk for mk in mass]
    m = sum(traffic)
    total = gain * sum(intra)
    for i in range(K):
        for j in range(K):
            if i != j:
                d2 = sum((pos[i][k] - pos[j][k]) ** 2 for k in range(d.domain.ndim))
                total += params.noise_power * traffic[i] * traffic[j] * d2 / m
    return total


def _midpoint_tables(d: DensityField):
    if d.domain.ndim != 1:
        raise ValueError("the brute-force search is 1D")
    x = d.domain.axis(0)
    centers = 0.5 * (x[:-1] + x[1:])
    w = d.eval(centers) * np.diff(x)
    zero = np.zeros(1)
    return (
        centers,
        np.concatenate([zero, np.cumsum(w)]),
        np.concatenate([zero, np.cumsum(w * centers)]),
        np.concatenate([zero, np.cumsum(w * centers**2)]),
    )


def midpoint_total_power(positions, d: DensityField, params: RadioParams) -> float:
    """Total power under midpoint-rule quadrature and nearest-station cells.

    The deliberately different quadrature makes agreement with the main
    path a real cross-check rather than a reimplementation; expect
    grid-resolution-level differences, not roundoff-level ones.
    """
    q = np.sort(np.asarray(positions, dtype=float).reshape(-1))
    centers, w0, w1, w2 = _midpoint_tables(d)
    cost = _tuple_costs(q[None, :], centers, w0, w1, w2, d.throughput, params)
    return float(cost[0])


def _tuple_costs(Q, centers, w0, w1, w2, throughput, params):
    """Vectorized midpoint-rule cost of each sorted candidate tuple."""
    T, K = Q.shape
    n = centers.size
    edges = np.empty((T, K + 1), dtype=np.intp)
    edges[:, 0] = 0
    edges[:, K] = n
    for j in range(K - 1):
        # ties at the shared boundary go to the lower-index station
        edges[:, j + 1] = np.searchsorted(centers, 0.5 * (Q[:, j] + Q[:, j + 1]), side="right")
    s0 = w0[edges[:, 1:]] - w0[edges[:, :-1]]
    s1 = w1[edges[:, 1:]] - w1[edges[:, :-1]]
    s2 = w2[edges[:, 1:]] - w2[edges[:, :-1]]

    gain = params.noise_power * (2.0 ** params.throughput - 1.0)
    intra = gain * np.sum(s2 - 2.0 * Q * s1 + Q * Q * s0, axis=1)

    traffic = throughput * s0
    m = traffic.sum(axis=1)
    inter = np.zeros(T)
    for i in range(K):
        for j in range(K):
            if i != j:
                inter += traffic[:, i] * traffic[:, j] * (Q[:, i] - Q[:, j]) ** 2
    return intra + params.noise_power * inter / m


@dataclass
class BruteForceResult:
    positions: np.ndarray
    power: float
    traffic: np.ndarray


def brute_force_optimize(
    d: DensityField, K: int, params: RadioParams, candidates
) -> BruteForceResult:
    """Exhaustive search over all K-subsets of a candidate position grid.

    Each subset is costed under midpoint quadrature with nearest-station
    assignment; the global grid minimum is returned with deterministic
    tie-breaking (lexicographically smallest tuple). Kept small on
    purpose: the subset count explodes combinatorially.
    """
    if d.domain.ndim != 1:
        raise ValueError("the brute-force search is 1D")
    if not 1 <= K <= MAX_STATIONS:
        raise ValueError(f"brute force supports 1 <= K <= {MAX_STATIONS}")
    cand = np.unique(np.asarray(candidates, dtype=float).reshape(-1))
    if cand.size > MAX_CANDIDATES:
        raise ValueError(f"candidate grid limited to {MAX_CANDIDATES} points")
    if cand.size < K:
        raise ValueError("need at least K distinct candidates")
    if not d.domain.contains(cand).all():
        raise ValueError("candidates must lie inside the domain")

    centers, w0, w1, w2 = _midpoint_tables(d)
    best_cost = math.inf
    best = None
    combos = itertools.combinations(range(cand.size), K)
    while True:
        chunk = np.fromiter(
            itertools.chain.from_iterable(itertools.islice(combos, 200_000)),
            dtype=np.intp,
        ).reshape(-1, K)
        if chunk.size == 0:
            break
        Q = cand[chunk]
        costs = _tuple_costs(Q, centers, w0, w1, w2, d.throughput, params)
        k = int(np.argmin(costs))
        # strict < keeps the earlier tuple: combinations run lexicographically
        if costs[k] < best_cost:
            best_cost = float(costs[k])
            best = Q[k]

    edges = np.searchsorted(centers, 0.5 * (best[:-1] + best[1:]), side="right")
    edges = np.concatenate([[0], edges, [centers.size]])
    traffic = d.throughput * (w0[edges[1:]] - w0[edges[:-1]])
    return BruteForceResult(positions=best, power=best_cost, traffic=traffic)


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
