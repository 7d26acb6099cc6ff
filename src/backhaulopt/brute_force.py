"""Independent brute-force verifiers.

Deliberately naive re-implementations of the power objective used to
cross-check the main solvers, plus the empirical discrete-vs-continuum
consistency probe. The quadrature weights and the cost formula are
re-derived inline on purpose; nothing here calls into the solver
modules' arithmetic.

The exhaustive search prices every K-subset from pair tables: a station
at q owning cells [lo, hi) has access sum R_q(hi) − R_q(lo), with
R_q(e) = w2[e] − 2q·w1[e] + q²·w0[e] over prefix sums of the cell
weights and moments, which telescopes across consecutive stations to one
table entry per pair. Subsets priced near the minimum are priced again
per station, and that price picks the result.
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
    ndim = d.domain.ndim
    pos = np.asarray(positions, dtype=float).reshape(-1, ndim)
    K = pos.shape[0]
    assign = np.asarray(assignment).ravel()
    gain = params.noise_power * (2.0 ** params.throughput - 1.0)

    axes = d.domain.axes
    mids = [0.5 * (g[:-1] + g[1:]) for g in axes]
    shape = tuple(m.size for m in mids)
    # values at each pattern of node (False) or midpoint (True) per axis, one eval per pattern
    tables = {}
    for pattern in itertools.product((False, True), repeat=ndim):
        grids = [m if mid else g for g, m, mid in zip(axes, mids, pattern)]
        values = d.eval(np.stack(np.meshgrid(*grids, indexing="ij"), axis=-1)) if any(pattern) else d.values
        tables[pattern] = np.reshape(values, [g.size for g in grids])
    p = [pos[assign, k].reshape(shape) for k in range(ndim)]
    # (sample coordinate, node slice, is midpoint, Simpson weight) per axis
    samples = (
        ((g[:-1], np.s_[:-1], False, 1.0), (m, np.s_[:], True, 4.0), (g[1:], np.s_[1:], False, 1.0))
        for g, m in zip(axes, mids)
    )
    s_m, s_i = np.zeros(shape), np.zeros(shape)
    for combo in itertools.product(*samples):
        coords, slices, pattern, weights = zip(*combo)
        val = functools.reduce(operator.mul, weights) * tables[pattern][slices]
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


def _midpoint_weights(d: DensityField):
    if d.domain.ndim != 1:
        raise ValueError("the brute-force search is 1D")
    x = d.domain.axis(0)
    centers = 0.5 * (x[:-1] + x[1:])
    return centers, d.eval(centers) * np.diff(x)


def _prefix_sums(w, x):
    """Prefix sums of w, w·x and w·x², each starting at 0."""
    zero = np.zeros(1)
    return tuple(np.concatenate([zero, np.cumsum(t)]) for t in (w, w * x, w * x**2))


def midpoint_total_power(positions, d: DensityField, params: RadioParams) -> float:
    """Total power under midpoint-rule quadrature and nearest-station cells.

    The deliberately different quadrature makes agreement with the main
    path a real cross-check rather than a reimplementation; expect
    grid-resolution-level differences, not roundoff-level ones.
    """
    q = np.sort(np.asarray(positions, dtype=float).reshape(-1))
    centers, w = _midpoint_weights(d)
    cost = _tuple_costs(q[None, :], centers, *_prefix_sums(w, centers), d.throughput, params)
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


def _prepend(first, sums, links, lo, hi):
    """Prepend each lead in [lo, hi) to the subsets that start above it.

    `first` holds the first index of every k-subset, in lexicographic
    order, and `sums` their linked sums. Returns, for every (k+1)-subset
    with its lead in [lo, hi) and again in lexicographic order, the lead,
    the k-subset's position and the sums with the lead's link added.
    """
    leads = np.arange(lo, hi)
    start = np.searchsorted(first, leads, side="right")
    count = first.size - start
    lead = np.repeat(leads, count)
    idx = np.arange(lead.size) + np.repeat(start - (np.cumsum(count) - count), count)
    nxt = first[idx]
    return lead, idx, [link[lead, nxt] + s[idx] for link, s in zip(links, sums)]


# subsets priced per block, which bounds memory at any candidate count; the
# result does not depend on it. Over 151 candidates, K = 3 traces 2.4 MB at
# this block (5.9 MB at 1 << 16) and K = 1-3 takes about 19 ms (20 ms), on
# 2 vCPUs: smaller blocks stay in cache
_BLOCK = 1 << 14


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

    Every subset is priced, from pair tables rather than per station.
    With prefix sums w0, w1, w2 of the cell weights and moments, a station
    at q owning cells [lo, hi) has access sum R_q(hi) − R_q(lo), where
    R_q(e) = w2[e] − 2q·w1[e] + q²·w0[e] and R_q(0) = 0. A pair's shared
    boundary e depends on that pair alone, so a subset's sum telescopes
    to Σ_pairs [R_a(e) − R_b(e)] + R_last(n). Σ t_j q_j and Σ t_j q_j²
    telescope the same way in w0, and the backhaul sum is
    2σ²·(Σ t q² − (Σ t q)²/m) with m = θ·w0[n]. The tables use coordinates
    centred on the candidates: exact, as the cost is translation-invariant,
    and free of cancellation far from the origin.

    Re-pricing rule: every subset whose table price lies within a window
    of the table minimum is priced again by `_tuple_costs` (the formula of
    `midpoint_total_power`), and the result is that price's first argmin.
    Both prices round the same exact cost. Each prefix sum adds at most n
    terms bounded by W·X^k (W = w0[n], X the largest coordinate magnitude
    of cells and candidates, at most 2X once centred), so recursive
    summation keeps it within (n+1)·u of that bound (Higham 2002, §4.2;
    u the unit roundoff). Through K station or pair terms each price is
    then within 16·K·(n+2)·u·S of the exact cost, S = W·X²·(gain + 2σ²θ),
    and the true minimum's table price within 2·32·K·(n+2)·u·S, the
    window, of the table minimum. Sized from what the reference sums, not
    from the result, the window covers its rounding far off-centre too.
    """
    if d.domain.ndim != 1:
        raise ValueError("the brute-force search is 1D")
    _check_count(K, "station count", 1, MAX_STATIONS)
    if _non_numeric(candidates):
        raise ValueError("candidates must be numeric, not strings or booleans")
    cand = np.unique(np.asarray(candidates, dtype=float).reshape(-1))
    if cand.size > MAX_CANDIDATES:
        raise ValueError(f"candidate grid limited to {MAX_CANDIDATES} points")
    if cand.size < K:
        raise ValueError("need at least K distinct candidates")
    if not d.domain.contains(cand).all():
        raise ValueError("candidates must lie inside the domain")

    centers, w = _midpoint_weights(d)
    w0, w1, w2 = _prefix_sums(w, centers)
    C, n, W = cand.size, centers.size, w0[-1]
    gain = params.noise_power * (2.0 ** params.throughput - 1.0)
    g = 2.0 * params.noise_power * d.throughput

    shift = 0.5 * (cand[0] + cand[-1])
    q = cand - shift
    _, v1, v2 = _prefix_sums(w, centers - shift)
    # first cell of each pair's upper station: the float and the integer
    # _tuple_costs computes for that pair inside a tuple
    e = np.searchsorted(centers, 0.5 * (cand[:, None] + cand[None, :]), side="right")
    dq = q[:, None] - q[None, :]
    # link tables: [a, b] for consecutive stations a < b, column C closes a tuple
    link_a = np.empty((C, C + 1))
    link_s = np.empty((C, C + 1))
    link_a[:, :C] = dq * ((gain + g) * (q[:, None] + q[None, :]) * w0[e] - 2.0 * gain * v1[e])
    link_a[:, C] = gain * (v2[n] - 2.0 * q * v1[n]) + (gain + g) * q * q * W
    link_s[:, :C] = dq * w0[e]
    link_s[:, C] = q * W

    # the (K-1)-subsets in lexicographic order and their linked sums; the
    # 0-subset is closed by column C
    links = (link_a, link_s)
    first, rows, sums = np.array([C]), np.empty((1, 0), dtype=np.intp), [np.zeros(1)] * 2
    for _ in range(K - 1):
        first, idx, sums = _prepend(first, sums, links, 0, C)
        rows = np.column_stack([first, rows[idx]])

    u = np.finfo(float).eps / 2
    X = max(abs(centers[0]), abs(centers[-1]), abs(cand[0]), abs(cand[-1]))
    window = 64.0 * K * (n + 2) * u * W * X * X * (gain + g)
    fast_min = best_cost = math.inf
    best = None
    # lead 0 starts the most subsets; leads past C - K start none
    step = max(1, _BLOCK // (first.size - int(np.searchsorted(first, 0, side="right"))))
    for lo in range(0, C - K + 1, step):
        lead, idx, (fast_a, fast_s) = _prepend(first, sums, links, lo, min(lo + step, C))
        fast = fast_a - (g / W) * fast_s * fast_s
        fast_min = min(fast_min, float(fast.min()))
        near = np.flatnonzero(~(fast > fast_min + window))  # NaN is re-priced too
        if near.size == 0:
            continue
        Q = cand[np.column_stack([lead[near], rows[idx[near]]])]
        costs = _tuple_costs(Q, centers, w0, w1, w2, d.throughput, params)
        k = int(np.argmin(costs))
        # strict < keeps the earlier tuple: blocks run lexicographically
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
