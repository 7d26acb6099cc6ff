"""Property tests of the power objective, the assignment, the optimizer and
the station measures on random small instances."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from backhaulopt import discrete_placement, power_model
from backhaulopt.brute_force import naive_total_power
from backhaulopt.continuum import AffineMap, Measure1D, pushforward
from backhaulopt.density import DemandField, DensityField, Domain, FunctionSpec, fold_demand
from backhaulopt.discrete_placement import (
    OptimizerConfig,
    optimize,
    update_positions,
    voronoi_partition,
)
from backhaulopt.power_model import (
    CellPartition,
    RadioParams,
    SingularGainError,
    TrafficVector,
    station_traffic,
    total_power,
)

SETTINGS = settings(max_examples=25)


@st.composite
def instances(draw):
    """A random gridded density (1D or 2D, at most 41 nodes per axis), folded
    with a positive affine demand or not, radio parameters, and 1 to 6
    distinct station positions inside it."""
    ndim = draw(st.sampled_from([1, 2]))
    resolution = tuple(draw(st.integers(2, 41)) for _ in range(ndim))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bounds = tuple((lo, lo + w) for lo, w in rng.uniform([-2.0, 0.5], [2.0, 3.0], (ndim, 2)))
    domain = Domain(bounds, resolution)
    values = rng.uniform(0.05, 1.0, resolution)
    lo, hi = np.array(bounds).T
    if draw(st.booleans()):
        d = DensityField.from_values(domain, values, float(rng.uniform(0.5, 3.0)))
    else:
        slope = rng.uniform(-2.0, 2.0, ndim)
        low = np.minimum(slope * lo, slope * hi).sum()  # the demand's minimum, less the intercept
        demand = {"slope": slope.tolist(), "intercept": rng.uniform(0.1, 2.0) - low}
        d = fold_demand(
            DemandField(domain, FunctionSpec("grid", {"values": values}), FunctionSpec("affine", demand))
        )
    params = RadioParams(float(rng.uniform(0.5, 2.0)), d.throughput)
    K = draw(st.integers(1, 6))
    pos = rng.uniform(lo, hi, (K, ndim))
    return d, params, pos, rng


@SETTINGS
@given(instances())
def test_total_power_matches_naive_loops(instance):
    d, params, pos, _ = instance
    partition = voronoi_partition(pos, d)
    fast = total_power(pos, partition, d, params).total
    slow = naive_total_power(pos, partition.assignment.ravel(), d, params)
    assert fast == pytest.approx(slow, rel=1e-9)


@SETTINGS
@given(instances())
def test_total_power_is_permutation_invariant(instance):
    d, params, pos, rng = instance
    perm = rng.permutation(len(pos))
    a = total_power(pos, voronoi_partition(pos, d), d, params).total
    b = total_power(pos[perm], voronoi_partition(pos[perm], d), d, params).total
    assert b == pytest.approx(a, rel=1e-12)


@SETTINGS
@given(instances())
def test_coincident_positions_are_rejected(instance):
    d, _, pos, rng = instance
    dup = np.insert(pos, rng.integers(0, len(pos) + 1), pos[rng.integers(0, len(pos))], axis=0)
    with pytest.raises(SingularGainError):
        voronoi_partition(dup, d)


def assert_fields_equal(a, b):
    """Every field equal, recursing into nested dataclasses such as a report's traffic."""
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if dataclasses.is_dataclass(x):
            assert_fields_equal(x, y)
        else:
            np.testing.assert_array_equal(x, y, err_msg=f.name)


@SETTINGS
@given(instances())
def test_optimize_keeps_its_station_sums_consistent(instance):
    d, params, pos, rng = instance
    cfg = OptimizerConfig(init="jitter", seed=int(rng.integers(2**31)), max_iterations=15)
    try:
        sol = optimize(d, len(pos), params, cfg)
    except SingularGainError:
        assume(False)
    rise = np.diff(sol.trace)
    assert np.all(rise <= 1e-12 * np.maximum(1.0, np.abs(sol.trace[:-1])))
    assert sol.report.traffic.mass.sum() == pytest.approx(1.0, rel=1e-12)
    assert sol.report.traffic.total == pytest.approx(d.throughput, rel=1e-12)
    # the sums and price the optimizer kept are those of its final partition
    assert_fields_equal(sol.report.traffic, station_traffic(sol.partition, d))
    assert_fields_equal(sol.report, total_power(sol.positions, sol.partition, d, params))


def dense_position_solve(traffic, params, include_inter):
    """The fixed-partition optimum of the loaded stations as the dense K x K
    system M q = A s1, M = diag(A s0 + g m t) - g t t^T, g = 2 sigma2 / m."""
    loaded = traffic.mass > 0
    s0, s1, t = traffic.mass[loaded], traffic.first[loaded], traffic.per_station[loaded]
    A = params.noise_power * params.shannon_factor
    M = np.diag(A * s0)
    if include_inter:
        g = 2.0 * params.noise_power / traffic.total
        M = M + np.diag(g * traffic.total * t) - g * np.outer(t, t)
    return np.linalg.solve(M, A * s1)


@SETTINGS
@given(instances(), st.booleans(), st.one_of(st.none(), st.floats(0.1, 4.0)))
def test_update_solves_the_fixed_partition_system(instance, include_inter, theta):
    d, params, pos, _ = instance
    if theta is not None:  # the link budget's throughput need not be the density's
        params = RadioParams(params.noise_power, theta)
    traffic = station_traffic(voronoi_partition(pos, d), d)
    new = update_positions(pos, traffic, params, include_inter=include_inter)
    loaded = traffic.mass > 0
    np.testing.assert_array_equal(new[~loaded], pos[~loaded])
    np.testing.assert_allclose(
        new[loaded], dense_position_solve(traffic, params, include_inter), rtol=0, atol=1e-12
    )


@SETTINGS
@given(instances(), st.booleans(), st.floats(0.1, 4.0))
def test_best_positions_price_any_partition_as_weighted_k_means(instance, voronoi, theta):
    # fact 1: for any partition, the exact update prices it at A·(kappa·W + (1 − kappa)·V),
    # W the cells' within-cell sum of squares and V the density's
    d, params, pos, rng = instance
    params = RadioParams(params.noise_power, theta)
    K = len(pos)
    labels = rng.integers(0, K, d.domain.cell_counts)
    partition = voronoi_partition(pos, d) if voronoi else CellPartition(d.domain, labels, K)
    tv = station_traffic(partition, d)
    total = total_power(update_positions(pos, tv, params, damping=1.0), partition, d, params).total
    loaded = tv.mass > 0
    W = np.sum(tv.second[loaded] - np.sum(tv.first[loaded] ** 2, axis=1) / tv.mass[loaded])
    V = tv.second.sum() - np.sum(tv.first.sum(axis=0) ** 2) / tv.mass.sum()
    A = params.noise_power * (2.0**theta - 1.0)
    kappa = A / (A + 2.0 * params.noise_power * d.throughput)
    assert total == pytest.approx(A * (kappa * W + (1.0 - kappa) * V), rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.tuples(st.integers(2, 41), st.integers(2, 41)),
    st.integers(1, 24),
    st.sampled_from(["random", "blocked", "optimize"]),
    st.floats(0.1, 4.0),
)
def test_2d_totals_respect_the_hexagon_bound(seed, resolution, K, partition_kind, theta):
    # Fejes Tóth: any K cells of a uniform density on a w x h rectangle (area a)
    # have W >= 2·G·a/K, G = 5/(36·sqrt(3)) the regular hexagon's; with fact 1,
    # total >= A·(kappa·2·G·a/K + (1 − kappa)·V), V = (w² + h²)/12, and the
    # access power alone >= A·W
    rng = np.random.default_rng(seed)
    lo, (w, h) = rng.uniform(-2.0, 2.0, 2), rng.uniform(0.2, 3.0, 2)
    domain = Domain(((lo[0], lo[0] + w), (lo[1], lo[1] + h)), resolution)
    d = DensityField.from_spec(FunctionSpec("uniform", {}), float(rng.uniform(0.5, 3.0)), domain)
    params = RadioParams(float(rng.uniform(0.5, 2.0)), theta)
    cells = math.prod(domain.cell_counts)
    try:
        if partition_kind == "optimize":
            sol = optimize(d, K, params, OptimizerConfig(init="jitter", seed=int(rng.integers(2**31))))
            report = total_power(sol.positions, sol.partition, d, params)
        else:
            labels = (
                rng.integers(0, K, cells) if partition_kind == "random" else np.arange(cells) * K // cells
            )
            pos = lo + rng.uniform(0.0, 1.0, (K, 2)) * (w, h)
            report = total_power(pos, CellPartition(domain, labels, K), d, params)
    except SingularGainError:
        assume(False)
    A = params.noise_power * params.shannon_factor
    kappa = A / (A + 2.0 * params.noise_power * d.throughput)
    W = 2.0 * 5.0 / (36.0 * math.sqrt(3.0)) * w * h / K
    assert report.total >= A * (kappa * W + (1.0 - kappa) * (w * w + h * h) / 12.0) * (1.0 - 1e-12)
    assert report.intra_total >= A * W * (1.0 - 1e-12)


@SETTINGS
@given(instances(), st.floats(0.5, 1.0))
def test_converged_positions_are_the_update_fixed_point(instance, damping):
    d, params, pos, rng = instance
    cfg = OptimizerConfig(init="jitter", seed=int(rng.integers(2**31)), damping=damping)
    try:
        sol = optimize(d, len(pos), params, cfg)
    except SingularGainError:
        assume(False)
    assert sol.converged
    # the last damped step moved no station by tol * span, and it covered the
    # fraction `damping` of the way to the fixed point
    span = max(hi - lo for lo, hi in d.domain.bounds)
    bound = (1.0 - damping) / damping * cfg.position_tolerance * span + 1e-12
    again = update_positions(sol.positions, sol.report.traffic, params)
    np.testing.assert_allclose(again, sol.positions, rtol=0, atol=bound)


def dense_assignment(pos, d):
    """The nearest-station rule as one cells x K x ndim distance tensor and argmin."""
    centers = d.domain.cell_centers().reshape(-1, d.domain.ndim)
    d2 = np.sum((centers[:, None, :] - pos[None, :, :]) ** 2, axis=-1)
    return np.argmin(d2, axis=1)


@st.composite
def station_layouts(draw):
    """A 1D or 2D grid and distinct stations, shuffled. A small draw has at
    most 41 nodes per axis (9 on a lattice) and 1 to 8 stations in the
    domain. A tiled draw has 2049 to 5001 nodes in 1D or 17 to 151 per axis
    in 2D, so that assignment cuts every axis into several tiles, and 1 to
    64 stations, some up to a quarter of the span outside the domain. On a
    lattice draw the grid has integer nodes and every station sits on a
    half-integer point, so many cell centers are exactly equidistant from
    two or more stations; otherwise bounds and stations are random."""
    ndim = draw(st.sampled_from([1, 2]))
    lattice = draw(st.booleans())
    tiled = draw(st.booleans())
    if tiled:
        nodes = st.integers(2049, 5001) if ndim == 1 else st.integers(17, 151)
    else:
        nodes = st.integers(2, 9 if lattice else 41)
    resolution = tuple(draw(nodes) for _ in range(ndim))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    K = draw(st.integers(1, 64 if tiled else 8))
    if lattice:
        lo = rng.integers(-5, 5, ndim).astype(float)
        span = np.array(resolution) - 1
        out = span // 4 if tiled else 0
        # half-integer offsets from the lower corner: nodes and cell centers
        pos = lo + rng.integers(-2 * out, 2 * (span + out) + 1, (K, ndim)) / 2.0
    else:
        lo, span = rng.uniform([-2.0, 0.5], [2.0, 3.0], (ndim, 2)).T
        out = span / 4 if tiled else 0.0
        pos = rng.uniform(lo - out, lo + span + out, (K, ndim))
    pos = rng.permutation(np.unique(pos, axis=0))
    domain = Domain(tuple(zip(lo, lo + span)), resolution)
    return DensityField.from_values(domain, np.ones(resolution)), pos


@settings(max_examples=100, deadline=None)
@given(station_layouts())
def test_assignment_matches_dense_argmin(layout):
    d, pos = layout
    partition = voronoi_partition(pos, d)
    np.testing.assert_array_equal(partition.assignment.ravel(), dense_assignment(pos, d))


@pytest.mark.parametrize(
    "pos, resolution",
    [
        (np.array([[1e200, 0.0], [-1e200, 0.0]]), (201, 201)),
        (np.array([[0.3, 1e200], [-1e200, 0.5], [0.7, 0.2]]), (201, 201)),
        (np.array([1e200, -1e200, 0.3]), (20_001,)),
    ],
)
def test_huge_positions_assign_without_warnings(pos, resolution):
    domain = Domain(((0.0, 1.0),) * len(resolution), resolution)
    d = DensityField.from_values(domain, np.ones(resolution))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        partition = voronoi_partition(pos, d)
    pos = pos.reshape(len(pos), -1)
    with np.errstate(over="ignore"):
        dense = dense_assignment(pos, d)
    np.testing.assert_array_equal(partition.assignment.ravel(), dense)


def bincount_station_traffic(partition, d):
    """`station_traffic` as one weighted bincount over every cell per sum."""
    assign = partition.assignment.ravel()
    mass, *first, second = (
        np.bincount(assign, weights=w.ravel(), minlength=partition.stations)
        for w in (d.cell_masses(), *d.cell_first_moments(), d.cell_second_moments())
    )
    per_station = d.throughput * mass
    return TrafficVector(per_station, float(per_station.sum()), mass, np.stack(first, axis=1), second)


@st.composite
def labelled_grids(draw):
    """A random 1D grid of up to 5001 nodes or 2D grid of up to 61 per axis,
    and a partition of its cells among K stations: the Voronoi partition of
    K distinct stations; random labels, a run per cell or nearly; every cell
    at one station; a Voronoi partition whose labels are spread over K plus
    up to 4 more stations, which get no cells; or C-order blocks of up to
    two rows each, whose runs cross row ends."""
    ndim = draw(st.sampled_from([1, 2]))
    resolution = tuple(draw(st.integers(2, 5001 if ndim == 1 else 61)) for _ in range(ndim))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lo, span = rng.uniform([-2.0, 0.5], [2.0, 3.0], (ndim, 2)).T
    domain = Domain(tuple(zip(lo, lo + span)), resolution)
    d = DensityField.from_values(domain, rng.uniform(0.05, 1.0, resolution), float(rng.uniform(0.5, 3.0)))
    K = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(["voronoi", "random", "one", "empty", "rows"]))
    cells, n = domain.cell_counts, math.prod(domain.cell_counts)
    stations = K
    if kind in ("voronoi", "empty"):
        pos = np.unique(rng.uniform(lo, lo + span, (K, ndim)), axis=0)
        labels = voronoi_partition(pos, d).assignment
        stations = len(pos)
        if kind == "empty":
            stations += draw(st.integers(1, 4))
            labels = rng.permutation(stations)[labels]
    elif kind == "random":
        labels = rng.integers(0, K, cells)
    elif kind == "one":
        labels = np.full(cells, rng.integers(0, K))
    else:
        lengths = rng.integers(1, 2 * cells[-1] + 1, n)
        lengths = lengths[: np.searchsorted(np.cumsum(lengths), n) + 1]
        labels = np.repeat(rng.integers(0, K, len(lengths)), lengths)[:n]
    return d, CellPartition(domain, labels, stations)


@settings(max_examples=100, deadline=None)
@given(labelled_grids())
def test_station_sums_match_a_per_cell_bincount(grid):
    d, partition = grid
    got, want = station_traffic(partition, d), bincount_station_traffic(partition, d)
    for name in ("mass", "second", "per_station"):
        np.testing.assert_allclose(getattr(got, name), getattr(want, name), rtol=1e-12, err_msg=name)
    # a first moment mixes signs where the domain straddles 0: its terms
    # sum to at most the largest coordinate times a mass of 1
    scale = np.abs(d.domain.bounds).max()
    np.testing.assert_allclose(got.first, want.first, rtol=1e-12, atol=1e-12 * scale)
    assert got.mass.sum() == pytest.approx(1.0, abs=1e-12)
    assert got.total == pytest.approx(want.total, rel=1e-12)


def hotspot_density(ndim, nodes, rng):
    """A mixture of Gaussian hotspots over a floor, sampled on the nodes of
    the unit interval or square."""
    axis = np.linspace(0.0, 1.0, nodes)
    coords = np.meshgrid(*([axis] * ndim), indexing="ij")
    values = np.full(coords[0].shape, 0.15)
    for c, w in zip(rng.uniform(0.1, 0.9, (9, ndim)), rng.uniform(0.75, 1.25, 9)):
        values += w * np.exp(-sum((x - ck) ** 2 for x, ck in zip(coords, c)) / (2.0 * 0.05**2))
    return DensityField.from_values(Domain(((0.0, 1.0),) * ndim, (nodes,) * ndim), values)


@pytest.mark.parametrize("ndim, nodes, K", [(2, 201, 16), (1, 100_001, 16)])
def test_optimize_is_unchanged_by_per_cell_station_sums(monkeypatch, ndim, nodes, K):
    d = hotspot_density(ndim, nodes, np.random.default_rng(ndim))
    params = RadioParams(1.0, d.throughput)
    cfg = OptimizerConfig(init="jitter", seed=5)
    runs = optimize(d, K, params, cfg)
    calls = []

    def reference(partition, d):
        calls.append(partition)
        return bincount_station_traffic(partition, d)

    monkeypatch.setattr(power_model, "station_traffic", reference)
    monkeypatch.setattr(discrete_placement, "station_traffic", reference)
    cells = optimize(d, K, params, cfg)
    assert len(calls) == cells.iterations
    np.testing.assert_array_equal(runs.partition.assignment, cells.partition.assignment)
    assert runs.iterations == cells.iterations
    assert runs.report.total == pytest.approx(cells.report.total, rel=1e-12)


@st.composite
def interval_densities(draw):
    """A triangular, truncated-normal or uniform density on a random interval,
    at a random node count of either parity, folded with a positive affine
    demand or not."""
    kind = draw(st.sampled_from(["triangular", "truncated_normal", "uniform"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lo, width = rng.uniform(-3.0, 3.0), rng.uniform(0.1, 5.0)
    hi = lo + width
    params = {
        "triangular": {"a": lo, "c": lo + width * rng.uniform(), "b": hi},
        "truncated_normal": {
            "mu": rng.uniform(lo, hi), "sigma": width * rng.uniform(0.1, 2.0), "a": lo, "b": hi,
        },
        "uniform": {},
    }[kind]
    domain = Domain.interval(lo, hi, draw(st.integers(3, 3001)))
    if not draw(st.booleans()):
        return DensityField.from_spec(FunctionSpec(kind, params), 1.0, domain)
    slope = rng.uniform(-2.0, 2.0)
    demand = {"slope": slope, "intercept": rng.uniform(0.1, 2.0) - min(slope * lo, slope * hi)}
    return fold_demand(DemandField(domain, FunctionSpec(kind, params), FunctionSpec("affine", demand)))


@SETTINGS
@given(interval_densities(), st.floats(1e-3, 1e3), st.floats(0.1, 10.0), st.floats(-5.0, 5.0))
def test_station_measures_carry_exact_mass_and_barycenter(f, mass, slope, offset):
    # station measures integrate the density's own Simpson samples, so
    # neither the node count's parity, nor a kink between nodes, nor the
    # product samples of a folded demand cost mass;
    # the barycenter is exact up to the rounding of its own magnitude
    b, spread = float(f.centroid()[0]), f.spread()
    for nu, scale, shift in (
        (Measure1D.from_density(f, mass), 1.0, 0.0),
        (pushforward(f, AffineMap(slope, offset), mass), slope, offset),
    ):
        expected = scale * b + shift
        assert abs(nu.total_mass - mass) <= 1e-13 * mass
        assert abs(nu.barycenter - expected) <= 1e-13 * (scale * spread + abs(expected))
