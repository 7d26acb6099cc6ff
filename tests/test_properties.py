"""Property tests of the power objective, the assignment and the optimizer on
random small instances."""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from backhaulopt.brute_force import naive_total_power
from backhaulopt.density import DensityField, Domain
from backhaulopt.discrete_placement import OptimizerConfig, optimize, voronoi_partition
from backhaulopt.power_model import (
    RadioParams,
    SingularGainError,
    station_traffic,
    total_power,
)

SETTINGS = settings(max_examples=25)


@st.composite
def instances(draw):
    """A random gridded density (1D or 2D, at most 41 nodes per axis),
    radio parameters, and 1 to 6 distinct station positions inside it."""
    ndim = draw(st.sampled_from([1, 2]))
    resolution = tuple(draw(st.integers(2, 41)) for _ in range(ndim))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bounds = tuple((lo, lo + w) for lo, w in rng.uniform([-2.0, 0.5], [2.0, 3.0], (ndim, 2)))
    domain = Domain(bounds, resolution)
    d = DensityField.from_values(
        domain, rng.uniform(0.05, 1.0, resolution), float(rng.uniform(0.5, 3.0))
    )
    params = RadioParams(float(rng.uniform(0.5, 2.0)), d.throughput)
    K = draw(st.integers(1, 6))
    lo, hi = np.array(bounds).T
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
    for f in dataclasses.fields(a):
        np.testing.assert_array_equal(getattr(a, f.name), getattr(b, f.name), err_msg=f.name)


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
    assert sol.traffic.mass.sum() == pytest.approx(1.0, rel=1e-12)
    assert sol.traffic.total == pytest.approx(d.throughput, rel=1e-12)
    # the sums and price the optimizer kept are those of its final partition
    assert_fields_equal(sol.traffic, station_traffic(sol.partition, d))
    assert_fields_equal(sol.report, total_power(sol.positions, sol.partition, d, params))


def dense_assignment(pos, d):
    """The nearest-station rule as one cells x K x ndim distance tensor and argmin."""
    centers = d.domain.cell_centers().reshape(-1, d.domain.ndim)
    d2 = np.sum((centers[:, None, :] - pos[None, :, :]) ** 2, axis=-1)
    return np.argmin(d2, axis=1)


@st.composite
def station_layouts(draw):
    """A 1D or 2D grid and 1 to 8 distinct stations. On a lattice draw the
    grid (at most 9 nodes per axis) has integer nodes and every station
    sits on a node or a cell center, so many cell centers are exactly
    equidistant from two or more stations; otherwise bounds and stations
    are random."""
    ndim = draw(st.sampled_from([1, 2]))
    lattice = draw(st.booleans())
    resolution = tuple(draw(st.integers(2, 9 if lattice else 41)) for _ in range(ndim))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    K = draw(st.integers(1, 8))
    if lattice:
        lo = rng.integers(-5, 5, ndim).astype(float)
        bounds = tuple((a, a + r - 1) for a, r in zip(lo, resolution))
        # half-integer offsets from the lower corner: nodes and cell centers
        slots = [np.arange(2 * r - 1) / 2.0 for r in resolution]
        cand = np.stack(np.meshgrid(*slots, indexing="ij"), axis=-1).reshape(-1, ndim) + lo
        K = min(K, len(cand))
        pos = cand[rng.choice(len(cand), K, replace=False)]
    else:
        bounds = tuple((a, a + w) for a, w in rng.uniform([-2.0, 0.5], [2.0, 3.0], (ndim, 2)))
        lo, hi = np.array(bounds).T
        pos = rng.uniform(lo, hi, (K, ndim))
    domain = Domain(bounds, resolution)
    return DensityField.from_values(domain, np.ones(resolution)), pos


@settings(max_examples=100)
@given(station_layouts())
def test_assignment_matches_dense_argmin(layout):
    d, pos = layout
    partition = voronoi_partition(pos, d)
    np.testing.assert_array_equal(partition.assignment.ravel(), dense_assignment(pos, d))
