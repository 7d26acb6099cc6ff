import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from backhaulopt import brute_force
from backhaulopt.brute_force import (
    _midpoint_weights,
    _prefix_sums,
    _tuple_costs,
    brute_force_optimize,
    consistency_report,
    midpoint_total_power,
    naive_total_power,
)
from backhaulopt.density import DemandField, DensityField, Domain, FunctionSpec, fold_demand
from backhaulopt.discrete_placement import voronoi_partition
from backhaulopt.power_model import RadioParams, total_power

PARAMS = RadioParams(noise_power=1.0, throughput=1.0)


def uniform_field(resolution=2001):
    return DensityField.from_spec(
        FunctionSpec("uniform", {}), 1.0, Domain.interval(0.0, 1.0, resolution)
    )


def normal_field():
    return DensityField.from_spec(FunctionSpec("normal", {"mu": 0.0, "sigma": 1.0}), 1.0)


def loop_total_power(pos, assignment, d, params):
    """`naive_total_power` as Python loops over cells and Simpson samples."""
    pos = np.asarray(pos, dtype=float).reshape(-1, d.domain.ndim)
    K, assign = len(pos), [int(a) for a in np.asarray(assignment).ravel()]
    intra, mass = [0.0] * K, [0.0] * K
    if d.domain.ndim == 1:
        x = d.domain.axis(0)
        mids = 0.5 * (x[:-1] + x[1:])
        fx, fm = d.values, d.eval(mids)
        for c in range(x.size - 1):
            k, w = assign[c], (x[c + 1] - x[c]) / 6.0
            p = pos[k][0]
            mass[k] += w * (fx[c] + 4.0 * fm[c] + fx[c + 1])
            intra[k] += w * (
                fx[c] * (x[c] - p) ** 2
                + 4.0 * fm[c] * (mids[c] - p) ** 2
                + fx[c + 1] * (x[c + 1] - p) ** 2
            )
    else:
        xg, yg = d.domain.axes
        xm, ym = 0.5 * (xg[:-1] + xg[1:]), 0.5 * (yg[:-1] + yg[1:])
        f_mn = d.eval(np.stack(np.meshgrid(xm, yg, indexing="ij"), axis=-1))
        f_nm = d.eval(np.stack(np.meshgrid(xg, ym, indexing="ij"), axis=-1))
        f_mm = d.eval(np.stack(np.meshgrid(xm, ym, indexing="ij"), axis=-1))
        for cx in range(xg.size - 1):
            for cy in range(yg.size - 1):
                k = assign[cx * (yg.size - 1) + cy]
                px, py = pos[k]
                w = (xg[cx + 1] - xg[cx]) * (yg[cy + 1] - yg[cy]) / 36.0
                s_m = s_i = 0.0
                for gx, wx in ((cx, 1.0), (None, 4.0), (cx + 1, 1.0)):
                    for gy, wy in ((cy, 1.0), (None, 4.0), (cy + 1, 1.0)):
                        if gx is None and gy is None:
                            val, ax, ay = f_mm[cx, cy], xm[cx], ym[cy]
                        elif gx is None:
                            val, ax, ay = f_mn[cx, gy], xm[cx], yg[gy]
                        elif gy is None:
                            val, ax, ay = f_nm[gx, cy], xg[gx], ym[cy]
                        else:
                            val, ax, ay = d.values[gx, gy], xg[gx], yg[gy]
                        s_m += wx * wy * val
                        s_i += wx * wy * val * ((ax - px) ** 2 + (ay - py) ** 2)
                mass[k] += w * s_m
                intra[k] += w * s_i
    traffic = [d.throughput * mk for mk in mass]
    total = params.noise_power * (2.0 ** params.throughput - 1.0) * sum(intra)
    for i in range(K):
        for j in range(K):
            if i != j:
                d2 = sum((pos[i][k] - pos[j][k]) ** 2 for k in range(d.domain.ndim))
                total += params.noise_power * traffic[i] * traffic[j] * d2 / sum(traffic)
    return total


class TestNaiveReference:
    @pytest.mark.parametrize("ndim", [1, 2])
    def test_equals_the_cell_loop(self, ndim):
        # vectorizing over cells kept every float operation and its order, on
        # analytic, gridded and folded densities and for any labelling of the cells
        rng = np.random.default_rng(7)
        if ndim == 1:
            normal = FunctionSpec("normal", {"mu": 0.0, "sigma": 1.0})
            analytic = DensityField.from_spec(normal, 1.3)
            demand = FunctionSpec("affine", {"slope": 0.1, "intercept": 2.0})
        else:
            normal = FunctionSpec("normal", {"mu": (0.2, 0.1), "sigma": (1.0, 0.7)})
            analytic = DensityField.from_spec(normal, 0.8, Domain.rectangle((-3.0, 3.0), (-2.0, 3.0), (31, 21)))
            demand = FunctionSpec("affine", {"slope": (0.2, -0.1), "intercept": 2.0})
        domain = analytic.domain
        fields = (
            analytic,
            DensityField.from_values(domain, rng.uniform(0.1, 2.0, domain.resolution), 0.9),
            fold_demand(DemandField(domain, normal, demand)),
        )
        assert fields[2].analytic is None
        lo, hi = np.array(domain.bounds).T
        params = RadioParams(noise_power=1.7, throughput=0.6)
        for d in fields:
            for K in (1, 3, 6):
                pos = rng.uniform(lo, hi, (K, ndim))
                # nearest stations, a run per cell, and a last station with no cells
                for assign in (
                    voronoi_partition(pos, d).assignment,
                    rng.integers(0, K, domain.cell_counts),
                    rng.integers(0, max(K - 1, 1), domain.cell_counts),
                ):
                    assert naive_total_power(pos, assign, d, params) == loop_total_power(pos, assign, d, params)

    def test_memory_is_linear_in_cells(self):
        # one eval per pattern of node or midpoint per axis: evaluating every
        # Simpson point at once took 385 bytes per cell on the 201 x 201 grid
        rng = np.random.default_rng(5)
        for resolution in [(201, 201), (20_001,)]:
            ndim = len(resolution)
            domain = Domain(((0.0, 1.0),) * ndim, resolution)
            d = DensityField.from_values(domain, rng.uniform(0.1, 1.0, resolution))
            pos = rng.uniform(0.0, 1.0, (16, ndim))
            assign = voronoi_partition(pos, d).assignment
            cells = int(np.prod(domain.cell_counts))
            tracemalloc.start()
            try:
                total = naive_total_power(pos, assign, d, PARAMS)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert np.isfinite(total)
            assert peak < 20 * 8 * cells, resolution

    def test_matches_main_path_1d(self):
        d = uniform_field()
        pos = np.array([0.25, 0.75])
        partition = voronoi_partition(pos, d)
        report = total_power(pos, partition, d, PARAMS)
        naive = naive_total_power(pos, partition.assignment.ravel(), d, PARAMS)
        assert naive == pytest.approx(7.0 / 48.0, abs=1e-10)
        assert abs(naive - report.total) <= 1e-12

    def test_matches_main_path_1d_normal(self):
        d = normal_field()
        pos = np.array([-1.1, 0.3, 1.8])
        partition = voronoi_partition(pos, d)
        report = total_power(pos, partition, d, PARAMS)
        naive = naive_total_power(pos, partition.assignment.ravel(), d, PARAMS)
        assert abs(naive - report.total) <= 1e-12 * max(1.0, abs(report.total))

    def test_matches_main_path_2d(self):
        d = DensityField.from_spec(
            FunctionSpec("normal", {"mu": (0.0, 0.0), "sigma": (1.0, 1.0)}),
            1.0,
            Domain.rectangle((-4.0, 4.0), (-4.0, 4.0), (41, 41)),
        )
        pos = np.array([[-1.0, -1.0], [0.0, 0.5], [1.2, -0.3]])
        partition = voronoi_partition(pos, d)
        report = total_power(pos, partition, d, PARAMS)
        naive = naive_total_power(pos, partition.assignment.ravel(), d, PARAMS)
        assert abs(naive - report.total) <= 1e-12 * max(1.0, abs(report.total))


class TestMidpointReference:
    def test_close_to_main_path(self):
        d = uniform_field()
        pos = np.array([0.25, 0.75])
        report = total_power(pos, voronoi_partition(pos, d), d, PARAMS)
        mid = midpoint_total_power(pos, d, PARAMS)
        # different quadrature: agreement is grid-level, not roundoff-level
        assert abs(mid - report.total) <= 1e-5
        assert abs(mid - report.total) > 0.0

    def test_position_order_irrelevant(self):
        d = normal_field()
        a = midpoint_total_power(np.array([-1.0, 1.0]), d, PARAMS)
        b = midpoint_total_power(np.array([1.0, -1.0]), d, PARAMS)
        assert a == b


class TestBruteForce:
    def test_single_station_uniform(self):
        d = uniform_field()
        res = brute_force_optimize(d, 1, PARAMS, np.linspace(0.0, 1.0, 101))
        assert res.positions[0] == 0.5
        assert res.power == pytest.approx(1.0 / 12.0, abs=1e-6)
        assert res.traffic.sum() == pytest.approx(1.0, abs=1e-12)

    def test_single_station_normal(self):
        d = normal_field()
        res = brute_force_optimize(d, 1, PARAMS, np.linspace(-8.0, 8.0, 81))
        assert res.positions[0] == 0.0

    def test_two_stations_beat_the_naive_layout(self):
        d = uniform_field()
        res = brute_force_optimize(d, 2, PARAMS, np.linspace(0.0, 1.0, 201))
        assert res.power < 7.0 / 48.0
        assert res.positions[0] < res.positions[1]
        # the optimal pair sits strictly inside the pure-quantizer layout
        assert 0.25 < res.positions[0] and res.positions[1] < 0.75

    def test_deterministic(self):
        d = uniform_field(501)
        cand = np.linspace(0.0, 1.0, 101)
        a = brute_force_optimize(d, 3, PARAMS, cand)
        b = brute_force_optimize(d, 3, PARAMS, cand)
        np.testing.assert_array_equal(a.positions, b.positions)
        assert a.power == b.power

    def test_not_beaten_by_random_tuples(self):
        d = normal_field()
        cand = np.linspace(-4.0, 4.0, 81)
        res = brute_force_optimize(d, 2, PARAMS, cand)
        rng = np.random.default_rng(13)
        for _ in range(50):
            pick = rng.choice(cand, size=2, replace=False)
            assert midpoint_total_power(pick, d, PARAMS) >= res.power - 1e-12

    def test_station_count_limits(self):
        d = uniform_field(101)
        cand = np.linspace(0.0, 1.0, 11)
        for K in (0, 4):
            with pytest.raises(ValueError):
                brute_force_optimize(d, K, PARAMS, cand)
        # True is not a count of 1, nor 2.0 one of 2
        for K in (True, 2.0):
            with pytest.raises(ValueError, match="whole number"):
                brute_force_optimize(d, K, PARAMS, cand)

    def test_candidates_must_be_numbers(self):
        # numpy reads True and False as 1 and 0, and "0.5" as 0.5
        d = uniform_field(101)
        for cand in ([True, False, 0.5], ["0.2", 0.5], np.array(["0.2", "0.5"])):
            with pytest.raises(ValueError, match="numeric"):
                brute_force_optimize(d, 1, PARAMS, cand)

    def test_candidate_count_limit(self):
        d = uniform_field(101)
        with pytest.raises(ValueError):
            brute_force_optimize(d, 2, PARAMS, np.linspace(0.0, 1.0, 402))

    def test_candidates_must_lie_inside(self):
        d = uniform_field(101)
        with pytest.raises(ValueError):
            brute_force_optimize(d, 1, PARAMS, np.array([0.5, 1.5]))

    def test_needs_enough_candidates(self):
        d = uniform_field(101)
        with pytest.raises(ValueError):
            brute_force_optimize(d, 3, PARAMS, np.array([0.2, 0.8]))

    def test_rejects_2d(self):
        d = DensityField.from_spec(
            FunctionSpec("uniform", {}),
            1.0,
            Domain.rectangle((0.0, 1.0), (0.0, 1.0), (11, 11)),
        )
        with pytest.raises(ValueError):
            brute_force_optimize(d, 1, PARAMS, np.linspace(0.1, 0.9, 5))


def enumerated_search(d, K, params, candidates):
    """`brute_force_optimize` as a plain enumeration: every K-subset, in
    lexicographic order, priced by the per-station formula; the first
    minimum wins."""
    cand = np.unique(candidates)
    centers, w = _midpoint_weights(d)
    w0, w1, w2 = _prefix_sums(w, centers)
    Q = np.array(list(itertools.combinations(cand, K)))
    costs = _tuple_costs(Q, centers, w0, w1, w2, d.throughput, params)
    k = int(np.argmin(costs))
    edges = np.searchsorted(centers, 0.5 * (Q[k, :-1] + Q[k, 1:]), side="right")
    edges = np.concatenate([[0], edges, [centers.size]])
    return Q[k], float(costs[k]), d.throughput * (w0[edges[1:]] - w0[edges[:-1]])


MIRRORED = np.array([-0.75, -0.25, 0.25, 0.75])
NEAR_1E4 = 1e4 + 1.0 / 3.0


@st.composite
def search_instances(draw):
    """A 1D density, 3-41 candidates, K and radio parameters.

    "mirrored" draws a uniform density on a dyadic grid and candidates in
    mirror pairs. At the origin every cost is exact and mirror subsets tie
    exactly; near 1e4 they tie up to the reference's own rounding. The
    other shapes draw node values or a normal density, at an offset of up
    to 1e4 from the origin.
    """
    shape = draw(st.sampled_from(["mirrored", "values", "normal"]))
    K = draw(st.integers(1, 3))
    if shape == "mirrored":
        offset = draw(st.sampled_from([0.0, NEAR_1E4]))
        half = 2.0 ** draw(st.integers(-2, 3))
        steps = 2 ** draw(st.integers(3, 8))
        d = DensityField.from_spec(
            FunctionSpec("uniform", {}), 1.0, Domain.interval(offset - half, offset + half, steps + 1)
        )
        picks = draw(st.lists(st.integers(1, steps // 2), min_size=2, max_size=20, unique=True))
        right = half * np.array(picks) / (steps // 2)
        cand = offset + np.concatenate([-right, right])
    else:
        lo = draw(st.sampled_from([0.0, 50.0, NEAR_1E4])) + draw(st.floats(-3.0, 3.0))
        hi = lo + draw(st.floats(0.5, 8.0))
        dom = Domain.interval(lo, hi, draw(st.integers(3, 400)))
        if shape == "values":
            nodes = draw(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=12))
            x = np.linspace(lo, hi, len(nodes) + 1)
            values = np.interp(dom.axis(0), x, [0.5, *nodes])
            d = DensityField.from_values(dom, values, draw(st.floats(0.1, 4.0)))
        else:
            mu = lo + (hi - lo) * draw(st.floats(0.0, 1.0))
            spec = FunctionSpec("normal", {"mu": mu, "sigma": draw(st.floats(0.05, 3.0))})
            d = DensityField.from_spec(spec, draw(st.floats(0.1, 4.0)), dom)
        fractions = draw(st.lists(st.floats(0.0, 1.0), min_size=3, max_size=41))
        cand = lo + (hi - lo) * np.array(fractions)
    params = RadioParams(
        noise_power=draw(st.floats(0.01, 100.0)), throughput=draw(st.floats(0.05, 4.0))
    )
    return d, min(K, np.unique(cand).size), params, cand


def normal_on(mu):
    """A unit normal on [mu - 4, mu + 4]."""
    return DensityField.from_spec(
        FunctionSpec("normal", {"mu": mu, "sigma": 1.0}), 1.0, Domain.interval(mu - 4.0, mu + 4.0, 2001)
    )


def uniform_on(lo, hi, nodes):
    return DensityField.from_spec(FunctionSpec("uniform", {}), 1.0, Domain.interval(lo, hi, nodes))


class TestExhaustiveSearch:
    @settings(max_examples=80)
    @given(instance=search_instances())
    @example(instance=(normal_on(1e4), 3, PARAMS, np.linspace(1e4 - 3.9, 1e4 + 3.9, 41)))
    @example(instance=(normal_on(0.0), 2, PARAMS, np.linspace(-4.0, 4.0, 41)))
    # mirror triples tie exactly; the table prices break the tie the other way
    @example(instance=(uniform_on(-1.0, 1.0, 17), 3, RadioParams(1.5, 1.5), MIRRORED))
    # pairs whose exact costs differ by less than the reference's rounding
    # near 1e4, which a window of 1e-9 relative to the minimum misses
    @example(
        instance=(
            uniform_on(NEAR_1E4 - 1.0, NEAR_1E4 + 1.0, 65),
            2,
            PARAMS,
            NEAR_1E4 + np.array([-0.25, -0.125, 0.125 - 2.2e-8, 0.25 - 2.2e-8]),
        )
    )
    def test_equals_the_plain_enumeration(self, instance):
        d, K, params, cand = instance
        res = brute_force_optimize(d, K, params, cand)
        positions, power, traffic = enumerated_search(d, K, params, cand)
        np.testing.assert_array_equal(res.positions, positions)
        assert res.power == power
        np.testing.assert_array_equal(res.traffic, traffic)

    @pytest.mark.parametrize("block", [1 << 6, 1 << 16])
    def test_answer_does_not_depend_on_the_block(self, monkeypatch, block):
        # the window re-prices the true minimum in any block, and the strict
        # < keeps the lexicographically first of ties across blocks
        rng = np.random.default_rng(24)
        instances = []
        for _ in range(20):
            lo = rng.uniform(-5.0, 5.0)
            hi = lo + rng.uniform(0.5, 8.0)
            dom = Domain.interval(lo, hi, int(rng.integers(3, 400)))
            d = DensityField.from_values(dom, rng.uniform(0.0, 1.0, dom.resolution[0]), rng.uniform(0.1, 4.0))
            cand = lo + (hi - lo) * rng.uniform(0.0, 1.0, int(rng.integers(3, 60)))
            params = RadioParams(rng.uniform(0.01, 100.0), rng.uniform(0.05, 4.0))
            instances.append((d, params, cand))
        expected = [[brute_force_optimize(d, K, p, c) for K in (1, 2, 3)] for d, p, c in instances]
        monkeypatch.setattr(brute_force, "_BLOCK", block)
        for (d, params, cand), results in zip(instances, expected):
            for K, want in zip((1, 2, 3), results):
                got = brute_force_optimize(d, K, params, cand)
                np.testing.assert_array_equal(got.positions, want.positions)
                assert got.power == want.power
                np.testing.assert_array_equal(got.traffic, want.traffic)

    def test_memory_at_the_cap(self):
        # 401 candidates and K = 3 are 10 695 100 subsets. The search that
        # priced them per station, 200 000 at a time, peaked at 48.40 MiB
        # traced here and returned the same placement and power.
        d = normal_on(0.0)
        cand = np.linspace(-3.9, 3.9, 401)
        tracemalloc.start()
        try:
            res = brute_force_optimize(d, 3, PARAMS, cand)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 48.40 * 2**20
        np.testing.assert_array_equal(res.positions, cand[[184, 201, 217]])
        assert res.power == 0.7630158901779209


def searches(d, params, Ks, candidates):
    return [brute_force_optimize(d, K, params, candidates) for K in Ks]


class TestConsistencyReport:
    def test_uniform_centered(self):
        d = DensityField.from_spec(
            FunctionSpec("uniform", {}), 1.0, Domain.interval(-1.0, 1.0, 2001)
        )
        rows = consistency_report(d, searches(d, PARAMS, [2, 3], np.linspace(-1.0, 1.0, 101)))
        assert [r.K for r in rows] == [2, 3]
        for r in rows:
            assert r.theta == 1.0
            assert r.dilation == 5.0
            assert r.f_spread == pytest.approx(1.0 / np.sqrt(3.0), abs=1e-9)
            assert r.continuum_spread == pytest.approx(5.0 / np.sqrt(3.0), abs=1e-6)
            assert r.discrete_spread >= 0.0
            assert r.ratio == pytest.approx(r.discrete_spread / r.f_spread, rel=1e-12)

    def test_high_throughput_stations_shadow_terminals(self):
        d = DensityField.from_spec(
            FunctionSpec("truncated_normal", {"mu": 0.0, "sigma": 1.0, "a": -1.0, "b": 1.0}),
            24.0,
            Domain.interval(-1.0, 1.0, 2001),
        )
        rows = consistency_report(
            d, searches(d, RadioParams(1.0, 24.0), [1], np.linspace(-1.0, 1.0, 51))
        )
        assert rows[0].continuum_spread / rows[0].f_spread == pytest.approx(1.0, abs=1e-6)
        assert rows[0].dilation - 1.0 == pytest.approx(2.384185933124172e-07, rel=1e-9)

    def test_concentrated_density_collapses_spreads(self):
        dom = Domain.interval(-1.0, 1.0, 401)
        x = dom.axis(0)
        d = DensityField.from_values(dom, np.exp(-(x**2) / (2.0 * 0.003**2)), 1.0)
        rows = consistency_report(d, searches(d, PARAMS, [1], np.linspace(-1.0, 1.0, 101)))
        assert rows[0].discrete_spread <= 0.05
        assert rows[0].continuum_spread <= 0.05

    def test_off_center_density_propagates_error(self):
        d = uniform_field(101)  # barycenter 0.5
        with pytest.raises(ValueError):
            consistency_report(d, searches(d, PARAMS, [1], np.linspace(0.1, 0.9, 21)))
