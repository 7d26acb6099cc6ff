import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from backhaulopt.brute_force import (
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
        # the Simpson samples are read in place, per pattern of node or midpoint
        # per axis: evaluating every Simpson point at once took 385 bytes per
        # cell on the 201 x 201 grid
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
        # a cell's midpoint weight spread evenly over the cell integrates a
        # uniform density exactly, so there the two paths agree to roundoff
        d = uniform_field()
        pos = np.array([0.25, 0.75])
        report = total_power(pos, voronoi_partition(pos, d), d, PARAMS)
        assert midpoint_total_power(pos, d, PARAMS) == pytest.approx(report.total, rel=1e-14)
        # on a normal density the quadratures differ: grid-level, not roundoff-level
        d = normal_field()
        pos = np.array([-1.0, 1.0])  # symmetric, so the power cells are the nearest-station cells
        report = total_power(pos, voronoi_partition(pos, d), d, PARAMS)
        mid = midpoint_total_power(pos, d, PARAMS)
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
        assert res.positions[0] == pytest.approx(0.5, abs=1e-12)
        assert res.power == pytest.approx(1.0 / 12.0, abs=1e-6)
        assert res.traffic.sum() == pytest.approx(1.0, abs=1e-12)

    def test_single_station_normal(self):
        d = normal_field()
        res = brute_force_optimize(d, 1, PARAMS, np.linspace(-8.0, 8.0, 81))
        assert res.positions[0] == pytest.approx(0.0, abs=1e-12)

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
        # random choices of K - 1 inner cuts from the cut grid, each priced by direct sums
        d = normal_field()
        cand = np.linspace(-4.0, 4.0, 81)
        res = brute_force_optimize(d, 5, PARAMS, cand)
        runs = RunPrices(d, PARAMS, cand)
        rng = np.random.default_rng(13)
        for _ in range(200):
            inner = np.sort(rng.choice(runs.cuts[1:-1], size=4, replace=False))
            assert res.power <= runs.total(inner)[0] * (1.0 + 1e-12)

    def test_station_count_limits(self):
        d = uniform_field(101)
        cand = np.linspace(0.0, 1.0, 11)
        # 11 candidates, two of them at the ends, cut the grid into 10 runs
        for K in (0, 11, 12):
            with pytest.raises(ValueError):
                brute_force_optimize(d, K, PARAMS, cand)
        assert len(brute_force_optimize(d, 10, PARAMS, cand).positions) == 10
        # True is not a count of 1, nor 2.0 one of 2
        for K in (True, 2.0):
            with pytest.raises(ValueError, match="whole number"):
                brute_force_optimize(d, K, PARAMS, cand)

    def test_runs_without_mass_are_not_cells(self):
        # no mass left of 0.5: a cut there leaves a run without a centroid
        dom = Domain.interval(0.0, 1.0, 101)
        d = DensityField.from_values(dom, np.where(dom.axis(0) > 0.5, 1.0, 0.0))
        with pytest.raises(ValueError, match="positive mass"):
            brute_force_optimize(d, 2, PARAMS, np.array([0.2, 0.3]))
        res = brute_force_optimize(d, 2, PARAMS, np.array([0.2, 0.3, 0.8]))
        assert np.all(res.traffic > 0.0)
        assert res.positions[0] > 0.5

    @pytest.mark.parametrize("sigma", [0.5, 0.4])
    def test_light_runs_are_summed_directly(self, sigma):
        # the second cell weighs about 3e-12 (sigma 0.5) or 5e-19 (sigma 0.4)
        # of the first: below the rounding of a prefix-sum difference
        d = DensityField.from_spec(
            FunctionSpec("normal", {"mu": 0.0, "sigma": sigma}), 1.0, Domain.interval(0.0, 5.0, 3)
        )
        res = brute_force_optimize(d, 2, PARAMS, [0.0, 2.5])
        runs = RunPrices(d, PARAMS, [0.0, 2.5])
        _, positions, traffic = runs.total([1])
        np.testing.assert_allclose(res.traffic, traffic, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(res.positions, positions, rtol=1e-12, atol=0.0)

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


class RunPrices:
    """The problem `brute_force_optimize` solves, priced run by run with loops.

    The cut grid is the first cell at or above each candidate and both
    ends. A run of cells from cut i to cut j is summed directly about its
    own centroid, each cell's midpoint weight spread evenly over the
    cell; a run without mass is None.
    """

    def __init__(self, d, params, candidates):
        x = d.domain.axis(0)
        h = np.diff(x)
        centers = 0.5 * (x[:-1] + x[1:])
        self.w = d.eval(centers) * h
        self.centers, self.spread = centers, h * h / 12.0
        self.cuts = np.unique(np.concatenate([[0, centers.size], np.searchsorted(centers, candidates)]))
        self.tau = d.throughput
        self.gain = params.noise_power * (2.0 ** params.throughput - 1.0)
        self.kappa = self.gain / (self.gain + 2.0 * params.noise_power * d.throughput)
        self.b, self.V = self.run(0, centers.size)
        self._runs = {}

    def run(self, lo, hi):
        """(centroid, within-run sum of squares) of cells lo..hi - 1, or None."""
        w, c = self.w[lo:hi], self.centers[lo:hi]
        mass = w.sum()
        if not mass > 0:
            return None
        mean = float(np.sum(w * c) / mass)
        return mean, float(np.sum(w * ((c - mean) ** 2 + self.spread[lo:hi])))

    def total(self, inner):
        """(total power, positions, traffic) of the runs cut at `inner`, or None."""
        edges = [0, *inner, self.centers.size]
        runs = [self._runs.setdefault(e, self.run(*e)) for e in zip(edges[:-1], edges[1:])]
        if None in runs:
            return None
        W = sum(r[1] for r in runs)
        positions = np.array([self.b + self.kappa * (r[0] - self.b) for r in runs])
        traffic = np.array([self.tau * self.w[lo:hi].sum() for lo, hi in zip(edges[:-1], edges[1:])])
        return self.gain * (self.kappa * W + (1.0 - self.kappa) * self.V), positions, traffic


MIRRORED = np.array([-0.75, -0.25, 0.25, 0.75])
NEAR_1E4 = 1e4 + 1.0 / 3.0


@st.composite
def search_instances(draw):
    """A 1D density, 3-12 candidates, K and radio parameters.

    "mirrored" draws a uniform density on a dyadic grid and candidates in
    mirror pairs, whose mirror partitions tie, at the origin or near 1e4.
    The other shapes draw node values (some of them 0, so runs can lack
    mass) or a normal density, at an offset of up to 1e4 from the origin.
    """
    shape = draw(st.sampled_from(["mirrored", "values", "normal"]))
    K = draw(st.integers(1, 4))
    if shape == "mirrored":
        offset = draw(st.sampled_from([0.0, NEAR_1E4]))
        half = 2.0 ** draw(st.integers(-2, 3))
        steps = 2 ** draw(st.integers(3, 8))
        d = DensityField.from_spec(
            FunctionSpec("uniform", {}), 1.0, Domain.interval(offset - half, offset + half, steps + 1)
        )
        picks = draw(st.lists(st.integers(1, steps // 2), min_size=2, max_size=6, unique=True))
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
        fractions = draw(st.lists(st.floats(0.0, 1.0), min_size=3, max_size=12))
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
    @example(instance=(normal_on(1e4), 3, PARAMS, np.linspace(1e4 - 3.9, 1e4 + 3.9, 12)))
    @example(instance=(normal_on(0.0), 2, PARAMS, np.linspace(-4.0, 4.0, 12)))
    # the two mirror partitions tie exactly
    @example(instance=(uniform_on(-1.0, 1.0, 17), 3, RadioParams(1.5, 1.5), MIRRORED))
    @example(instance=(uniform_on(NEAR_1E4 - 1.0, NEAR_1E4 + 1.0, 65), 2, PARAMS, NEAR_1E4 + MIRRORED))
    def test_equals_the_plain_enumeration(self, instance):
        # every choice of K - 1 inner cuts from the cut grid, priced run by run
        d, K, params, cand = instance
        runs = RunPrices(d, params, cand)
        priced = [runs.total(inner) for inner in itertools.combinations(runs.cuts[1:-1], K - 1)]
        priced = [p for p in priced if p is not None]
        try:
            res = brute_force_optimize(d, K, params, cand)
        except ValueError as exc:
            # only when no K runs each hold a cell of positive weight
            assert "positive mass" in str(exc)
            assert not priced
            return
        least = min(p[0] for p in priced)
        assert res.power == pytest.approx(least, rel=1e-9)
        # the result is one of the least partitions, at its positions and
        # traffic up to the rounding of the prefix sums, which scales with
        # the total mass: a run of little mass has a rough centroid
        atol = 1e-9 * res.traffic.sum()
        width = float(np.ptp(runs.centers))
        assert any(
            power <= least * (1.0 + 1e-9)
            and np.allclose(res.traffic, traffic, rtol=0.0, atol=atol)
            and np.allclose(
                res.traffic * (res.positions - runs.b), traffic * (positions - runs.b), rtol=0.0, atol=atol * width
            )
            for power, positions, traffic in priced
        )
        # the stations' power cells cost no more than the cut runs they came from
        assert midpoint_total_power(res.positions, d, params) <= res.power * (1.0 + 1e-12)

    def test_memory_at_the_cap(self):
        # 401 inner candidates cut the grid into 402 runs; the DP's tables are
        # (C + 2)² floats, and its back-pointers K·(C + 2) indices
        d = normal_on(0.0)
        cand = np.linspace(-3.9, 3.9, 401)
        for K, power in ((3, 0.7291637874481989), (401, 0.6659644648268902)):
            tracemalloc.start()
            try:
                res = brute_force_optimize(d, K, PARAMS, cand)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 12 * 2**20
            assert res.power == pytest.approx(power, rel=1e-12)
            assert np.all(np.diff(res.positions) > 0.0)


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

    @pytest.mark.parametrize("theta", [1.0, 2.0, 3.0])
    def test_many_stations_contract_by_kappa(self, theta):
        # Under the model's cost the stations sit at kappa·c_i + (1 − kappa)·b,
        # so as K grows their traffic-weighted spread tends to kappa·spread(f),
        # kappa = (2^theta − 1) / (2^theta − 1 + 2·tau), here with tau = theta.
        # The fixed-point scheme dilates by lambda = 1 + 4/(2^theta − 1); the two
        # coefficients 2·tau and 4 agree at tau = 2, so kappa = 1/lambda only there.
        d = DensityField.from_spec(
            FunctionSpec("normal", {"mu": 0.0, "sigma": 1.0}), theta, Domain.interval(-4.0, 4.0, 4001)
        )
        params = RadioParams(1.0, theta)
        row = consistency_report(d, searches(d, params, [128], np.linspace(-4.0, 4.0, 401)))[0]
        shannon = 2.0**theta - 1.0
        kappa = shannon / (shannon + 2.0 * theta)
        assert abs(row.ratio - kappa) <= 1e-3
        assert (abs(row.ratio - 1.0 / row.dilation) <= 1e-3) == (theta == 2.0)
