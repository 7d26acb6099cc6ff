import tracemalloc

import numpy as np
import pytest

from backhaulopt import discrete_placement, power_model
from backhaulopt.density import DensityField, Domain, FunctionSpec
from backhaulopt.discrete_placement import (
    OptimizerConfig,
    initial_positions,
    optimize,
    update_positions,
    voronoi_partition,
)
from backhaulopt.power_model import RadioParams, station_traffic

PARAMS = RadioParams(noise_power=1.0, throughput=1.0)


def uniform_field(resolution=2001):
    return DensityField.from_spec(
        FunctionSpec("uniform", {}), 1.0, Domain.interval(0.0, 1.0, resolution)
    )


def normal_field():
    return DensityField.from_spec(FunctionSpec("normal", {"mu": 0.0, "sigma": 1.0}), 1.0)


class TestVoronoi:
    def test_two_station_split(self):
        d = uniform_field()
        partition = voronoi_partition(np.array([0.25, 0.75]), d)
        counts = np.bincount(partition.assignment.ravel(), minlength=2)
        np.testing.assert_array_equal(counts, [1000, 1000])

    def test_single_station_owns_everything(self):
        d = uniform_field(101)
        partition = voronoi_partition(np.array([0.9]), d)
        assert np.all(partition.assignment == 0)

    def test_three_equal_cells(self):
        d = uniform_field(301)
        partition = voronoi_partition(np.array([1.0 / 6.0, 0.5, 5.0 / 6.0]), d)
        counts = np.bincount(partition.assignment.ravel(), minlength=3)
        np.testing.assert_array_equal(counts, [100, 100, 100])

    def test_tie_goes_to_lowest_index(self):
        d = uniform_field(2)  # single cell centered at 0.5
        partition = voronoi_partition(np.array([0.4, 0.6]), d)
        assert partition.assignment.ravel()[0] == 0

    def test_tie_at_a_tile_bound_goes_to_lowest_index(self):
        # 4096 unit cells, cut into tiles of 1024: over the first tile,
        # station 1's farthest squared distance (511.5**2, to the cell
        # centered at 1023.5) equals station 0's nearest, so station 0 ties
        # there and must not be pruned from that tile
        d = DensityField.from_spec(
            FunctionSpec("uniform", {}), 1.0, Domain.interval(0.0, 4096.0, 4097)
        )
        partition = voronoi_partition(np.array([1535.0, 512.0]), d)
        expected = np.where(d.domain.cell_centers() < 1023.5, 1, 0)
        np.testing.assert_array_equal(partition.assignment, expected)

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            voronoi_partition(np.array([0.5, 0.5]), uniform_field(101))

    def test_2d_split(self):
        d = DensityField.from_spec(
            FunctionSpec("uniform", {}),
            1.0,
            Domain.rectangle((0.0, 1.0), (0.0, 1.0), (21, 21)),
        )
        partition = voronoi_partition(np.array([[0.25, 0.5], [0.75, 0.5]]), d)
        counts = np.bincount(partition.assignment.ravel(), minlength=2)
        np.testing.assert_array_equal(counts, [200, 200])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_station_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            voronoi_partition(np.array([0.2, bad, 0.7]), uniform_field(11))
        d2 = DensityField.from_spec(
            FunctionSpec("uniform", {}), 1.0, Domain.rectangle((0.0, 1.0), (0.0, 1.0), 11)
        )
        with pytest.raises(ValueError, match="finite"):
            voronoi_partition(np.array([[0.2, 0.3], [0.5, bad]]), d2)

    def test_memory_is_linear_in_cells(self):
        for resolution in [(201, 201), (20_001,)]:
            for K in [64, 1024]:
                ndim = len(resolution)
                domain = Domain(((0.0, 1.0),) * ndim, resolution)
                d = DensityField.from_spec(FunctionSpec("uniform", {}), 1.0, domain)
                pos = np.random.default_rng(5).uniform(0.0, 1.0, (K, ndim))
                cells = int(np.prod(domain.cell_counts))
                tracemalloc.start()
                try:
                    partition = voronoi_partition(pos, d)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert np.bincount(partition.assignment.ravel()).sum() == cells
                # a cells x K x ndim float tensor would take K * ndim floats per cell
                assert peak < 8 * cells * 8, (resolution, K)


class TestUpdate:
    def test_single_station_moves_to_centroid(self):
        d = uniform_field()
        partition = voronoi_partition(np.array([0.9]), d)
        traffic = station_traffic(partition, d)
        new = update_positions(np.array([0.9]), traffic, PARAMS)
        assert new[0, 0] == pytest.approx(0.5, abs=1e-12)

    def test_without_backhaul_update_is_centroid(self):
        d = uniform_field()
        pos = np.array([0.25, 0.75])
        partition = voronoi_partition(pos, d)
        traffic = station_traffic(partition, d)
        new = update_positions(pos, traffic, PARAMS, include_inter=False)
        np.testing.assert_allclose(new.ravel(), [0.25, 0.75], atol=1e-12)

    def test_backhaul_pulls_stations_together(self):
        d = uniform_field()
        pos = np.array([0.25, 0.75])
        partition = voronoi_partition(pos, d)
        traffic = station_traffic(partition, d)
        new = update_positions(pos, traffic, PARAMS).ravel()
        assert new[0] > 0.25 and new[1] < 0.75
        # symmetric configuration stays symmetric about the midpoint
        assert new[0] + new[1] == pytest.approx(1.0, abs=1e-12)

    def test_damping_blends_toward_target(self):
        d = uniform_field()
        pos = np.array([0.9])
        partition = voronoi_partition(pos, d)
        traffic = station_traffic(partition, d)
        half = update_positions(pos, traffic, PARAMS, damping=0.5)
        assert half[0, 0] == pytest.approx(0.7, abs=1e-12)

    def test_zero_mass_station_stays_put(self):
        d = DensityField.from_spec(
            FunctionSpec("triangular", {"a": 0.0, "c": 0.25, "b": 0.5}),
            1.0,
            Domain.interval(0.0, 1.0, 401),
        )
        pos = np.array([0.2, 0.9])
        partition = voronoi_partition(pos, d)
        traffic = station_traffic(partition, d)
        assert traffic.per_station[1] == pytest.approx(0.0, abs=1e-12)
        new = update_positions(pos, traffic, PARAMS)
        assert new[1, 0] == 0.9


class TestInitialPositions:
    def test_quantile_1d(self):
        d = uniform_field()
        pos = initial_positions(d, 2, OptimizerConfig())
        np.testing.assert_allclose(pos.ravel(), [0.25, 0.75], atol=1e-9)

    def test_quantile_2d_inside_domain(self):
        d = DensityField.from_spec(
            FunctionSpec("uniform", {}),
            1.0,
            Domain.rectangle((0.0, 2.0), (0.0, 1.0), (41, 41)),
        )
        pos = initial_positions(d, 5, OptimizerConfig())
        assert pos.shape == (5, 2)
        assert d.domain.contains(pos).all()

    def test_quantile_2d_without_numpy_trapezoid(self, monkeypatch):
        # numpy < 2.0 has no np.trapezoid, and the declared floor is 1.24
        monkeypatch.delattr(np, "trapezoid", raising=False)
        d = DensityField.from_spec(
            FunctionSpec("normal", {"mu": [0.5, 0.5], "sigma": [0.2, 0.3]}),
            1.0,
            Domain.rectangle((0.0, 1.0), (0.0, 1.0), (41, 41)),
        )
        pos = initial_positions(d, 4, OptimizerConfig())
        assert pos.shape == (4, 2)
        assert d.domain.contains(pos).all()

    def test_jitter_is_seeded(self):
        d = uniform_field()
        a = initial_positions(d, 3, OptimizerConfig(init="jitter", seed=11))
        b = initial_positions(d, 3, OptimizerConfig(init="jitter", seed=11))
        c = initial_positions(d, 3, OptimizerConfig(init="jitter", seed=12))
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)
        assert d.domain.contains(a).all()

    def test_explicit_shape_checked(self):
        d = uniform_field()
        cfg = OptimizerConfig(init="explicit", positions=np.array([0.1, 0.2, 0.3]))
        with pytest.raises(ValueError):
            initial_positions(d, 2, cfg)

    def test_explicit_outside_domain_rejected(self):
        # a station started off the domain would keep no cells and no traffic
        d = uniform_field()
        for outside in ([5.0, 7.0], [0.5, 1.01], [-0.01, 0.5]):
            with pytest.raises(ValueError, match="inside the domain"):
                initial_positions(d, 2, OptimizerConfig(init="explicit", positions=outside))
        plane = DensityField.from_spec(
            FunctionSpec("uniform", {}), 1.0, Domain.rectangle((0.0, 2.0), (0.0, 1.0), (21, 21))
        )
        cfg = OptimizerConfig(init="explicit", positions=[[0.5, 0.5], [1.5, 1.5]])
        with pytest.raises(ValueError, match="inside the domain"):
            initial_positions(plane, 2, cfg)
        # the domain's edges belong to it, as in brute_force_optimize's candidate check
        edges = OptimizerConfig(init="explicit", positions=[0.0, 1.0])
        np.testing.assert_array_equal(initial_positions(d, 2, edges).ravel(), [0.0, 1.0])


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            OptimizerConfig(max_iterations=0)
        with pytest.raises(ValueError):
            OptimizerConfig(position_tolerance=0.0)
        # counts are whole numbers, and an infinite tolerance would stop at once
        with pytest.raises(ValueError):
            OptimizerConfig(max_iterations=1e308)
        with pytest.raises(ValueError):
            OptimizerConfig(position_tolerance=float("inf"))
        # a string such as "no" is truthy and would leave the backhaul on
        with pytest.raises(ValueError):
            OptimizerConfig(include_inter="no")
        with pytest.raises(ValueError):
            OptimizerConfig(damping=0.0)
        with pytest.raises(ValueError):
            OptimizerConfig(damping=1.5)
        # float() and numpy read strings and booleans as numbers
        for field, value in (("damping", "0.5"), ("position_tolerance", "1e-8")):
            with pytest.raises(ValueError, match=field):
                OptimizerConfig(**{field: value})
        for positions in (["0.2", "0.7"], [True, 0.5], np.array(["0.2", "0.7"])):
            with pytest.raises(ValueError, match="positions"):
                OptimizerConfig(init="explicit", positions=positions)
        with pytest.raises(ValueError):
            OptimizerConfig(init="random")
        with pytest.raises(ValueError):
            OptimizerConfig(init="explicit")
        # positions are only read by the explicit init, so they are refused elsewhere
        for init in ("quantile", "jitter"):
            with pytest.raises(ValueError):
                OptimizerConfig(init=init, positions=np.array([0.1, 0.2]))
        # np.random.default_rng takes whole numbers >= 0; the seed is checked
        # also when init does not read it
        for seed in ("abc", -1, 1.5):
            with pytest.raises(ValueError):
                OptimizerConfig(seed=seed)
        # a bool is an Integral; True is not a count of 1
        for field in ("max_iterations", "seed"):
            with pytest.raises(ValueError, match=field):
                OptimizerConfig(**{field: True})


class TestOptimize:
    def test_single_station_uniform(self):
        sol = optimize(uniform_field(), 1, PARAMS)
        assert sol.converged
        assert sol.positions[0, 0] == pytest.approx(0.5, abs=1e-6)
        assert sol.report.total == pytest.approx(1.0 / 12.0, abs=1e-9)

    def test_single_station_normal(self):
        sol = optimize(normal_field(), 1, PARAMS)
        assert sol.converged
        assert sol.positions[0, 0] == pytest.approx(0.0, abs=1e-6)

    def test_two_stations_uniform(self):
        sol = optimize(uniform_field(), 2, PARAMS)
        assert sol.converged
        lo, hi = np.sort(sol.positions.ravel())
        # backhaul pulls the pair inside the pure-quantizer layout
        assert 0.25 < lo < hi < 0.75
        assert lo + hi == pytest.approx(1.0, abs=1e-3)
        assert sol.report.total < 7.0 / 48.0

    def test_trace_is_monotone(self):
        for K, field in ((2, uniform_field()), (3, normal_field())):
            sol = optimize(field, K, PARAMS, OptimizerConfig(init="jitter", seed=3))
            diffs = np.diff(sol.trace)
            assert np.all(diffs <= 1e-12)

    def test_trace_lengths_match_iterations(self):
        sol = optimize(uniform_field(501), 2, PARAMS, OptimizerConfig(init="jitter", seed=5))
        assert len(sol.trace) == sol.iterations + 1

    def test_pure_quantizer_matches_quantiles(self):
        cfg = OptimizerConfig(include_inter=False)
        sol = optimize(uniform_field(), 2, PARAMS, cfg)
        np.testing.assert_allclose(np.sort(sol.positions.ravel()), [0.25, 0.75], atol=1e-4)

    def test_label_permutation_does_not_matter(self):
        base = OptimizerConfig(init="explicit", positions=np.array([0.3, 0.8]))
        flipped = OptimizerConfig(init="explicit", positions=np.array([0.8, 0.3]))
        a = optimize(uniform_field(), 2, PARAMS, base)
        b = optimize(uniform_field(), 2, PARAMS, flipped)
        np.testing.assert_allclose(
            np.sort(a.positions.ravel()), np.sort(b.positions.ravel()), atol=1e-9
        )
        assert a.report.total == pytest.approx(b.report.total, rel=1e-9)

    def test_symmetric_start_escapes_the_merged_point(self):
        # the exact update moves the mirror pair straight to 5/12 and 7/12, the
        # optimum of its split, instead of merging it; the pair stays split
        cfg = OptimizerConfig(init="explicit", positions=np.array([0.25, 0.75]))
        sol = optimize(uniform_field(), 2, PARAMS, cfg)
        assert sol.converged
        lo, hi = np.sort(sol.positions.ravel())
        assert hi - lo > 0.1
        assert sol.report.total == pytest.approx(0.0625, abs=1e-6)

    def test_iteration_budget_respected(self):
        cfg = OptimizerConfig(max_iterations=1, init="jitter", seed=0)
        sol = optimize(uniform_field(501), 3, PARAMS, cfg)
        assert sol.iterations == 1
        assert not sol.converged

    def test_station_count_validated(self):
        with pytest.raises(ValueError):
            optimize(uniform_field(101), 0, PARAMS)
        assert initial_positions(uniform_field(101), 256, OptimizerConfig()).shape == (256, 1)
        # a fractional K is not rounded by a slice, and True is not a count of 1
        plane = DensityField.from_spec(
            FunctionSpec("uniform", {}), 1.0, Domain.rectangle((0.0, 1.0), (0.0, 1.0), 11)
        )
        for d in (uniform_field(101), plane):
            for K in (2.5, 3.0, True):
                with pytest.raises(ValueError, match="whole number"):
                    optimize(d, K, PARAMS)
            assert initial_positions(d, np.int64(3), OptimizerConfig()).shape == (3, d.domain.ndim)

    def test_many_stations_converge(self):
        # no step of a solve is quadratic in K, so the library sets no cap on it
        d = DensityField.from_spec(FunctionSpec("normal", {"mu": 0.0, "sigma": 1.0}), 1.0, resolution=20_001)
        sol = optimize(d, 2048, PARAMS)
        assert sol.converged
        assert sol.positions.shape == (2048, 1)
        assert np.all(np.diff(sol.trace) <= 1e-12 * sol.trace[:-1])

    def test_2d_runs_and_descends(self):
        d = DensityField.from_spec(
            FunctionSpec("normal", {"mu": (0.0, 0.0), "sigma": (1.0, 1.0)}),
            1.0,
            Domain.rectangle((-4.0, 4.0), (-4.0, 4.0), (41, 41)),
        )
        sol = optimize(d, 3, PARAMS, OptimizerConfig(init="jitter", seed=2, max_iterations=80))
        assert np.all(np.diff(sol.trace) <= 1e-12)
        assert d.domain.contains(sol.positions).all()

    def test_settled_layout_is_not_assigned_again(self, monkeypatch):
        # the start and the first move are assigned; the first move keeps the
        # start's partition, so the round that finds the positions settled gets
        # them back unchanged and neither assigns nor prices them again
        calls, prices = [], []
        assign, price = discrete_placement.voronoi_partition, discrete_placement._price

        def counted(pos, d):
            calls.append(1)
            return assign(pos, d)

        def priced(pos, traffic, params):
            prices.append(1)
            return price(pos, traffic, params)

        monkeypatch.setattr(discrete_placement, "voronoi_partition", counted)
        monkeypatch.setattr(discrete_placement, "_price", priced)
        d = DensityField.from_spec(
            FunctionSpec("normal", {"mu": (0.0, 0.0), "sigma": (1.0, 1.0)}),
            1.0,
            Domain.rectangle((-4.0, 4.0), (-4.0, 4.0), (41, 41)),
        )
        sol = optimize(d, 4, PARAMS)
        assert sol.converged and sol.iterations == 2
        assert len(calls) == 2
        assert len(prices) == 2
        assert len(sol.trace) == 3 and sol.trace[2] == sol.trace[1]

    def test_each_partition_is_reduced_once(self, monkeypatch):
        # the start partition is reduced by its pricing and the first move's
        # candidate by its own; the report carries the sums on, so a
        # 2-iteration solve reduces twice
        calls = []
        reduce = power_model.station_traffic

        def counted(partition, d):
            calls.append(1)
            return reduce(partition, d)

        monkeypatch.setattr(power_model, "station_traffic", counted)
        monkeypatch.setattr(discrete_placement, "station_traffic", counted)
        d = DensityField.from_spec(
            FunctionSpec("normal", {"mu": (0.0, 0.0), "sigma": (1.0, 1.0)}),
            1.0,
            Domain.rectangle((-4.0, 4.0), (-4.0, 4.0), (41, 41)),
        )
        sol = optimize(d, 4, PARAMS)
        assert sol.converged and sol.iterations == 2
        assert len(calls) == 2
        assert not hasattr(sol, "traffic")
        np.testing.assert_array_equal(sol.report.traffic.mass, reduce(sol.partition, d).mass)

    @pytest.mark.parametrize("span", [1e-7, 1.0, 16.0, 1e4])
    def test_tolerance_is_relative_to_the_domain(self, span):
        # the stop rule scales with the domain: the damped pair reaches the fixed
        # point 5/12 and 7/12 of any span in the same number of steps
        d = DensityField.from_spec(FunctionSpec("uniform", {}), 1.0, Domain.interval(0.0, span, 2001))
        sol = optimize(d, 2, PARAMS, OptimizerConfig(damping=0.5))
        assert sol.converged and sol.iterations == 24
        np.testing.assert_allclose(
            np.sort(sol.positions.ravel()) / span, [5.0 / 12.0, 7.0 / 12.0], rtol=0, atol=1e-8
        )
