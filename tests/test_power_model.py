import math

import numpy as np
import pytest

from backhaulopt.density import DensityField, Domain, FunctionSpec
from backhaulopt.discrete_placement import voronoi_partition
from backhaulopt.power_model import (
    CellPartition,
    RadioParams,
    SingularGainError,
    station_traffic,
    total_power,
)

NORMAL_MASS_1SIGMA = 0.6826894921370859


def uniform_field(resolution=2001, throughput=1.0):
    return DensityField.from_spec(
        FunctionSpec("uniform", {}), throughput, Domain.interval(0.0, 1.0, resolution)
    )


def normal_field(throughput=1.0):
    return DensityField.from_spec(FunctionSpec("normal", {"mu": 0.0, "sigma": 1.0}), throughput)


def single_cell(domain):
    """Every cell to one station."""
    return CellPartition(domain, np.zeros(domain.cell_counts, dtype=int), 1)


def split(d, cut):
    """Two stations: cells whose center has x < cut, and the rest."""
    x = d.domain.cell_centers()
    if d.domain.ndim == 2:
        x = x[:, 0]
    return CellPartition(d.domain, np.where(x < cut, 0, 1), 2)


def simpson_access(pos, partition, d, params):
    """Access power per station, one Simpson panel per cell on raw distances."""
    x = d.domain.axis(0)
    mids = 0.5 * (x[:-1] + x[1:])
    fm = d.eval(mids)
    f = d.values
    out = np.zeros(partition.stations)
    for c, k in enumerate(partition.assignment.ravel()):
        p = pos[k]
        out[k] += (x[c + 1] - x[c]) / 6.0 * (
            f[c] * (x[c] - p) ** 2
            + 4.0 * fm[c] * (mids[c] - p) ** 2
            + f[c + 1] * (x[c + 1] - p) ** 2
        )
    return params.noise_power * params.shannon_factor * out


class TestGain:
    # free-space gain 1/d^2: a backhaul link costs sigma2 * d^2 * m_i * m_j / m
    def test_inverse_square(self):
        d = uniform_field()
        partition = split(d, 0.5)
        p = RadioParams(1.0, 1.0)
        far = total_power(np.array([0.5, 1.5]), partition, d, p).inter_per_pair[0, 1]
        near = total_power(np.array([0.5, 1.0]), partition, d, p).inter_per_pair[0, 1]
        assert far == pytest.approx(0.25, abs=1e-12)
        assert near == pytest.approx(0.0625, abs=1e-12)
        assert far / near == pytest.approx(4.0, rel=1e-12)

    def test_2d_points(self):
        d = DensityField.from_spec(
            FunctionSpec("uniform", {}), 1.0, Domain.rectangle((0.0, 1.0), (0.0, 1.0), (41, 41))
        )
        pos = np.array([[0.0, 0.0], [3.0, 4.0]])
        report = total_power(pos, split(d, 0.5), d, RadioParams(1.0, 1.0))
        assert report.inter_per_pair[0, 1] == pytest.approx(25.0 * 0.25, rel=1e-12)

    def test_zero_distance_raises(self):
        with pytest.raises(SingularGainError):
            voronoi_partition(np.array([0.3, 0.3]), uniform_field(101))

    def test_subclasses_value_error(self):
        assert issubclass(SingularGainError, ValueError)


class TestIntraAt:
    # an access link costs sigma2 * (2^theta - 1) * d^2 per unit terminal mass;
    # over uniform terminals on [0, 1] a station at 2 averages d^2 = 7/3
    def access(self, params):
        d = uniform_field()
        report = total_power(np.array([2.0]), single_cell(d.domain), d, params)
        return report.intra_total

    def test_unit_case(self):
        assert self.access(RadioParams(noise_power=1.0, throughput=1.0)) == pytest.approx(
            7.0 / 3.0, rel=1e-12
        )

    def test_vanishes_with_throughput(self):
        assert self.access(RadioParams(noise_power=1.0, throughput=1e-9)) < 1e-8

    def test_shannon_factor(self):
        # 2^theta - 1 scaling: theta=2 gives factor 3
        assert self.access(RadioParams(noise_power=0.5, throughput=2.0)) == pytest.approx(
            0.5 * 3.0 * 7.0 / 3.0, rel=1e-12
        )

    def test_zero_distance_allowed(self):
        # terminals at the station itself cost nothing and raise nothing:
        # a station on the peak of a symmetric triangle pays its variance 1/24
        d = DensityField.from_spec(
            FunctionSpec("triangular", {"a": 0.0, "c": 0.5, "b": 1.0}),
            1.0,
            Domain.interval(0.0, 1.0, 2001),
        )
        report = total_power(
            np.array([0.5]), single_cell(d.domain), d, RadioParams(1.0, 1.0)
        )
        assert report.intra_total == pytest.approx(1.0 / 24.0, abs=1e-12)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            RadioParams(noise_power=-1.0, throughput=1.0)
        with pytest.raises(ValueError):
            RadioParams(noise_power=1.0, throughput=0.0)
        # infinite values used to fail only inside a solve, and True read as 1
        bad = ((math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0), (True, 1.0), (1.0, "1"))
        for noise_power, throughput in bad:
            with pytest.raises(ValueError, match="positive finite number"):
                RadioParams(noise_power, throughput)

    def test_overflowing_throughput_is_named(self):
        # 2**throughput overflows from 1024; it used to raise OverflowError
        # ("math range error") only when the Shannon factor was read
        for throughput in (1024.0, 2000.0):
            with pytest.raises(ValueError, match=f"throughput {throughput!r} must be below 1024"):
                RadioParams(1.0, throughput)
        assert RadioParams(1.0, 1023.5).shannon_factor == math.pow(2.0, 1023.5) - 1.0


class TestCellQuantities:
    def test_full_domain_uniform_second_moment(self):
        d = uniform_field()
        report = total_power(
            np.array([0.5]), single_cell(d.domain), d, RadioParams(1.0, 1.0)
        )
        assert report.intra_per_cell[0] == pytest.approx(1.0 / 12.0, abs=1e-12)

    def test_zero_density_cell(self):
        d = DensityField.from_spec(
            FunctionSpec("triangular", {"a": 0.0, "c": 0.25, "b": 0.5}),
            1.0,
            Domain.interval(0.0, 1.0, 101),
        )
        partition = split(d, 0.5)
        report = total_power(np.array([0.25, 0.75]), partition, d, RadioParams(1.0, 1.0))
        assert report.intra_per_cell[1] == pytest.approx(0.0, abs=1e-12)
        assert station_traffic(partition, d).per_station[1] == pytest.approx(0.0, abs=1e-12)

    def test_centroid_minimizes_intra(self):
        d = normal_field()
        partition = single_cell(d.domain)
        p = RadioParams(1.0, 1.0)
        base = total_power(d.centroid(), partition, d, p).intra_total
        rng = np.random.default_rng(7)
        for x in rng.uniform(-4.0, 4.0, size=100):
            assert total_power(np.array([x]), partition, d, p).intra_total >= base - 1e-12

    def test_cell_traffic_scales_with_throughput(self):
        d1 = uniform_field()
        d5 = uniform_field(throughput=5.0)
        partition = single_cell(d1.domain)
        assert station_traffic(partition, d1).per_station[0] == pytest.approx(1.0, abs=1e-12)
        assert station_traffic(partition, d5).per_station[0] == pytest.approx(5.0, abs=1e-12)

    def test_cell_traffic_normal_one_sigma(self):
        d = normal_field()
        assert -1.0 in d.domain.axis(0) and 1.0 in d.domain.axis(0)
        inside = np.abs(d.domain.cell_centers()) < 1.0
        partition = CellPartition(d.domain, np.where(inside, 0, 1), 2)
        tv = station_traffic(partition, d)
        assert tv.per_station[0] == pytest.approx(NORMAL_MASS_1SIGMA, abs=1e-9)

    def test_partition_on_another_grid_rejected(self):
        # cells are matched by index, so a partition made on another grid
        # would price the wrong cells
        d = uniform_field(201)
        other = DensityField.from_spec(FunctionSpec("uniform", {}), 1.0, Domain.interval(0.0, 2.0, 201))
        partition = voronoi_partition(np.array([0.2, 0.8]), other)
        for price in (
            lambda: station_traffic(partition, d),
            lambda: total_power(np.array([0.2, 0.8]), partition, d, RadioParams(1.0, 1.0)),
        ):
            with pytest.raises(ValueError, match="one grid"):
                price()

    def test_station_traffic_partitions_throughput(self):
        d = normal_field(throughput=3.0)
        partition = voronoi_partition(np.array([-1.0, 0.2, 2.0]), d)
        tv = station_traffic(partition, d)
        assert tv.per_station.shape == (3,)
        assert tv.per_station.sum() == pytest.approx(3.0, abs=1e-9)
        assert tv.total == pytest.approx(3.0, abs=1e-9)
        assert np.all(tv.per_station > 0)


class TestInterPower:
    def test_two_station_example(self):
        d = uniform_field()
        report = total_power(np.array([0.25, 0.75]), split(d, 0.5), d, RadioParams(1.0, 1.0))
        assert report.inter_per_pair[0, 1] == pytest.approx(0.0625, abs=1e-12)

    def test_zero_traffic_costs_nothing(self):
        d = uniform_field()
        partition = CellPartition(d.domain, np.zeros(d.domain.cell_counts, dtype=int), 2)
        report = total_power(np.array([0.5, 0.9]), partition, d, RadioParams(1.0, 1.0))
        assert np.all(report.inter_per_pair == 0.0)
        assert report.inter_total == 0.0

    def test_symmetric_in_endpoints(self):
        d = uniform_field(throughput=1.5)
        partition = split(d, 0.3)
        p = RadioParams(2.0, 1.5)
        report = total_power(np.array([0.15, 0.65]), partition, d, p)
        tv = station_traffic(partition, d)
        m0, m1 = tv.per_station
        assert report.inter_per_pair[0, 1] == pytest.approx(
            report.inter_per_pair[1, 0], rel=1e-15
        )
        assert report.inter_per_pair[0, 1] == pytest.approx(
            2.0 * 0.5**2 * m0 * m1 / tv.total, rel=1e-12
        )

    def test_independent_of_throughput_factor(self):
        # backhaul uses the linearized rate, so no 2^theta - 1 term
        d = uniform_field()
        pos = np.array([0.25, 0.75])
        a = total_power(pos, split(d, 0.5), d, RadioParams(1.0, 1.0))
        b = total_power(pos, split(d, 0.5), d, RadioParams(1.0, 8.0))
        assert a.inter_total == b.inter_total
        assert b.intra_total == pytest.approx(255.0 * a.intra_total, rel=1e-12)


class TestTotalPower:
    def test_single_station_has_no_inter(self):
        d = uniform_field()
        partition = single_cell(d.domain)
        report = total_power(np.array([0.5]), partition, d, RadioParams(1.0, 1.0))
        assert report.inter_total == 0.0
        assert report.total == pytest.approx(1.0 / 12.0, abs=1e-10)

    def test_two_station_breakdown(self):
        d = uniform_field()
        pos = np.array([0.25, 0.75])
        report = total_power(pos, voronoi_partition(pos, d), d, RadioParams(1.0, 1.0))
        assert report.intra_total == pytest.approx(1.0 / 48.0, abs=1e-10)
        assert report.inter_total == pytest.approx(0.125, abs=1e-10)
        assert report.total == pytest.approx(7.0 / 48.0, abs=1e-10)
        # ordered pairs: each direction carries half the backhaul total
        assert report.inter_per_pair[0, 1] == pytest.approx(0.0625, abs=1e-10)
        assert report.inter_per_pair[1, 0] == pytest.approx(0.0625, abs=1e-10)

    def test_intra_per_cell_matches_masks(self):
        d = normal_field()
        pos = np.array([-0.8, 0.1, 1.3])
        partition = voronoi_partition(pos, d)
        p = RadioParams(1.0, 1.0)
        report = total_power(pos, partition, d, p)
        direct = simpson_access(pos, partition, d, p)
        np.testing.assert_allclose(report.intra_per_cell, direct, rtol=1e-12)
        assert report.intra_per_cell.sum() == pytest.approx(report.intra_total, rel=1e-12)

    def test_noise_power_scales_everything(self):
        d = uniform_field()
        pos = np.array([0.25, 0.75])
        partition = voronoi_partition(pos, d)
        r1 = total_power(pos, partition, d, RadioParams(1.0, 1.0))
        r2 = total_power(pos, partition, d, RadioParams(2.0, 1.0))
        assert r2.intra_total == pytest.approx(2.0 * r1.intra_total, rel=1e-12)
        assert r2.inter_total == pytest.approx(2.0 * r1.inter_total, rel=1e-12)
        assert r2.total == pytest.approx(2.0 * r1.total, rel=1e-12)

    def test_inter_pair_matrix_symmetric(self):
        d = normal_field()
        pos = np.array([-0.8, 0.1, 1.3])
        report = total_power(pos, voronoi_partition(pos, d), d, RadioParams(1.0, 1.0))
        np.testing.assert_array_equal(report.inter_per_pair, report.inter_per_pair.T)
        assert np.all(np.diag(report.inter_per_pair) == 0.0)

    def test_permutation_invariance(self):
        d = normal_field()
        p = RadioParams(1.0, 1.0)
        pos = np.array([-0.8, 0.1, 1.3])
        perm = np.array([2, 0, 1])
        a = total_power(pos, voronoi_partition(pos, d), d, p)
        b = total_power(pos[perm], voronoi_partition(pos[perm], d), d, p)
        assert b.total == pytest.approx(a.total, rel=1e-12)
        np.testing.assert_allclose(
            b.intra_per_cell, a.intra_per_cell[perm], rtol=1e-12, atol=1e-15
        )

    def test_coincident_loaded_stations_raise(self):
        d = uniform_field(101)
        labels = np.where(d.domain.cell_centers() < 0.5, 0, 1)
        partition = CellPartition(d.domain, labels, 2)
        with pytest.raises(SingularGainError):
            total_power(np.array([0.5, 0.5]), partition, d, RadioParams(1.0, 1.0))

    def test_coincident_unloaded_station_tolerated(self):
        # an empty cell carries no traffic, so its backhaul links vanish
        d = uniform_field(101)
        partition = CellPartition(d.domain, np.zeros(100, dtype=int), 2)
        report = total_power(np.array([0.5, 0.5]), partition, d, RadioParams(1.0, 1.0))
        assert np.isfinite(report.total)
        assert report.inter_total == 0.0

    def test_position_count_must_match(self):
        d = uniform_field(101)
        with pytest.raises(ValueError):
            total_power(np.array([0.3, 0.7]), single_cell(d.domain), d, RadioParams(1.0, 1.0))

    def test_2d_axis_symmetry(self):
        d = DensityField.from_spec(
            FunctionSpec("uniform", {}),
            1.0,
            Domain.rectangle((0.0, 1.0), (0.0, 1.0), (41, 41)),
        )
        p = RadioParams(1.0, 1.0)
        pa = np.array([[0.25, 0.5], [0.75, 0.5]])
        pb = np.array([[0.5, 0.25], [0.5, 0.75]])
        a = total_power(pa, voronoi_partition(pa, d), d, p)
        b = total_power(pb, voronoi_partition(pb, d), d, p)
        assert a.total == pytest.approx(b.total, rel=1e-12)

    def test_partition_label_range_validated(self):
        dom = Domain.interval(0.0, 1.0, 11)
        with pytest.raises(ValueError):
            CellPartition(dom, np.full(dom.cell_counts, 3, dtype=int), 2)
