import math

import numpy as np
import pytest
from scipy.special import erf

from backhaulopt.continuum import AffineMap, Measure1D, dilation_factor, pushforward
from backhaulopt.density import (
    MAX_SIMPSON_POINTS,
    DemandField,
    DensityField,
    Domain,
    FunctionSpec,
    _simpson,
    _simpson_points,
    default_domain,
    expected_terminals,
    fold_demand,
    spec_values,
)
from backhaulopt.discrete_placement import OptimizerConfig
from backhaulopt.power_model import RadioParams

# reference constants: 1/sqrt(2*pi) and Phi(1) - Phi(-1) via erf
NORMAL_PDF_AT_0 = 0.3989422804014327
NORMAL_MASS_1SIGMA = 0.6826894921370859


def uniform_field(resolution=2001):
    return DensityField.from_spec(
        FunctionSpec("uniform", {}), 1.0, Domain.interval(0.0, 1.0, resolution)
    )


def normal_field(throughput=1.0):
    return DensityField.from_spec(FunctionSpec("normal", {"mu": 0.0, "sigma": 1.0}), throughput)


class TestDomain:
    def test_interval_properties(self):
        dom = Domain.interval(0.0, 1.0, 11)
        assert dom.ndim == 1
        assert dom.cell_counts == (10,)
        assert dom.spacings[0] == pytest.approx(0.1)
        assert dom.volume == pytest.approx(1.0)

    def test_rectangle_properties(self):
        dom = Domain.rectangle((0.0, 2.0), (-1.0, 1.0), (21, 11))
        assert dom.ndim == 2
        assert dom.cell_counts == (20, 10)
        assert dom.volume == pytest.approx(4.0)
        centers = dom.cell_centers()
        assert centers.shape == (200, 2)
        # the per-axis centers are computed once and cannot be written through
        assert dom.midpoints is dom.midpoints
        assert not any(m.flags.writeable for m in dom.midpoints)
        np.testing.assert_array_equal(centers.reshape(20, 10, 2)[:, 0, 0], dom.midpoints[0])
        np.testing.assert_array_equal(centers.reshape(20, 10, 2)[0, :, 1], dom.midpoints[1])

    def test_bounds_must_be_ordered(self):
        with pytest.raises(ValueError):
            Domain.interval(1.0, 0.0)

    def test_bounds_must_be_numbers(self):
        # float() reads "1" and True as numbers
        for lo, hi in (("0", 1.0), (False, True), (0.0, np.array(["1"]))):
            with pytest.raises(ValueError, match="numeric"):
                Domain.interval(lo, hi, 11)
        with pytest.raises(ValueError, match="numeric"):
            Domain.rectangle((0.0, 1.0), (0.0, "2"), 5)

    def test_rectangle_scalar_resolution(self):
        # any scalar is the node count of both axes; a fraction is still no count
        dom = Domain.rectangle((0.0, 1.0), (0.0, 2.0), np.int64(11))
        assert dom.resolution == (11, 11)
        with pytest.raises(TypeError):
            Domain.rectangle((0.0, 1.0), (0.0, 2.0), 2.5)

    def test_resolution_minimum(self):
        with pytest.raises(ValueError):
            Domain.interval(0.0, 1.0, 1)
        # counts only; 2.9 nodes is not rounded down to 2
        with pytest.raises(TypeError):
            Domain.interval(0.0, 1.0, 2.9)

    def test_size_cap(self):
        # the cap is checked before any grid is allocated
        for resolution in ((10**12,), (1025, 1025)):
            with pytest.raises(ValueError, match=str(MAX_SIMPSON_POINTS)):
                Domain(((0.0, 1.0),) * len(resolution), resolution)
        # the largest grids in use stay inside it
        Domain.interval(0.0, 1.0, 200_001)
        Domain.rectangle((0.0, 1.0), (0.0, 1.0), 401)

    def test_contains(self):
        dom = Domain.interval(0.0, 1.0, 11)
        assert dom.contains(np.array([0.0, 0.5, 1.0])).all()
        assert not dom.contains(np.array([1.5])).any()
        rect = Domain.rectangle((0.0, 1.0), (0.0, 1.0), (11, 11))
        assert rect.contains(np.array([[0.5, 0.5]])).all()
        # 2D points need a trailing axis of exactly 2
        for wrong in (np.full((4, 3), 9.0), np.full((4, 1), 0.5), 0.5):
            with pytest.raises(ValueError):
                rect.contains(wrong)

    def test_default_domain_normal_is_eight_sigma(self):
        dom = default_domain(FunctionSpec("normal", {"mu": 1.0, "sigma": 2.0}), 101)
        assert dom.bounds[0] == pytest.approx((-15.0, 17.0))


class TestEval:
    def test_uniform_value(self):
        d = uniform_field()
        assert d.eval(0.3) == pytest.approx(1.0, rel=1e-12)

    def test_normal_peak(self):
        d = normal_field()
        assert d.eval(0.0) == pytest.approx(NORMAL_PDF_AT_0, abs=1e-12)

    def test_outside_domain_rejected(self):
        d = DensityField.from_spec(
            FunctionSpec("truncated_normal", {"mu": 0.0, "sigma": 1.0, "a": -1.0, "b": 1.0}),
            1.0,
            Domain.interval(-1.0, 1.0, 1001),
        )
        for p in (-1.5, 1.5):
            with pytest.raises(ValueError):
                d.eval(p)

    def test_scalar_shape_preserved(self):
        d = uniform_field()
        assert np.isscalar(float(d.eval(0.5)))
        assert d.eval(np.array([0.1, 0.9])).shape == (2,)

    def test_grid_kind_interpolates(self):
        dom = Domain.interval(0.0, 1.0, 5)
        x = dom.axis(0)
        d = DensityField.from_values(dom, 2.0 * x, 1.0)
        # normalized slope-2 ramp stays a ramp; midpoint of a segment matches
        assert d.eval(0.125) == pytest.approx(0.5 * (d.values[0] + d.values[1]), rel=1e-12)

    def test_truncated_normal_is_zero_beyond_its_bounds(self):
        # on a domain wider than [a, b] the tails are empty, not those of `normal`
        # (which puts 0.142 of its mass in [1, 2] here)
        spec = FunctionSpec("truncated_normal", {"mu": 0.0, "sigma": 1.0, "a": -1.0, "b": 1.0})
        d = DensityField.from_spec(spec, 1.0, Domain.interval(-2.0, 2.0, 401))
        x = d.domain.axis(0)
        assert np.all(d.values[np.abs(x) > 1.0 + 1e-9] == 0.0)
        assert np.all(d.eval(np.array([-2.0, -1.5, 1.01, 2.0])) == 0.0)
        # what is left in [1, 2] is the edge cell's Simpson weight on f(1)
        h = d.domain.spacings[0]
        assert d.integrate((1.0, 2.0)) == pytest.approx(h / 6.0 * float(d.eval(1.0)), rel=1e-9)
        assert d.integrate((1.0, 2.0)) == pytest.approx(5.9e-4, rel=0.01)
        # per axis in 2D
        spec = FunctionSpec("truncated_normal", {"mu": 0.0, "sigma": 1.0, "a": [-1.0, 0.0], "b": [1.0, 0.5]})
        d2 = DensityField.from_spec(spec, 1.0, Domain.rectangle((-2.0, 2.0), (-1.0, 1.0), (41, 41)))
        X, Y = np.meshgrid(d2.domain.axis(0), d2.domain.axis(1), indexing="ij")
        inside = (np.abs(X) <= 1.0 + 1e-9) & (Y >= -1e-9) & (Y <= 0.5 + 1e-9)
        assert np.all(d2.values[~inside] == 0.0) and np.all(d2.values[inside] > 0.0)

    def test_2d_normal_peak(self):
        d = DensityField.from_spec(
            FunctionSpec("normal", {"mu": (0.0, 0.0), "sigma": (1.0, 1.0)}),
            1.0,
            Domain.rectangle((-8.0, 8.0), (-8.0, 8.0), (201, 201)),
        )
        assert d.eval((0.0, 0.0)) == pytest.approx(NORMAL_PDF_AT_0**2, rel=1e-9)


class TestIntegrate:
    def test_uniform_half(self):
        d = uniform_field()
        assert d.integrate((0.0, 0.5)) == pytest.approx(0.5, abs=1e-12)

    def test_normal_one_sigma(self):
        d = normal_field()
        assert d.integrate((-1.0, 1.0)) == pytest.approx(NORMAL_MASS_1SIGMA, abs=1e-9)

    def test_full_domain_is_one(self):
        for d in (uniform_field(), normal_field()):
            assert d.integrate() == pytest.approx(1.0, abs=1e-12)

    def test_region_outside_rejected(self):
        with pytest.raises(ValueError):
            uniform_field().integrate((0.5, 1.5))
        # a region of the wrong rank for the field
        with pytest.raises(ValueError):
            uniform_field().integrate(((0.0, 0.5), (0.0, 0.5)))
        square = DensityField.from_spec(
            FunctionSpec("uniform", {}), 1.0, Domain.rectangle((0.0, 1.0), (0.0, 1.0), (11, 11))
        )
        with pytest.raises(ValueError):
            square.integrate((0.0, 0.5))
        # float() reads "0" and True as numbers, and NaN passes `lo > hi`
        for region in (("0", 0.5), (False, 0.5), (0.0, np.nan), (np.nan, 0.5)):
            with pytest.raises(ValueError, match="region bounds"):
                uniform_field().integrate(region)

    def test_additive_over_disjoint_regions(self):
        d = normal_field()
        parts = [(-8.0, -1.0), (-1.0, 0.3), (0.3, 8.0)]
        total = sum(d.integrate(p) for p in parts)
        assert total == pytest.approx(1.0, abs=2e-9)

    def test_partial_cells(self):
        # region edges that do not align with the grid still integrate exactly
        d = uniform_field(101)
        assert d.integrate((0.123, 0.777)) == pytest.approx(0.654, abs=1e-12)

    def test_2d_quarter(self):
        d = DensityField.from_spec(
            FunctionSpec("uniform", {}),
            1.0,
            Domain.rectangle((0.0, 1.0), (0.0, 1.0), (51, 51)),
        )
        region = ((0.0, 0.5), (0.0, 0.5))
        assert d.integrate(region) == pytest.approx(0.25, abs=1e-12)

    def test_2d_partial_cells_match_erf_product(self):
        # both axes cut cells; the "normal" kind is renormalized over the domain
        d = DensityField.from_spec(
            FunctionSpec("normal", {"mu": 0.0, "sigma": 1.0}),
            1.0,
            Domain.rectangle((-4.0, 4.0), (-4.0, 4.0), 401),
        )
        region = ((-0.37, 0.81), (-1.2, 0.45))
        phi = lambda z: 0.5 * (1.0 + erf(z / np.sqrt(2.0)))
        expected = np.prod([(phi(hi) - phi(lo)) / (phi(4.0) - phi(-4.0)) for lo, hi in region])
        assert d.integrate(region) == pytest.approx(expected, abs=1e-9)

    def test_expected_terminals(self):
        assert expected_terminals(uniform_field(), (0.0, 0.25), 100.0) == pytest.approx(25.0)
        assert expected_terminals(uniform_field(), (0.0, 0.25), 0.0) == 0.0
        est = expected_terminals(normal_field(), (-1.0, 1.0), 1000.0)
        assert est == pytest.approx(682.6894921370859, abs=1e-3)

    def test_negative_total_rejected(self):
        for total in (-1.0, np.nan, np.inf, True, "10"):
            with pytest.raises(ValueError, match="total terminal count"):
                expected_terminals(uniform_field(), None, total)


class TestField:
    def test_negative_values_rejected(self):
        # 5 nodes have 9 Simpson points, so only the values can be at fault
        dom = Domain.interval(0.0, 1.0, 5)
        with pytest.raises(ValueError):
            DensityField(dom, np.array([1.0, -0.5] + [1.0] * 7), 1.0)
        # NaN passes a `< 0` test and an infinite mass scales to NaN
        for bad in (np.nan, np.inf):
            for values in ([1.0, bad, 1.0, 1.0, 1.0], [bad] * 5):
                with pytest.raises(ValueError):
                    DensityField(dom, np.array(values + [1.0] * 4), 1.0)
                with pytest.raises(ValueError):
                    DensityField.from_values(dom, np.array(values))

    def test_throughput_positive(self):
        with pytest.raises(ValueError):
            DensityField.from_spec(FunctionSpec("uniform", {}), 0.0, Domain.interval(0, 1, 11))
        # True was read as 1.0, "2" as 2.0, and an infinite throughput was kept
        for throughput in (True, "2", np.inf, np.nan):
            with pytest.raises(ValueError, match="throughput"):
                DensityField.from_spec(FunctionSpec("uniform", {}), throughput, Domain.interval(0, 1, 11))

    def test_constructor_normalizes_samples(self):
        dom = Domain.rectangle((0.0, 1.0), (0.0, 2.0), (5, 4))
        samples = np.random.default_rng(7).uniform(0.1, 2.0, (9, 7))
        d, scaled = DensityField(dom, samples, 1.0), DensityField(dom, 3.0 * samples, 1.0)
        assert d.integrate() == pytest.approx(1.0, abs=1e-14)
        np.testing.assert_allclose(scaled.values, d.values, rtol=1e-15, atol=0)
        np.testing.assert_allclose(scaled.cell_masses(), d.cell_masses(), rtol=1e-15, atol=0)
        np.testing.assert_array_equal(d.values, d._stencil[::2, ::2])

    @pytest.mark.parametrize(
        "domain", [Domain.interval(0.0, 1.0, 11), Domain.rectangle((0.0, 1.0), (0.0, 2.0), (5, 4))]
    )
    def test_node_values_are_a_view_of_the_samples(self, domain):
        # the node values are every other Simpson sample, kept once
        d = DensityField.from_spec(FunctionSpec("uniform", {}), 1.0, domain)
        assert not d.values.flags.owndata
        assert np.shares_memory(d.values, d._stencil)
        with pytest.raises(ValueError, match="read-only"):
            d.values[0] = 1.0

    def test_cell_masses_are_computed_on_first_read(self):
        # a station measure of the fixed-point scheme never reads them
        d = normal_field()
        assert "_cell_mass" not in vars(d)
        masses = d.cell_masses()
        assert d.cell_masses() is masses
        np.testing.assert_array_equal(masses, _simpson(d._stencil, d.domain.spacings))

    def test_wrongly_shaped_samples_rejected(self):
        # node values in place of Simpson-point samples would integrate
        # only part of the grid
        dom = Domain.interval(0.0, 1.0, 5)
        for shape in (5, 10, (9, 1)):
            with pytest.raises(ValueError, match="Simpson-point shape"):
                DensityField(dom, np.ones(shape), 1.0)

    def test_normalization_any_resolution(self):
        for res in (51, 1000, 2001):
            d = DensityField.from_spec(
                FunctionSpec("normal", {"mu": 0.3, "sigma": 0.7}),
                1.0,
                Domain.interval(-4.0, 4.0, res),
            )
            assert d.integrate() == pytest.approx(1.0, abs=1e-12)

    def test_centroid_and_spread(self):
        d = uniform_field()
        assert d.centroid()[0] == pytest.approx(0.5, abs=1e-12)
        assert d.spread() == pytest.approx(1.0 / np.sqrt(12.0), abs=1e-9)

    def test_triangular_centroid(self):
        d = DensityField.from_spec(
            FunctionSpec("triangular", {"a": 0.0, "c": 0.7, "b": 1.0}),
            1.0,
            Domain.interval(0.0, 1.0, 2001),
        )
        assert d.centroid()[0] == pytest.approx(17.0 / 30.0, abs=1e-9)

    def test_triangular_peak_at_an_end(self):
        # with c == a the density 2 (1 - x) peaks at x = 0, a grid node;
        # it is linear, so Simpson's rule integrates x f(x) = 1/3 exactly
        d = DensityField.from_spec(
            FunctionSpec("triangular", {"a": 0.0, "c": 0.0, "b": 1.0}),
            1.0,
            Domain.interval(0.0, 1.0, 2001),
        )
        assert d.values[0] == pytest.approx(2.0, rel=1e-12)
        assert d.centroid()[0] == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_quantiles(self):
        d = uniform_field()
        q = d.quantiles([0.25, 0.5, 0.75])
        assert q == pytest.approx([0.25, 0.5, 0.75], abs=1e-9)

    def test_quantiles_read_the_cell_masses(self):
        # the cumulative Simpson mass up to a node maps back to that node
        d = DensityField.from_spec(
            FunctionSpec("normal", {"mu": 0.0, "sigma": 1.0}), 1.0, Domain.interval(-4.0, 4.0, 41)
        )
        got = d.quantiles(np.cumsum(d.cell_masses())[:-1])
        np.testing.assert_allclose(got, d.domain.axis(0)[1:-1], rtol=0, atol=1e-11)


class TestTensorRule:
    """The 2D rule is the 1D Simpson rule applied along each axis."""

    def fields(self):
        rng = np.random.default_rng(3)
        a, b = rng.uniform(0.1, 2.0, 31), rng.uniform(0.1, 2.0, 23)
        dx, dy = Domain.interval(0.0, 1.0, 31), Domain.interval(-1.0, 2.0, 23)
        dom = Domain(dx.bounds + dy.bounds, (31, 23))
        fx, fy = DensityField.from_values(dx, a), DensityField.from_values(dy, b)
        return DensityField.from_values(dom, np.outer(a, b)), fx, fy

    def test_separable_data_gives_outer_products(self):
        d, fx, fy = self.fields()
        mx, my = fx.cell_masses(), fy.cell_masses()
        (x1,), (y1,) = fx.cell_first_moments(), fy.cell_first_moments()
        np.testing.assert_allclose(d.cell_masses(), np.outer(mx, my), rtol=1e-14, atol=0)
        first = d.cell_first_moments()
        np.testing.assert_allclose(first[0], np.outer(x1, my), rtol=1e-14, atol=0)
        np.testing.assert_allclose(first[1], np.outer(mx, y1), rtol=1e-14, atol=0)

    def test_cell_arrays_are_c_contiguous(self):
        d, fx, _ = self.fields()
        for f in (d, fx):
            arrays = [f.cell_masses(), *f.cell_first_moments(), f.cell_second_moments()]
            assert all(arr.flags.c_contiguous for arr in arrays)


class TestFoldDemand:
    def test_constant_demand_factors_out(self):
        dom = Domain.interval(0.0, 1.0, 501)
        demand = DemandField(
            dom,
            FunctionSpec("uniform", {}),
            FunctionSpec("constant", {"value": 5.0}),
        )
        d = fold_demand(demand)
        assert d.throughput == pytest.approx(5.0, rel=1e-12)
        base = DensityField.from_spec(FunctionSpec("uniform", {}), 1.0, dom)
        np.testing.assert_array_equal(d.values, base.values)
        assert d.analytic is not None

    def test_linear_demand(self):
        dom = Domain.interval(0.0, 1.0, 501)
        demand = DemandField(
            dom,
            FunctionSpec("uniform", {}),
            FunctionSpec("affine", {"slope": 2.0, "intercept": 0.0}),
        )
        d = fold_demand(demand)
        # theta = integral of 2x over [0,1] = 1; folded density is 2x
        assert d.throughput == pytest.approx(1.0, rel=1e-12)
        np.testing.assert_allclose(d.values, 2.0 * dom.axis(0), atol=1e-12)

    def test_pointwise_product_identity(self):
        rng = np.random.default_rng(42)
        for _ in range(5):
            mu = rng.uniform(-0.3, 0.3)
            dom = Domain.interval(-1.0, 1.0, 401)
            f_spec = FunctionSpec("truncated_normal", {"mu": mu, "sigma": 0.8, "a": -1.0, "b": 1.0})
            t_spec = FunctionSpec("affine", {"slope": rng.uniform(-0.5, 0.5), "intercept": 2.0})
            d = fold_demand(DemandField(dom, f_spec, t_spec))
            base = DensityField.from_spec(f_spec, 1.0, dom)
            t_vals = spec_values(t_spec, dom, dom.axis(0))
            np.testing.assert_allclose(
                d.values * d.throughput, base.values * t_vals, atol=1e-12
            )
            assert d.integrate() == pytest.approx(1.0, abs=1e-9)

    def test_demand_scales_linearly(self):
        dom = Domain.interval(0.0, 1.0, 301)
        f_spec = FunctionSpec("triangular", {"a": 0.0, "c": 0.4, "b": 1.0})
        base = fold_demand(DemandField(dom, f_spec, FunctionSpec("constant", {"value": 1.5})))
        scaled = fold_demand(DemandField(dom, f_spec, FunctionSpec("constant", {"value": 4.5})))
        assert scaled.throughput == pytest.approx(3.0 * base.throughput, rel=1e-12)
        np.testing.assert_array_equal(scaled.values, base.values)

    def test_zero_demand_rejected(self):
        dom = Domain.interval(0.0, 1.0, 101)
        with pytest.raises(ValueError):
            fold_demand(
                DemandField(dom, FunctionSpec("uniform", {}), FunctionSpec("constant", {"value": 0.0}))
            )

    def test_negative_demand_rejected(self):
        dom = Domain.interval(0.0, 1.0, 101)
        with pytest.raises(ValueError):
            fold_demand(
                DemandField(
                    dom,
                    FunctionSpec("uniform", {}),
                    FunctionSpec("affine", {"slope": -4.0, "intercept": 1.0}),
                )
            )

    def test_params_must_be_numbers(self):
        # float() and numpy read strings and booleans as numbers
        for sigma in ("1", True, ["1", 1.0], np.array([True, False])):
            with pytest.raises(ValueError, match="numeric"):
                FunctionSpec("normal", {"mu": 0.0, "sigma": sigma})

    def test_kind_validation(self):
        dom = Domain.interval(0.0, 1.0, 101)
        with pytest.raises(ValueError):
            DemandField(dom, FunctionSpec("constant", {"value": 1.0}), FunctionSpec("uniform", {}))

    def test_2d_fold(self):
        dom = Domain.rectangle((0.0, 1.0), (0.0, 1.0), (51, 51))
        d = fold_demand(
            DemandField(
                dom,
                FunctionSpec("uniform", {}),
                FunctionSpec("affine", {"slope": (1.0, 1.0), "intercept": 1.0}),
            )
        )
        assert d.throughput == pytest.approx(2.0, rel=1e-9)
        assert d.integrate() == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("resolution", [(41,), (21, 17)])
    def test_folded_field_is_read_from_its_own_samples(self, resolution):
        # between nodes the product of density and demand is not the node
        # interpolant, so eval, region integrals and terminal counts must
        # read the Simpson samples the quadrature integrates
        dom = Domain(((-1.0, 1.0),) * len(resolution), resolution)
        d = fold_demand(
            DemandField(
                dom,
                FunctionSpec("normal", {"mu": 0.1, "sigma": 0.4}),
                FunctionSpec("affine", {"slope": 1.0, "intercept": 3.0}),
            )
        )
        assert d.analytic is None
        assert d.integrate(dom.bounds) == pytest.approx(d.integrate(), abs=1e-14)
        assert expected_terminals(d, dom.bounds, 1000) == pytest.approx(1000.0, rel=1e-14)
        np.testing.assert_array_equal(d.eval(_simpson_points(dom.axes)), d._stencil)


# every owner of a positive finite number, and what it keeps of one
POSITIVE_OWNERS = {
    "RadioParams.noise_power": lambda v: RadioParams(v, 1.0).noise_power,
    "RadioParams.throughput": lambda v: RadioParams(1.0, v).throughput,
    "DensityField.throughput": lambda v: DensityField.from_spec(
        FunctionSpec("uniform", {}), v, Domain.interval(0.0, 1.0, 11)
    ).throughput,
    "dilation_factor": dilation_factor,
    "Measure1D.from_density": lambda v: Measure1D.from_density(uniform_field(11), v).total_mass,
    "pushforward": lambda v: pushforward(uniform_field(11), AffineMap(1.0), v).total_mass,
    "OptimizerConfig.position_tolerance": lambda v: OptimizerConfig(position_tolerance=v).position_tolerance,
}


@pytest.mark.parametrize("owner", POSITIVE_OWNERS.values(), ids=POSITIVE_OWNERS)
def test_one_rule_for_a_positive_number(owner):
    # an int beyond float range, None and a list are rejected like NaN, not
    # accepted, overflowed or raised as TypeError
    for bad in (10**400, None, [1.0], "1", True, math.nan, math.inf, 0, -1):
        with pytest.raises(ValueError, match="positive finite number"):
            owner(bad)
    # what is kept is a float, as the float of the input would give
    for good in (2, np.float32(0.5)):
        kept = owner(good)
        assert type(kept) is float and kept == owner(float(good))
