import numpy as np
import pytest
from scipy.special import erf

from backhaulopt.density import (
    DemandField,
    DensityField,
    Domain,
    FunctionSpec,
    default_domain,
    expected_terminals,
    fold_demand,
    spec_values,
)

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

    def test_bounds_must_be_ordered(self):
        with pytest.raises(ValueError):
            Domain.interval(1.0, 0.0)

    def test_resolution_minimum(self):
        with pytest.raises(ValueError):
            Domain.interval(0.0, 1.0, 1)

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
        with pytest.raises(ValueError):
            expected_terminals(uniform_field(), None, -1.0)


class TestField:
    def test_negative_values_rejected(self):
        dom = Domain.interval(0.0, 1.0, 5)
        with pytest.raises(ValueError):
            DensityField(dom, np.array([1.0, -0.5, 1.0, 1.0, 1.0]), 1.0)
        # NaN passes a `< 0` test and an infinite mass scales to NaN
        for bad in (np.nan, np.inf):
            for values in ([1.0, bad, 1.0, 1.0, 1.0], [bad] * 5):
                with pytest.raises(ValueError):
                    DensityField(dom, np.array(values), 1.0)
                with pytest.raises(ValueError):
                    DensityField.from_values(dom, np.array(values))

    def test_throughput_positive(self):
        with pytest.raises(ValueError):
            DensityField.from_spec(FunctionSpec("uniform", {}), 0.0, Domain.interval(0, 1, 11))

    def test_unnormalized_direct_construction_rejected(self):
        dom = Domain.interval(0.0, 1.0, 11)
        with pytest.raises(ValueError):
            DensityField(dom, np.full(11, 3.0), 1.0)

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

    def test_quantiles(self):
        d = uniform_field()
        q = d.quantiles([0.25, 0.5, 0.75])
        assert q == pytest.approx([0.25, 0.5, 0.75], abs=1e-9)


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
