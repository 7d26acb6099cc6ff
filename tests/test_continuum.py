import math

import numpy as np
import pytest

from backhaulopt.continuum import (
    AffineMap,
    GridCollapseError,
    Measure1D,
    SampledMap,
    dilation_factor,
    fixed_point_step,
    iterate_fixed_point,
    optimal_station_density,
    pushforward,
    quantile_placements,
    sup_distance,
)
from backhaulopt.density import DensityField, Domain, FunctionSpec
from backhaulopt.power_model import RadioParams

LOG2_5 = math.log2(5.0)
SQRT_2PI = 2.5066282746310002


def potential_gradient(throughput, x):
    """Derivative of the transport potential of the optimal map, which is
    x - gradient: -4 x / (2^theta - 1)."""
    return -4.0 * np.asarray(x, dtype=float) / (2.0**throughput - 1.0)


def interaction_gradient(nu, x):
    """Gradient of the quadratic interaction potential of a measure: for the
    kernel |x - y|^2 it is 2 * mass * (x - barycenter)."""
    return 2.0 * nu.total_mass * (np.asarray(x, dtype=float) - nu.barycenter)


def normal_pdf(y, sigma=1.0):
    y = np.asarray(y, dtype=float)
    return np.exp(-0.5 * (y / sigma) ** 2) / (sigma * SQRT_2PI)


def standard_normal_field():
    return DensityField.from_spec(FunctionSpec("normal", {"mu": 0.0, "sigma": 1.0}), 1.0)


class TestDilationFactor:
    def test_unit_throughput(self):
        assert dilation_factor(1.0) == 5.0

    def test_log2_5_gives_two(self):
        assert dilation_factor(LOG2_5) == pytest.approx(2.0, rel=1e-12)

    def test_two(self):
        assert dilation_factor(2.0) == pytest.approx(7.0 / 3.0, rel=1e-12)

    def test_large_throughput_tail(self):
        assert dilation_factor(24.0) - 1.0 == pytest.approx(2.384185933124172e-07, rel=1e-9)

    def test_monotone_decreasing_to_one(self):
        thetas = np.linspace(0.1, 30.0, 50)
        vals = [dilation_factor(t) for t in thetas]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert all(v > 1.0 for v in vals)

    def test_limit_where_the_power_overflows(self):
        # math.pow(2, t) overflows from t = 1024; the factor is 1.0 long before
        assert dilation_factor(1e4) == 1.0
        assert dilation_factor(1024.0) == 1.0
        assert dilation_factor(1023.5) == 1.0 + 4.0 / (math.pow(2.0, 1023.5) - 1.0)

    def test_rejects_nonpositive(self):
        for t in (0.0, -1.0):
            with pytest.raises(ValueError):
                dilation_factor(t)

    def test_rejects_non_numbers_and_non_finite(self):
        # True read as 1 gave 5.0, and an infinite throughput gave 1.0
        for t in (True, "1", math.inf, math.nan):
            with pytest.raises(ValueError, match="positive finite number"):
                dilation_factor(t)


class TestPotentialGradient:
    def test_values(self):
        # x - T(x) for the optimal map T(x) = dilation_factor * x
        for theta, x, grad in ((1.0, 1.0, -4.0), (1.0, 0.0, 0.0), (2.0, 3.0, -4.0)):
            assert x - dilation_factor(theta) * x == pytest.approx(grad)
            assert potential_gradient(theta, x) == pytest.approx(grad)

    def test_map_is_dilation(self):
        # x - gradient must equal dilation_factor * x
        rng = np.random.default_rng(0)
        for theta in (0.5, 1.0, 3.7):
            x = rng.uniform(-5.0, 5.0, size=20)
            lhs = x - potential_gradient(theta, x)
            np.testing.assert_allclose(lhs, dilation_factor(theta) * x, rtol=1e-12)

    def test_rejects_nonpositive(self):
        # the potential divides by 2^theta - 1; the model refuses theta <= 0
        for t in (0.0, -1.0):
            with pytest.raises(ValueError):
                RadioParams(1.0, t)


class TestAffineMap:
    def test_roundtrip(self):
        T = AffineMap(2.0, 1.0)
        x = np.array([-1.0, 0.0, 2.5])
        y = T(x)
        xq, slope = T.invert_with_slope(y)
        np.testing.assert_allclose(xq, x, atol=1e-15)
        np.testing.assert_array_equal(slope, np.full(3, 2.0))

    def test_slope_must_be_positive(self):
        with pytest.raises(ValueError):
            AffineMap(0.0)
        with pytest.raises(ValueError):
            AffineMap(-2.0)


class TestSampledMap:
    def test_matches_samples(self):
        x = np.linspace(-1.0, 1.0, 201)
        T = SampledMap(x, 3.0 * x + 1.0)
        np.testing.assert_allclose(T(x), 3.0 * x + 1.0, atol=1e-15)

    def test_affine_samples_invert_exactly(self):
        x = np.linspace(-1.0, 1.0, 201)
        T = SampledMap(x, 3.0 * x + 1.0)
        y = np.array([-1.7, 0.0, 3.2])
        xq, slope = T.invert_with_slope(y)
        np.testing.assert_allclose(xq, (y - 1.0) / 3.0, atol=1e-14)
        np.testing.assert_allclose(slope, 3.0, rtol=1e-14)

    def test_smooth_map_roundtrip(self):
        x = np.linspace(-8.0, 8.0, 4001)
        T = SampledMap(x, x + 0.3 * np.tanh(x))
        probe = np.linspace(-7.5, 7.5, 97)
        y = probe + 0.3 * np.tanh(probe)
        xq, slope = T.invert_with_slope(y)
        np.testing.assert_allclose(xq, probe, atol=1e-5)
        np.testing.assert_allclose(slope, 1.0 + 0.3 / np.cosh(probe) ** 2, atol=1e-5)

    def test_monotonicity_enforced(self):
        x = np.linspace(0.0, 1.0, 11)
        with pytest.raises(ValueError):
            SampledMap(x, np.sin(4.0 * np.pi * x))
        with pytest.raises(ValueError):
            SampledMap(x[::-1], x)
        with pytest.raises(ValueError):
            SampledMap(x, x[:-1])


class TestMeasure1D:
    def test_mass_and_barycenter(self):
        grid = np.linspace(0.0, 1.0, 501)
        nu = Measure1D(grid, np.ones_like(grid))
        assert nu.total_mass == pytest.approx(1.0, abs=1e-12)
        assert nu.barycenter == pytest.approx(0.5, abs=1e-12)

    def test_from_values_rescales(self):
        grid = np.linspace(0.0, 1.0, 501)
        nu = Measure1D.from_values(grid, np.full(501, 7.0), mass=3.0)
        assert nu.total_mass == pytest.approx(3.0, rel=1e-12)

    def test_spread_uniform(self):
        grid = np.linspace(0.0, 1.0, 2001)
        nu = Measure1D(grid, np.ones_like(grid))
        assert nu.spread() == pytest.approx(1.0 / math.sqrt(12.0), abs=1e-9)

    def test_normalized(self):
        grid = np.linspace(-1.0, 1.0, 301)
        nu = Measure1D.from_values(grid, 1.0 + grid**2, mass=4.0)
        assert nu.normalized().total_mass == pytest.approx(1.0, rel=1e-12)

    def test_quantiles_uniform(self):
        grid = np.linspace(0.0, 1.0, 2001)
        nu = Measure1D(grid, np.ones_like(grid))
        np.testing.assert_allclose(nu.quantiles([0.25, 0.5, 0.75]), [0.25, 0.5, 0.75], atol=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            Measure1D(np.array([0.0, 1.0]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            Measure1D(np.array([0.0, 0.5, 0.4]), np.ones(3))
        with pytest.raises(ValueError):
            Measure1D(np.linspace(0, 1, 5), np.array([1.0, -0.5, 1.0, 1.0, 1.0]))
        with pytest.raises(ValueError):
            Measure1D(np.linspace(0, 1, 5), np.zeros(5))
        with pytest.raises(ValueError, match="evenly spaced"):
            Measure1D(np.array([0.0, 0.5, 2.0]), np.ones(3))
        # True was read as 1.0, and "1" raised TypeError
        for mass in (0.0, -1.0, math.inf, math.nan, True, "1"):
            with pytest.raises(ValueError, match="mass"):
                Measure1D.from_values(np.linspace(0, 1, 5), np.ones(5), mass=mass)
            with pytest.raises(ValueError, match="mass"):
                Measure1D.from_density(standard_normal_field(), mass)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_samples_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            Measure1D(np.linspace(0, 1, 5), np.array([1.0, 1.0, bad, 1.0, 1.0]))

    def test_overflowing_mass_rejected(self):
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
            Measure1D(np.linspace(0, 1, 5), np.full(5, 1e308))

    def test_node_values_integrate_as_their_linear_interpolant(self):
        # linear midpoints turn each Simpson panel into the trapezoid, and the
        # barycenter into the exact first moment of the interpolant
        grid = np.array([0.0, 1.0, 2.0])
        nu = Measure1D(grid, np.array([1.0, 3.0, 0.0]))
        np.testing.assert_allclose(nu.values, [1.0, 3.0, 0.0], rtol=1e-15, atol=0)
        assert nu.total_mass == pytest.approx(1.0 * 2.0 + 1.0 * 1.5, rel=1e-15)
        first = (1.0 / 6.0) * (4.0 * 0.5 * 2.0 + 3.0) + (1.0 / 6.0) * (3.0 + 4.0 * 1.5 * 1.5)
        assert nu.barycenter == pytest.approx(first / nu.total_mass, rel=1e-15)

    def test_from_density_carries_the_density_samples(self):
        # a triangular kink between nodes: node samples alone miss mass by 3e-6
        f = DensityField.from_spec(
            FunctionSpec("triangular", {"a": 0.0, "c": 0.3, "b": 1.0}), 1.0, Domain.interval(0.0, 1.0, 400)
        )
        nu = Measure1D.from_density(f, 2.5)
        assert nu.density is f
        np.testing.assert_array_equal(nu.values, 2.5 * f.values)
        assert nu.total_mass == pytest.approx(2.5, rel=1e-15)
        assert nu.barycenter == pytest.approx(float(f.centroid()[0]), rel=1e-15)
        assert nu.spread() == pytest.approx(f.spread(), rel=1e-12)

    def test_tiny_negative_values_clamped(self):
        # one nonnegativity rule: the density clamps rounding-level negatives
        grid = np.linspace(0.0, 1.0, 5)
        values = np.array([1.0, -1e-13, 1.0, 1.0, 1.0])
        d = DensityField.from_values(Domain.interval(0.0, 1.0, 5), values)
        assert d.values.min() == 0.0
        assert Measure1D.from_density(d, 1.0).values.min() == 0.0
        assert Measure1D(grid, values).values.min() == 0.0


class TestSupDistance:
    def test_identical_measures(self):
        grid = np.linspace(0.0, 1.0, 101)
        nu = Measure1D(grid, 1.0 + grid)
        assert sup_distance(nu, nu) == 0.0

    def test_overlapping_hats(self):
        a = Measure1D(np.array([0.0, 0.5, 1.0]), np.array([0.0, 2.0, 0.0]))
        b = Measure1D(np.array([0.25, 0.75, 1.25]), np.array([0.0, 2.0, 0.0]))
        # difference is piecewise linear; its extrema sit on union nodes
        assert sup_distance(a, b) == 1.0

    def test_disjoint_supports(self):
        a = Measure1D(np.array([0.0, 0.5, 1.0]), np.array([0.0, 2.0, 0.0]))
        b = Measure1D(np.array([10.0, 10.5, 11.0]), np.array([0.0, 3.0, 0.0]))
        assert sup_distance(a, b) == 3.0

    def test_symmetric(self):
        a = Measure1D(np.linspace(0, 1, 11), np.linspace(1, 2, 11))
        b = Measure1D(np.linspace(0.3, 1.7, 15), np.full(15, 1.2))
        assert sup_distance(a, b) == sup_distance(b, a)


class TestPushforward:
    def test_identity_map(self):
        f = standard_normal_field()
        nu = pushforward(f, AffineMap(1.0), 1.0)
        np.testing.assert_allclose(nu.values, f.values, atol=1e-15)
        np.testing.assert_allclose(nu.grid, f.domain.axis(0), atol=1e-15)

    def test_doubling_map_value_at_origin(self):
        f = standard_normal_field()
        nu = pushforward(f, AffineMap(2.0), 1.0)
        v0 = np.interp(0.0, nu.grid, nu.values)
        assert v0 == pytest.approx(0.19947114020071635, abs=1e-12)

    def test_doubling_map_is_wider_normal(self):
        f = standard_normal_field()
        nu = pushforward(f, AffineMap(2.0), 1.0)
        np.testing.assert_allclose(nu.values, normal_pdf(nu.grid, sigma=2.0), atol=1e-12)

    def test_mass_conserved_affine(self):
        f = standard_normal_field()
        for mass in (1.0, 2.5):
            nu = pushforward(f, AffineMap(3.0, -0.7), mass)
            assert nu.total_mass == pytest.approx(mass, abs=1e-9)

    def test_mass_conserved_sampled(self):
        f = standard_normal_field()
        x = np.linspace(-8.0, 8.0, 4001)
        T = SampledMap(x, x + 0.3 * np.tanh(x))
        nu = pushforward(f, T, 2.0)
        assert abs(nu.total_mass - 2.0) <= 1e-6

    def test_mass_must_be_positive(self):
        for mass in (0.0, math.inf, math.nan, True, "1"):
            with pytest.raises(ValueError, match="mass"):
                pushforward(standard_normal_field(), AffineMap(2.0), mass)

    def test_far_image_grid_collapses(self):
        # spacing 16 / 2000 is below one ulp at 1e16, so an evenly
        # spaced image grid cannot be strictly increasing there
        with pytest.raises(GridCollapseError):
            pushforward(standard_normal_field(), AffineMap(1.0, 1e16), 1.0)
        # so can an image shrunk to one float: T(-8) and T(8) round to 1.0
        with pytest.raises(GridCollapseError):
            pushforward(standard_normal_field(), AffineMap(1e-300, 1.0), 1.0)

    def test_rejects_2d(self):
        f = DensityField.from_spec(
            FunctionSpec("uniform", {}),
            1.0,
            Domain.rectangle((0.0, 1.0), (0.0, 1.0), (11, 11)),
        )
        with pytest.raises(ValueError):
            pushforward(f, AffineMap(2.0), 1.0)


class TestInteractionGradient:
    def test_centered_uniform(self):
        grid = np.linspace(0.0, 1.0, 501)
        nu = Measure1D(grid, np.ones_like(grid))
        assert interaction_gradient(nu, 0.5) == pytest.approx(0.0, abs=1e-12)
        assert interaction_gradient(nu, 1.5) == pytest.approx(2.0, abs=1e-11)

    def test_scales_with_mass(self):
        grid = np.linspace(0.0, 1.0, 501)
        nu = Measure1D.from_values(grid, np.ones_like(grid), mass=3.0)
        assert interaction_gradient(nu, 1.5) == pytest.approx(6.0, rel=1e-9)

    def test_vectorized(self):
        grid = np.linspace(-1.0, 1.0, 501)
        nu = Measure1D(grid, np.ones_like(grid))  # mass 2, barycenter 0
        x = np.array([-1.0, 0.0, 2.0])
        np.testing.assert_allclose(interaction_gradient(nu, x), 4.0 * x, atol=1e-11)


class TestFixedPointStep:
    def test_any_centered_start_gives_the_dilation(self):
        f = standard_normal_field()
        params = RadioParams(1.0, 1.0)
        grid = np.linspace(-1.0, 1.0, 801)
        nu = Measure1D.from_values(grid, np.ones_like(grid), mass=1.0)
        T, _ = fixed_point_step(f, nu, params)
        assert T.slope == pytest.approx(5.0, rel=1e-12)
        assert T.offset == pytest.approx(0.0, abs=1e-12)

    def test_map_matches_interaction_gradient(self):
        f = standard_normal_field()
        params = RadioParams(1.0, 1.0)
        grid = np.linspace(-0.5, 1.5, 801)
        nu = Measure1D.from_values(grid, 1.0 + 0.2 * grid, mass=1.0)
        T, _ = fixed_point_step(f, nu, params)
        coeff = 2.0 / (params.shannon_factor * params.throughput)
        x = np.array([-2.0, 0.0, 1.3])
        np.testing.assert_allclose(
            T(x), x + coeff * interaction_gradient(nu, x), rtol=1e-12, atol=1e-12
        )

    def test_step_from_terminals_reaches_the_dilated_density(self):
        f = standard_normal_field()
        _, nu1 = fixed_point_step(f, Measure1D.from_density(f, 1.0), RadioParams(1.0, 1.0))
        assert nu1.spread() == pytest.approx(5.0, abs=1e-4)
        assert nu1.total_mass == pytest.approx(1.0, abs=1e-9)

    def test_mass_mismatch_rejected(self):
        f = standard_normal_field()
        with pytest.raises(ValueError):
            fixed_point_step(f, Measure1D.from_density(f, 2.0), RadioParams(1.0, 1.0))

    def test_mass_check_is_relative_to_the_traffic(self):
        # 500 times the traffic is within 1e-6 in absolute terms
        f = standard_normal_field()
        with pytest.raises(ValueError, match="total traffic"):
            fixed_point_step(f, Measure1D.from_density(f, 5e-7), RadioParams(1.0, 1e-9))

    def test_rejects_2d(self):
        f = DensityField.from_spec(
            FunctionSpec("uniform", {}),
            1.0,
            Domain.rectangle((0.0, 1.0), (0.0, 1.0), (11, 11)),
        )
        grid = np.linspace(0.0, 1.0, 101)
        nu = Measure1D(grid, np.ones_like(grid))
        with pytest.raises(ValueError):
            fixed_point_step(f, nu, RadioParams(1.0, 1.0))


class TestIterate:
    def test_centered_starts_converge_in_two_steps(self):
        f = standard_normal_field()
        params = RadioParams(1.0, 1.0)
        closed = optimal_station_density(f, 1.0)

        grid = np.linspace(-1.0, 1.0, 1001)
        starts = [
            Measure1D.from_density(f, 1.0),
            Measure1D(grid, np.full(1001, 0.5)),
            Measure1D.from_values(grid, np.exp(-((grid - 0.5) ** 2) / 0.02)
                                  + np.exp(-((grid + 0.5) ** 2) / 0.02), mass=1.0),
        ]
        for nu0 in starts:
            result = iterate_fixed_point(f, nu0, params)
            assert result.converged
            assert result.steps <= 2
            assert result.last_change < 1e-8
            assert sup_distance(result.measure, closed) <= 1e-6

    def test_start_at_fixed_point_confirms_in_one_step(self):
        f = standard_normal_field()
        nu0 = optimal_station_density(f, 1.0)
        result = iterate_fixed_point(f, nu0, RadioParams(1.0, 1.0))
        assert result.converged
        assert result.steps == 1

    def test_infinite_tolerance_stops_immediately(self):
        f = standard_normal_field()
        nu0 = Measure1D.from_density(f, 1.0)
        result = iterate_fixed_point(f, nu0, RadioParams(1.0, 1.0), tolerance=math.inf)
        assert result.converged
        assert result.steps == 1

    def test_off_center_start_diverges(self):
        # the interaction term repels the barycenter from 0, so an
        # off-center start oscillates outward instead of settling
        f = standard_normal_field()
        grid = np.linspace(0.2, 1.2, 1001)
        nu0 = Measure1D.from_values(grid, np.ones_like(grid), mass=1.0)
        result = iterate_fixed_point(f, nu0, RadioParams(1.0, 1.0), max_steps=8)
        assert not result.converged
        assert result.steps == 8
        assert result.last_change > 1e-8

    @pytest.mark.parametrize("theta", [1e-9, 0.5, 3.0])
    def test_stop_test_is_free_of_the_traffic_scale(self, theta):
        # the iterates carry mass theta; a centered start must still take
        # the step to the fixed point and confirm it on the next one
        f = standard_normal_field()
        result = iterate_fixed_point(f, Measure1D.from_density(f, theta), RadioParams(1.0, theta))
        closed = optimal_station_density(f, theta)
        assert result.converged
        assert result.steps == 2
        assert sup_distance(result.measure.normalized(), closed) <= 1e-6 * closed.values.max()

    def test_runaway_divergence_ends_honestly(self):
        # with a large step budget the off-center oscillation outruns
        # float resolution; the run must end as non-converged, not crash
        f = standard_normal_field()
        grid = np.linspace(0.2, 1.2, 1001)
        runs = [(Measure1D.from_values(grid, np.ones_like(grid), mass=1.0), 1.0)]
        # at theta = 1e-9 every density change is below 1e-8 in absolute
        # terms, although the barycenter runs off to -3e9 on the first step
        start = DensityField.from_spec(
            FunctionSpec("normal", {"mu": 0.5, "sigma": 0.3}), 1.0, Domain.interval(-1.0, 2.0, 2001)
        )
        runs.append((Measure1D.from_density(start, 1e-9), 1e-9))
        for nu0, theta in runs:
            result = iterate_fixed_point(f, nu0, RadioParams(1.0, theta), max_steps=200)
            assert not result.converged
            assert 0 < result.steps < 200
            assert math.isfinite(result.measure.barycenter)

    def test_flat_start_on_compact_support_converges(self):
        # consecutive supports with a jump edge differ by about an ulp, which
        # the sup metric reads as the full edge height; the L1 change reads
        # it as the edge height times the shift, so the run stops
        f = DensityField.from_spec(
            FunctionSpec(
                "truncated_normal", {"mu": 0.0, "sigma": 1.0, "a": -1.0, "b": 1.0}
            ),
            1.0,
            Domain.interval(-1.0, 1.0, 2001),
        )
        grid = np.linspace(-1.0, 1.0, 1001)
        nu0 = Measure1D(grid, np.full(grid.size, 0.5))
        result = iterate_fixed_point(f, nu0, RadioParams(1.0, 1.0))
        assert result.converged
        assert result.steps <= 2
        assert result.last_change < 1e-12
        closed = optimal_station_density(f, 1.0)
        assert abs(result.measure.spread() - closed.spread()) <= 1e-12 * closed.spread()

    @pytest.mark.parametrize(
        "tolerance",
        [0.0, -1.0, math.nan, None, pytest.param([1e-8], id="list"), pytest.param(10**400, id="10**400"), "1e-8", True],
    )
    def test_tolerance_must_be_positive(self, tolerance):
        f = standard_normal_field()
        with pytest.raises(ValueError, match="tolerance"):
            iterate_fixed_point(f, Measure1D.from_density(f, 1.0), RadioParams(1.0, 1.0), tolerance)

    def test_max_steps_validated(self):
        f = standard_normal_field()
        with pytest.raises(ValueError):
            iterate_fixed_point(f, Measure1D.from_density(f, 1.0), RadioParams(1.0, 1.0), max_steps=0)
        # a step count is a whole number, True is not a count of 1, nor a tolerance of 1
        nu0, params = Measure1D.from_density(f, 1.0), RadioParams(1.0, 1.0)
        for max_steps in (True, 2.5, 2.0):
            with pytest.raises(ValueError, match="whole number"):
                iterate_fixed_point(f, nu0, params, max_steps=max_steps)
        with pytest.raises(ValueError, match="tolerance"):
            iterate_fixed_point(f, nu0, params, tolerance=True)


class TestClosedForm:
    def test_normal_log2_5_is_twice_as_wide(self):
        nu = optimal_station_density(standard_normal_field(), LOG2_5)
        np.testing.assert_allclose(nu.values, normal_pdf(nu.grid, sigma=2.0), atol=1e-9)
        assert nu.total_mass == pytest.approx(1.0, abs=1e-9)

    def test_truncated_normal_support_expands(self):
        f = DensityField.from_spec(
            FunctionSpec("truncated_normal", {"mu": 0.0, "sigma": 1.0, "a": -1.0, "b": 1.0}),
            1.0,
            Domain.interval(-1.0, 1.0, 2001),
        )
        nu = optimal_station_density(f, 1.0)
        assert nu.grid[0] == pytest.approx(-5.0)
        assert nu.grid[-1] == pytest.approx(5.0)
        # stations are placed beyond the terminal support, with positive
        # density all the way to the expanded edges
        assert nu.values[0] > 0.0 and nu.values[-1] > 0.0
        assert nu.total_mass == pytest.approx(1.0, abs=1e-9)

    def test_huge_throughput_shadows_terminals(self):
        f = standard_normal_field()
        nu = optimal_station_density(f, 60.0)
        assert sup_distance(nu, Measure1D.from_density(f, 1.0)) <= 1e-12

    def test_off_center_density_rejected(self):
        f = DensityField.from_spec(
            FunctionSpec("normal", {"mu": 0.5, "sigma": 1.0}),
            1.0,
            Domain.interval(-7.5, 8.5, 1001),
        )
        with pytest.raises(ValueError, match="re-center"):
            optimal_station_density(f, 1.0)

    def test_centring_is_relative_to_the_spread(self):
        # a barycenter of 5e-8 is 1.7 spreads off centre on [0, 1e-7], and
        # one of about 1e-6 is nothing on [-1e7, 1e7]
        uniform = FunctionSpec("uniform", {})
        with pytest.raises(ValueError, match="re-center"):
            optimal_station_density(DensityField.from_spec(uniform, 1.0, Domain.interval(0.0, 1e-7)), 1.0)
        wide = DensityField.from_spec(uniform, 1.0, Domain.interval(-1e7, 1e7))
        assert optimal_station_density(wide, 1.0).spread() == pytest.approx(5.0 * wide.spread())


class TestQuantilePlacements:
    def test_uniform_two_stations(self):
        grid = np.linspace(0.0, 1.0, 2001)
        nu = Measure1D(grid, np.ones_like(grid))
        np.testing.assert_allclose(quantile_placements(nu, 2), [0.25, 0.75], atol=1e-9)

    def test_single_station_at_median(self):
        grid = np.linspace(0.0, 1.0, 2001)
        nu = Measure1D(grid, np.ones_like(grid))
        assert quantile_placements(nu, 1)[0] == pytest.approx(0.5, abs=1e-9)

    def test_dilated_normal_three_stations(self):
        nu = optimal_station_density(standard_normal_field(), LOG2_5)
        got = quantile_placements(nu, 3)
        expected = [-1.9348431322034028, 0.0, 1.9348431322034028]
        np.testing.assert_allclose(got, expected, atol=1e-4)
        assert np.all(np.diff(got) > 0)

    def test_count_validated(self):
        grid = np.linspace(0.0, 1.0, 101)
        nu = Measure1D(grid, np.ones_like(grid))
        with pytest.raises(ValueError):
            quantile_placements(nu, 0)
        # a fractional K is not a station count, and True is not a count of 1
        for K in (2.5, 3.0, True):
            with pytest.raises(ValueError, match="whole number"):
                quantile_placements(nu, K)
        assert quantile_placements(nu, np.int64(2)).shape == (2,)
