import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import trapezoid

from backhaulopt import (
    DensityField, Domain, FunctionSpec, OptimizerConfig, RadioParams, cli, optimize,
)
from backhaulopt.cli import main

SQRT_2PI = 2.5066282746310002


def write_scenario(tmp_path, obj, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def centered_density(resolution=2001):
    return {
        "kind": "truncated_normal",
        "params": {"mu": 0.0, "sigma": 1.0, "a": -1.0, "b": 1.0},
        "domain": {"min": -1.0, "max": 1.0, "resolution": resolution},
    }


def uniform_density(lo=0.0, hi=1.0, resolution=2001):
    return {
        "kind": "uniform",
        "params": {},
        "domain": {"min": lo, "max": hi, "resolution": resolution},
    }


def load_csv(path, cols=None):
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if cols is not None:
        assert data.shape[1] == cols
    return data


def read_header(path):
    return path.read_text(encoding="utf-8").splitlines()[0]


class TestDiscreteMode:
    def test_single_station_uniform(self, tmp_path, capsys):
        out = tmp_path / "out"
        scenario = write_scenario(tmp_path, {
            "sigma2": 1.0,
            "theta": 1.0,
            "density": uniform_density(),
            "mode": {"discrete": {"K": 1}},
            "output_dir": str(out),
        })
        assert main(["run", scenario]) == 0
        placement = load_csv(out / "placement.csv", cols=4)
        assert placement.shape[0] == 1
        assert placement[0, 1] == pytest.approx(0.5, abs=1e-6)
        assert placement[0, 2] == pytest.approx(1.0, abs=1e-9)
        assert read_header(out / "placement.csv") == "index,x,m_i,intra_i"
        # no pairs for one station, header only
        assert (out / "pairs.csv").read_text(encoding="utf-8") == "i,j,d_ij,P_ij\n"
        assert "total power" in capsys.readouterr().out

    def test_round_trip_against_trace(self, tmp_path):
        out = tmp_path / "out"
        scenario = write_scenario(tmp_path, {
            "sigma2": 1.0,
            "theta": 1.0,
            "density": uniform_density(),
            "mode": {"discrete": {"K": 2, "init": "jitter", "seed": 4}},
            "output_dir": str(out),
        })
        assert main(["run", scenario]) == 0
        placement = load_csv(out / "placement.csv", cols=4)
        pairs = load_csv(out / "pairs.csv", cols=4)
        trace = load_csv(out / "trace.csv", cols=2)
        total = placement[:, 3].sum() + pairs[:, 3].sum()
        assert total == pytest.approx(trace[-1, 1], abs=1e-9)
        assert np.all(np.diff(trace[:, 1]) <= 1e-12)

    def test_non_convergence_keeps_outputs(self, tmp_path, capsys):
        out = tmp_path / "out"
        scenario = write_scenario(tmp_path, {
            "sigma2": 1.0,
            "theta": 1.0,
            "density": centered_density(),
            "mode": {"discrete": {"K": 3, "init": "jitter", "max_iterations": 1}},
            "output_dir": str(out),
        })
        assert main(["run", scenario]) == 4
        assert (out / "placement.csv").exists()
        assert (out / "trace.csv").exists()
        assert "did not converge" in capsys.readouterr().err

    def test_seed_override_reproduces_bytes(self, tmp_path):
        scenarios = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            scenarios.append((out, write_scenario(tmp_path, {
                "sigma2": 1.0,
                "theta": 1.0,
                "density": uniform_density(),
                "mode": {"discrete": {"K": 2, "init": "jitter"}},
                "output_dir": str(out),
            }, name=f"{sub}.json")))
        for out, scenario in scenarios:
            assert main(["run", scenario, "--seed", "9", "--quiet"]) == 0
        a, b = (out / "placement.csv" for out, _ in scenarios)
        assert a.read_bytes() == b.read_bytes()

    def test_planar_bounds_scenario(self, tmp_path):
        params = {"mu": [0.4, 1.2], "sigma": [0.3, 0.5]}
        base = {
            "sigma2": 1.0,
            "theta": 1.0,
            "density": {
                "kind": "normal",
                "params": params,
                "domain": {"bounds": [[0.0, 1.0], [0.0, 2.0]], "resolution": [21, 31]},
            },
            "mode": {"discrete": {"K": 3}},
        }
        # a per-axis resolution list, then --grid for both axes
        for extra, resolution in (([], (21, 31)), (["--grid", "15"], (15, 15))):
            out = tmp_path / f"grid{resolution[1]}"
            scenario = write_scenario(tmp_path, dict(base, output_dir=str(out)))
            assert main(["run", scenario, "--quiet", *extra]) == 0
            assert read_header(out / "placement.csv") == "index,x,y,m_i,intra_i"
            placement = load_csv(out / "placement.csv", cols=5)
            trace = load_csv(out / "trace.csv", cols=2)
            assert np.all(np.diff(trace[:, 1]) <= 1e-12)
            d = DensityField.from_spec(
                FunctionSpec("normal", params),
                1.0,
                Domain.rectangle((0.0, 1.0), (0.0, 2.0), resolution),
            )
            expected = optimize(d, 3, RadioParams(noise_power=1.0, throughput=1.0))
            np.testing.assert_array_equal(placement[:, 1:3], expected.positions)

    @pytest.mark.parametrize(
        "density, domain, K",
        [
            (centered_density(401), Domain.interval(-1.0, 1.0, 401), 5),
            (
                {
                    "kind": "normal",
                    "params": {"mu": [0.4, 1.2], "sigma": [0.3, 0.5]},
                    "domain": {"bounds": [[0.0, 1.0], [0.0, 2.0]], "resolution": [21, 31]},
                },
                Domain.rectangle((0.0, 1.0), (0.0, 2.0), (21, 31)),
                6,
            ),
        ],
        ids=["1d", "2d"],
    )
    def test_csv_values_parse_back_exactly(self, tmp_path, density, domain, K):
        out = tmp_path / "out"
        scenario = write_scenario(tmp_path, {
            "sigma2": 1.0,
            "theta": 1.0,
            "density": density,
            "mode": {"discrete": {"K": K, "init": "jitter", "seed": 2}},
            "output_dir": str(out),
        })
        assert main(["run", scenario, "--quiet"]) == 0
        d = DensityField.from_spec(FunctionSpec(density["kind"], density["params"]), 1.0, domain)
        params = RadioParams(noise_power=1.0, throughput=1.0)
        sol = optimize(d, K, params, OptimizerConfig(init="jitter", seed=2))

        def rows(name):
            return [line.split(",") for line in (out / name).read_text(encoding="utf-8").splitlines()[1:]]

        def index(text):  # integer text, not a float such as "1.0" or "1e0"
            assert text.isdigit()
            return int(text)

        pos = sol.positions
        placement = rows("placement.csv")
        assert [index(r[0]) for r in placement] == list(range(K))
        for i, r in enumerate(placement):
            assert [float(v) for v in r[1:]] == [
                *pos[i], sol.report.traffic.per_station[i], sol.report.intra_per_cell[i],
            ]

        pairs = rows("pairs.csv")
        # ordered pairs i != j, row-major
        assert [(index(r[0]), index(r[1])) for r in pairs] == [
            (i, j) for i in range(K) for j in range(K) if i != j
        ]
        t, m = sol.report.traffic.per_station, sol.report.traffic.total
        power = {}
        for r in pairs:
            i, j = int(r[0]), int(r[1])
            d2 = np.sum((pos[i] - pos[j]) ** 2)
            assert float(r[2]) == np.sqrt(d2)
            # sigma2 * m_i * m_j * d_ij^2 / m, with sigma2 = 1
            power[i, j] = float(r[3])
            assert power[i, j] == 1.0 / m * (t[i] * t[j]) * d2
        assert all(power[i, j] == power[j, i] for i, j in power)
        assert sum(power.values()) == pytest.approx(sol.report.inter_total, rel=1e-12)

        trace = rows("trace.csv")
        assert [index(r[0]) for r in trace] == list(range(len(sol.trace)))
        assert [float(r[1]) for r in trace] == list(sol.trace)

    @pytest.mark.parametrize("include_inter, header", [(True, "iter,total"), (False, "iter,intra_total")])
    def test_trace_header_names_the_cost(self, tmp_path, include_inter, header):
        # without the backhaul term the trace holds the access power alone
        out = tmp_path / "out"
        scenario = write_scenario(tmp_path, {
            "sigma2": 1.0,
            "theta": 1.0,
            "density": uniform_density(),
            "mode": {"discrete": {"K": 3, "include_inter": include_inter}},
            "output_dir": str(out),
        })
        assert main(["run", scenario, "--quiet"]) == 0
        assert read_header(out / "trace.csv") == header
        cost = load_csv(out / "placement.csv")[:, 3].sum()
        if include_inter:
            cost += load_csv(out / "pairs.csv")[:, 3].sum()
        assert load_csv(out / "trace.csv")[-1, 1] == pytest.approx(cost, rel=1e-12)

    def test_unknown_option_rejected(self, tmp_path):
        scenario = write_scenario(tmp_path, {
            "sigma2": 1.0,
            "theta": 1.0,
            "density": uniform_density(),
            "mode": {"discrete": {"K": 1, "stations": 5}},
            "output_dir": str(tmp_path / "out"),
        })
        assert main(["run", scenario]) == 3


class TestContinuumModes:
    def test_closed_form_dilates_support(self, tmp_path):
        out = tmp_path / "out"
        scenario = write_scenario(tmp_path, {
            "sigma2": 1.0,
            "theta": 1.0,
            "density": centered_density(),
            "mode": {"closed_form": {}},
            "output_dir": str(out),
        })
        assert main(["run", scenario, "--quiet"]) == 0
        data = load_csv(out / "bs_density.csv", cols=2)
        assert read_header(out / "bs_density.csv") == "y,v"
        assert data[0, 0] == pytest.approx(-5.0)
        assert data[-1, 0] == pytest.approx(5.0)
        mass = trapezoid(data[:, 1], data[:, 0])
        assert mass == pytest.approx(1.0, abs=1e-6)

    def test_iteration_matches_closed_form(self, tmp_path):
        outs = {}
        for mode in ("continuum", "closed_form"):
            out = tmp_path / mode
            scenario = write_scenario(tmp_path, {
                "sigma2": 1.0,
                "theta": 1.0,
                "density": centered_density(),
                "mode": {mode: {}},
                "output_dir": str(out),
            }, name=f"{mode}.json")
            assert main(["run", scenario, "--quiet"]) == 0
            outs[mode] = load_csv(out / "bs_density.csv", cols=2)
        np.testing.assert_allclose(outs["continuum"][:, 0], outs["closed_form"][:, 0], atol=1e-12)
        np.testing.assert_allclose(outs["continuum"][:, 1], outs["closed_form"][:, 1], atol=1e-9)

    @pytest.mark.parametrize("resolution", [400, 401, 2000, 2001])
    @pytest.mark.parametrize("kind", ["truncated_normal", "uniform", "triangular"])
    def test_converges_at_every_node_count(self, tmp_path, kind, resolution):
        # even node counts, jump edges and a kink between nodes: station
        # measures must carry the exact traffic and the stop test must not
        # read an ulp shift of a jump edge as the full edge height
        density = {
            "truncated_normal": centered_density(resolution),
            "uniform": uniform_density(-1.0, 1.0, resolution),
            "triangular": {
                "kind": "triangular",
                "params": {"a": 0.0, "c": 0.3, "b": 1.0},
                "domain": {"min": 0.0, "max": 1.0, "resolution": resolution},
            },
        }[kind]
        modes = ("continuum",) if kind == "triangular" else ("continuum", "closed_form")
        outs = {}
        for mode in modes:
            out = tmp_path / mode
            scenario = write_scenario(tmp_path, {
                "sigma2": 1.0,
                "theta": 1.0,
                "density": density,
                "mode": {mode: {}},
                "output_dir": str(out),
            }, name=f"{mode}.json")
            assert main(["run", scenario, "--quiet"]) == 0, mode
            outs[mode] = load_csv(out / "bs_density.csv", cols=2)
        if "closed_form" in outs:
            np.testing.assert_allclose(outs["continuum"][:, 0], outs["closed_form"][:, 0], atol=1e-12)
            np.testing.assert_allclose(outs["continuum"][:, 1], outs["closed_form"][:, 1], atol=1e-9)

    @pytest.mark.parametrize("resolution", [400, 401])
    def test_converges_with_a_varying_demand(self, tmp_path, resolution):
        # a folded density keeps the product samples at the cell midpoints,
        # which the node interpolant misses by h^2; the station measure must
        # carry the traffic from the samples. The terminal density is
        # phi(x) (x/2 + 1) / Z on [-1, 1], so theta = 1, the dilation is 5
        # and the barycenter is (1 - 2 phi(1) / Z) / 2
        scenario = write_scenario(tmp_path, {
            "sigma2": 1.0,
            "demand": {
                "terminal_density": centered_density(resolution),
                "throughput_demand": {"kind": "affine", "params": {"slope": 0.5, "intercept": 1.0}},
            },
            "mode": {"continuum": {}},
            "output_dir": str(tmp_path / "out"),
        })
        assert main(["run", scenario, "--quiet"]) == 0
        y, v = load_csv(tmp_path / "out" / "bs_density.csv", cols=2).T
        x = np.linspace(-1.0, 1.0, resolution)
        z = math.erf(1.0 / math.sqrt(2.0))
        bary = 0.5 * (1.0 - 2.0 * math.exp(-0.5) / SQRT_2PI / z)
        np.testing.assert_allclose(y, 5.0 * (x - bary) + bary, atol=1e-9)
        f = np.exp(-0.5 * x**2) / SQRT_2PI * (0.5 * x + 1.0) / z
        np.testing.assert_allclose(v, f / 5.0, rtol=1e-8)

    @pytest.mark.parametrize("mode", [{"closed_form": {}},{"compare": {"K": [1, 2], "candidates": 21}}])
    @pytest.mark.parametrize(
        "density",
        [
            uniform_density(-1e7, 1e7),
            {
                "kind": "normal",
                "params": {"mu": 0.0, "sigma": 1e9},
                "domain": {"min": -8e9, "max": 8e9, "resolution": 2001},
            },
        ],
        ids=["uniform-1e7", "normal-sigma-1e9"],
    )
    def test_centring_is_judged_relative_to_the_spread(self, tmp_path, density, mode):
        # wide centred densities have barycenters far above 1e-6 in absolute
        # terms; [0, 1e-7], off centre by 1.7 spreads, is in the exit-3 list
        scenario = write_scenario(tmp_path, {
            "sigma2": 1.0,
            "theta": 1.0,
            "density": density,
            "mode": mode,
            "output_dir": str(tmp_path / "out"),
        })
        assert main(["run", scenario, "--quiet"]) == 0

    def test_off_center_start_reports_non_convergence(self, tmp_path, capsys):
        uniform_start = {
            "sigma2": 1.0,
            "theta": 1.0,
            "density": centered_density(),
            "mode": {"continuum": {
                "max_steps": 6,
                "nu0": {
                    "kind": "uniform",
                    "params": {},
                    "domain": {"min": 0.2, "max": 1.2, "resolution": 1001},
                },
            }},
        }
        # the iterates carry mass theta = 1e-9, so every density change
        # is tiny in absolute terms while the barycenter diverges
        tiny_throughput = {
            "sigma2": 1.0,
            "theta": 1e-9,
            "density": {
                "kind": "normal",
                "params": {"mu": 0.0, "sigma": 1.0},
                "domain": {"min": -8.0, "max": 8.0, "resolution": 2001},
            },
            "mode": {"continuum": {
                "nu0": {
                    "kind": "normal",
                    "params": {"mu": 0.5, "sigma": 0.3},
                    "domain": {"min": -1.0, "max": 2.0, "resolution": 2001},
                },
            }},
        }
        for name, obj in (("uniform", uniform_start), ("tiny", tiny_throughput)):
            out = tmp_path / name
            scenario = write_scenario(tmp_path, dict(obj, output_dir=str(out)), name=f"{name}.json")
            assert main(["run", scenario]) == 4, name
            assert (out / "bs_density.csv").exists()
            captured = capsys.readouterr()
            assert "did not converge" in captured.err
            assert captured.out.startswith("stopped after "), name

    def test_grid_override_changes_row_count(self, tmp_path):
        out = tmp_path / "out"
        scenario = write_scenario(tmp_path, {
            "sigma2": 1.0,
            "theta": 1.0,
            "density": centered_density(),
            "mode": {"closed_form": {}},
            "output_dir": str(out),
        })
        assert main(["run", scenario, "--grid", "501", "--quiet"]) == 0
        assert load_csv(out / "bs_density.csv").shape[0] == 501

    def test_closed_form_takes_no_options(self, tmp_path):
        scenario = write_scenario(tmp_path, {
            "sigma2": 1.0,
            "theta": 1.0,
            "density": centered_density(),
            "mode": {"closed_form": {"K": 2}},
            "output_dir": str(tmp_path / "out"),
        })
        assert main(["run", scenario]) == 3

    @pytest.mark.parametrize("mode", ["closed_form", "continuum"])
    def test_seed_override_is_ignored(self, tmp_path, mode):
        outs = []
        for sub, extra in (("plain", []), ("seeded", ["--seed", "3"])):
            out = tmp_path / sub
            scenario = write_scenario(tmp_path, {
                "sigma2": 1.0,
                "theta": 1.0,
                "density": centered_density(),
                "mode": {mode: {}},
                "output_dir": str(out),
            }, name=f"{sub}.json")
            assert main(["run", scenario, "--quiet", *extra]) == 0
            outs.append((out / "bs_density.csv").read_bytes())
        assert outs[0] == outs[1]


class TestCompareMode:
    def scenario(self, tmp_path, out):
        return write_scenario(tmp_path, {
            "sigma2": 1.0,
            "theta": 1.0,
            "density": uniform_density(-1.0, 1.0),
            "mode": {"compare": {"K": [2, 3], "candidates": 101}},
            "output_dir": str(out),
        })

    def test_report_files(self, tmp_path):
        out = tmp_path / "out"
        assert main(["compare", self.scenario(tmp_path, out), "--quiet"]) == 0
        cons = load_csv(out / "consistency.csv", cols=7)
        assert read_header(out / "consistency.csv") == (
            "K,theta,discrete_spread,continuum_spread,ratio,f_spread,lambda"
        )
        np.testing.assert_array_equal(cons[:, 0], [2, 3])
        np.testing.assert_array_equal(cons[:, 6], [5.0, 5.0])
        placement = load_csv(out / "placement.csv", cols=4)
        assert placement.shape[0] == 5

    def test_spreads_recompute_from_placement(self, tmp_path):
        out = tmp_path / "out"
        assert main(["compare", self.scenario(tmp_path, out), "--quiet"]) == 0
        cons = load_csv(out / "consistency.csv")
        placement = load_csv(out / "placement.csv")
        for row in cons:
            K = int(row[0])
            sel = placement[placement[:, 0] == K]
            w = sel[:, 3] / sel[:, 3].sum()
            mean = w @ sel[:, 2]
            spread = np.sqrt(w @ (sel[:, 2] - mean) ** 2)
            assert spread == pytest.approx(row[2], abs=1e-9)

    def test_runs_are_byte_identical(self, tmp_path):
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert main(["compare", self.scenario(tmp_path, out), "--quiet"]) == 0
            outs.append(out)
        for name in ("consistency.csv", "placement.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_run_command_accepts_compare_mode(self, tmp_path):
        out = tmp_path / "out"
        assert main(["run", self.scenario(tmp_path, out), "--quiet"]) == 0
        assert (out / "consistency.csv").exists()

    def test_prints_kappa_next_to_the_dilation(self, tmp_path, capsys):
        # theta = sigma2 = 1: A = 1, so kappa = 1/(1 + 2) and lambda(1) = 5
        out = tmp_path / "out"
        assert main(["compare", self.scenario(tmp_path, out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:2] == [
            f"K={int(row[0])}: discrete/f spread ratio {row[4]:.6g}, kappa 0.333333, asymptotic dilation 5"
            for row in load_csv(out / "consistency.csv")
        ]
        assert read_header(out / "consistency.csv") == (
            "K,theta,discrete_spread,continuum_spread,ratio,f_spread,lambda"
        )
        assert main(["compare", self.scenario(tmp_path, out), "--quiet"]) == 0
        assert capsys.readouterr().out == ""

    def test_station_count_list_limited(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path, {
            "sigma2": 1.0,
            "theta": 1.0,
            "density": uniform_density(-1.0, 1.0),
            "mode": {"compare": {"K": [1] * 402, "candidates": 21}},
            "output_dir": str(tmp_path / "out"),
        })
        assert main(["compare", scenario]) == 3
        assert "station counts" in capsys.readouterr().err

    def test_more_stations_than_runs_rejected(self, tmp_path, capsys):
        # 21 evenly spaced candidates, two of them at the ends, cut 20 runs
        scenario = write_scenario(tmp_path, {
            "sigma2": 1.0,
            "theta": 1.0,
            "density": uniform_density(-1.0, 1.0),
            "mode": {"compare": {"K": [20, 21], "candidates": 21}},
            "output_dir": str(tmp_path / "out"),
        })
        assert main(["compare", scenario]) == 3
        assert "positive mass" in capsys.readouterr().err

    def test_off_center_density_rejected(self, tmp_path, capsys, monkeypatch):
        def no_search(*args):
            raise AssertionError("searched before rejecting the density")

        monkeypatch.setattr(cli, "brute_force_optimize", no_search)
        scenario = write_scenario(tmp_path, {
            "sigma2": 1.0,
            "theta": 1.0,
            "density": uniform_density(0.0, 1.0, 101),
            "mode": {"compare": {"K": [1], "candidates": 21}},
            "output_dir": str(tmp_path / "out"),
        })
        assert main(["compare", scenario]) == 3
        assert "re-center" in capsys.readouterr().err

    def test_compare_command_requires_compare_mode(self, tmp_path):
        scenario = write_scenario(tmp_path, {
            "sigma2": 1.0,
            "theta": 1.0,
            "density": uniform_density(),
            "mode": {"discrete": {"K": 1}},
            "output_dir": str(tmp_path / "out"),
        })
        assert main(["compare", scenario]) == 3


class TestDemandScenarios:
    def test_demand_is_folded(self, tmp_path, capsys):
        out = tmp_path / "out"
        scenario = write_scenario(tmp_path, {
            "sigma2": 1.0,
            "demand": {
                "terminal_density": centered_density(),
                "throughput_demand": {"kind": "constant", "params": {"value": 2.0}},
            },
            "mode": {"closed_form": {}},
            "output_dir": str(out),
        })
        assert main(["run", scenario]) == 0
        data = load_csv(out / "bs_density.csv", cols=2)
        # constant demand of 2 gives theta 2, so the support is scaled by 7/3
        assert data[-1, 0] == pytest.approx(7.0 / 3.0, abs=1e-9)

    def test_theta_with_demand_rejected(self, tmp_path):
        scenario = write_scenario(tmp_path, {
            "sigma2": 1.0,
            "theta": 1.0,
            "demand": {
                "terminal_density": centered_density(),
                "throughput_demand": {"kind": "constant", "params": {"value": 2.0}},
            },
            "mode": {"closed_form": {}},
            "output_dir": str(tmp_path / "out"),
        })
        assert main(["run", scenario]) == 3


# Junk for the fuzz test. Numbers stay within +-100 (plus the non-finite
# values) so that a drawn resolution or station count stays small.
JUNK = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-100, 100)
    | st.floats(-100.0, 100.0)
    | st.sampled_from([math.inf, -math.inf, math.nan, "inf", "nan"])
    | st.text("abxyz0", max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text("abxyz", max_size=3), inner, max_size=2),
    max_leaves=5,
)

JUNK_MODES = {
    "discrete": {"K": 2},
    "continuum": {},
    "closed_form": {},
    "compare": {"K": [1, 2], "candidates": 11},
}

JUNK_KEYS = {
    "scenario": ("sigma2", "theta", "density", "mode", "output_dir"),
    "density": ("kind", "params", "domain"),
    "domain": ("min", "max", "resolution"),
    "discrete": (
        "K", "max_iterations", "position_tolerance", "init",
        "positions", "seed", "damping", "include_inter",
    ),
    "continuum": ("tolerance", "max_steps", "nu0"),
    "closed_form": ("K",),
    "compare": ("K", "candidates"),
}


@st.composite
def junk_scenarios(draw):
    """A small valid scenario with one scenario, density, domain or mode key
    set to junk, or with an unknown key added to one of those blocks.
    Returns the scenario and the unknown key, or None."""
    mode = draw(st.sampled_from(sorted(JUNK_MODES)))
    scenario = {
        "sigma2": 1.0,
        "theta": 1.0,
        "density": centered_density(21),
        "mode": {mode: dict(JUNK_MODES[mode])},
    }
    blocks = {
        "scenario": scenario,
        "density": scenario["density"],
        "domain": scenario["density"]["domain"],
        mode: scenario["mode"][mode],
    }
    block = draw(st.sampled_from(sorted(blocks)))
    if draw(st.booleans()):
        unknown = draw(st.text("abxyz_", min_size=1, max_size=4).map("unknown_{}".format))
        blocks[block][unknown] = draw(JUNK)
        return scenario, unknown
    blocks[block][draw(st.sampled_from(JUNK_KEYS[block]))] = draw(JUNK)
    return scenario, None


# an override that removes its key from the base scenario
ABSENT = object()


def one_string_csv(header, *columns):
    """The writer's text built whole, as one join of every row."""
    columns = [np.asarray(c) for c in columns]
    row = ",".join("%d" if c.dtype.kind in "iu" else "%.17g" for c in columns)
    lines = [header, *(row % values for values in zip(*(c.tolist() for c in columns)))]
    return "\n".join(lines) + "\n"


def ties(sign):
    """m·2**-k whose 18 significant digits end in 5: halfway between two
    17-digit decimals, so the fast path must not round them itself."""
    def odd_multiples(k):  # odd m with m·5**k of 18 digits, exact in a double
        low, high = -(-(10**17) // 5**k), min((10**18 - 1) // 5**k, 2**53 - 1)
        return st.integers(low // 2, (high - 1) // 2).map(lambda j: sign * math.ldexp(2 * j + 1, -k))

    return st.integers(2, 25).flatmap(odd_multiples)


FLOATS = st.one_of(
    st.floats(width=64),  # nan, infinities and subnormals included
    st.integers(0, 2**64 - 1).map(lambda bits: float(np.uint64(bits).view(np.float64))),
    ties(1.0),
    ties(-1.0),
)
INTS = st.integers(-(2**63), 2**63 - 1)


@st.composite
def csv_columns(draw):
    """One to four float64 or int64 columns of up to 40 rows."""
    rows = draw(st.integers(0, 40))
    kinds = draw(st.lists(st.sampled_from([(FLOATS, np.float64), (INTS, np.int64)]), min_size=1, max_size=4))
    return [np.array(draw(st.lists(values, min_size=rows, max_size=rows)), dtype=dtype) for values, dtype in kinds]


def around(value):
    """`value` and its neighbours one ulp below and above."""
    return [np.nextafter(value, -math.inf), value, np.nextafter(value, math.inf)]


# the fast path's edges: its range, powers of ten (where log10 may miss),
# the largest double below 1e17, exact ties (2**-25 keeps its even last
# digit, 3·2**-25 rounds up to an even one), and what it never formats
EDGES = np.array([
    0.0, -0.0, 5e-324, -5e-324,
    *around(1e-280), *around(1e280),
    *(v for k in range(-5, 18) for v in around(float(f"1e{k}"))),
    99999999999999984.0, 2.0**-25, -(2.0**-25), 3 * 2.0**-25,
    math.inf, -math.inf, math.nan,
])


class TestWriteCsv:
    @pytest.mark.parametrize("rows", [0, 1, cli._CSV_ROWS, cli._CSV_ROWS + 1, 3 * cli._CSV_ROWS + 7])
    def test_same_bytes_as_one_string(self, tmp_path, rows):
        rng = np.random.default_rng(rows)
        floats = rng.normal(size=rows) * 10.0 ** rng.integers(-300, 300, size=rows)
        cases = {
            "floats": ("a,b", floats, rng.uniform(size=rows)),
            "mixed": ("i,x,k", np.arange(rows), floats, rng.integers(-5, 5, size=rows)),
        }
        for name, (header, *columns) in cases.items():
            path = tmp_path / f"{name}.csv"
            cli._write_csv(path, header, *columns)
            assert path.read_bytes() == one_string_csv(header, *columns).encode("utf-8")

    def test_edge_values(self, tmp_path):
        values = np.array([-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, 0.1, 1.0 / 3.0])
        path = tmp_path / "edge.csv"
        cli._write_csv(path, "i,v", np.arange(values.size), values)
        text = path.read_text(encoding="utf-8")
        assert text == one_string_csv("i,v", np.arange(values.size), values)
        assert [float(line.split(",")[1]) for line in text.splitlines()[1:]] == values.tolist()
        assert text.splitlines()[1] == "0,-0"

    def test_edge_list(self, tmp_path):
        path = tmp_path / "edges.csv"
        cli._write_csv(path, "v,w", EDGES, -EDGES)
        assert path.read_bytes() == one_string_csv("v,w", EDGES, -EDGES).encode("utf-8")

    @settings(max_examples=150)
    @given(columns=csv_columns())
    def test_drawn_columns(self, tmp_path_factory, columns):
        path = tmp_path_factory.mktemp("drawn") / "drawn.csv"
        header = ",".join(f"c{i}" for i in range(len(columns)))
        cli._write_csv(path, header, *columns)
        assert path.read_bytes() == one_string_csv(header, *columns).encode("utf-8")

    def test_memory_does_not_grow_with_the_file(self, tmp_path):
        # the whole text, its join and its UTF-8 copy peaked at 34 MiB here
        columns = np.linspace(0.0, 1.0, 200_001), np.linspace(-3.0, 3.0, 200_001) ** 3
        tracemalloc.start()
        try:
            cli._write_csv(tmp_path / "big.csv", "y,v", *columns)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        with open(tmp_path / "big.csv", encoding="utf-8") as fh:
            assert sum(1 for _ in fh) == 200_002


class TestValidation:
    def base(self, tmp_path, **overrides):
        obj = {
            "sigma2": 1.0,
            "theta": 1.0,
            "density": uniform_density(),
            "mode": {"discrete": {"K": 1}},
            "output_dir": str(tmp_path / "out"),
        }
        obj.update(overrides)
        return {key: value for key, value in obj.items() if value is not ABSENT}

    def test_missing_sigma2(self, tmp_path, capsys):
        obj = self.base(tmp_path)
        del obj["sigma2"]
        assert main(["run", write_scenario(tmp_path, obj)]) == 3
        assert "sigma2" in capsys.readouterr().err

    def test_nonpositive_sigma2(self, tmp_path):
        assert main(["run", write_scenario(tmp_path, self.base(tmp_path, sigma2=0.0))]) == 3

    @pytest.mark.parametrize(
        "overrides",
        [
            {"sigma2": [1]},
            {"sigma2": "inf"},
            {"theta": "inf"},
            {"density": centered_density(), "mode": {"continuum": {"tolerance": None}}},
            {"density": centered_density(), "mode": {"continuum": {"max_steps": math.inf}}},
            {"mode": {"discrete": {"K": 1, "max_iterations": 1e308}}},
            {"density": uniform_density(resolution=math.inf)},
            {"output_dir": None},
            {"theta": 1e308},
            {"density": centered_density(), "mode": {"compare": {"K": [1], "candidates": math.inf}}},
            {"density": centered_density(), "mode": {"continuum": {"tolerance": math.inf}}},
            {"mode": {"discrete": {"K": 1, "position_tolerance": math.inf}}},
            {"mode": {"discrete": {"K": 2, "init": "explicit", "positions": [math.nan, 0.5]}}},
            # finite inputs whose access power overflows
            {"sigma2": 1e308, "density": uniform_density(0.0, 100.0)},
            # unknown keys, which used to be ignored
            {"density": centered_density(), "mode": {"continuum": {"tolerence": 1e-3}}},
            {"outputdir": "out"},
            # counts and sizes: 2.9 nodes used to run on 2, and the caps
            # reject before anything is allocated
            {"density": uniform_density(resolution=2.9)},
            {"density": uniform_density(resolution=10**12)},
            {"mode": {"discrete": {"K": 1025}}},
            # a planar domain's bounds hold exactly two pairs
            {"density": dict(uniform_density(), domain={"bounds": [[0.0, 1.0]]})},
            {"density": dict(uniform_density(), domain={"bounds": [[0.0, 1.0]] * 3})},
            # misspelled function parameters, which used to be ignored
            {
                "theta": ABSENT,
                "density": ABSENT,
                "demand": {
                    "terminal_density": uniform_density(),
                    "throughput_demand": {"kind": "affine", "params": {"slope": 1.0, "intercep": 5.0}},
                },
            },
            {"density": dict(centered_density(), kind="normal", params={"mu": 0.0, "sigma": 1.0, "sigmaa": 2.0})},
            # candidate counts above the cap, rejected before np.linspace allocates them
            {"density": centered_density(), "mode": {"compare": {"K": [1], "candidates": 402}}},
            {"density": centered_density(), "mode": {"compare": {"K": [1], "candidates": 10**12}}},
            # a seed np.random.default_rng would refuse, also when init does not read it
            {"mode": {"discrete": {"K": 2, "seed": "abc"}}},
            # positions without the explicit init, which used to be ignored, and an
            # explicit start outside the domain, which used to leave a station idle
            {"mode": {"discrete": {"K": 2, "positions": [0.1, 0.2]}}},
            {"mode": {"discrete": {"K": 2, "init": "explicit", "positions": [5.0, 7.0]}}},
            # a non-positive tolerance, which used to run to max_steps and exit 4
            {"density": centered_density(), "mode": {"continuum": {"tolerance": -1}}},
            {"density": centered_density(), "mode": {"continuum": {"tolerance": 0}}},
            # a density 1.7 spreads off centre, which passed an absolute 1e-6 test
            {"density": uniform_density(0.0, 1e-7), "mode": {"closed_form": {}}},
            {"density": uniform_density(0.0, 1e-7), "mode": {"compare": {"K": [1], "candidates": 21}}},
            # JSON booleans, which used to pass as the numbers 1 and 0
            {"mode": {"discrete": {"K": True}}},
            {"mode": {"discrete": {"K": 1, "seed": True}}},
            {"density": centered_density(), "mode": {"compare": {"K": [1], "candidates": True}}},
            {"density": centered_density(), "mode": {"compare": {"K": [True]}}},
            {"theta": True},
            {"sigma2": True},
            {"mode": {"discrete": {"K": 1, "max_iterations": True}}},
            {"density": centered_density(), "mode": {"continuum": {"max_steps": True}}},
            {"mode": {"discrete": {"K": 1, "damping": True}}},
            {"mode": {"discrete": {"K": 1, "position_tolerance": True}}},
            {
                "density": dict(centered_density(), params={"mu": 0.0, "sigma": True, "a": -1.0, "b": 1.0}),
                "mode": {"closed_form": {}},
            },
            # JSON strings, which used to pass as the numbers they spell, and
            # booleans where a list or a domain reads numbers
            {"sigma2": "2.0"},
            {"theta": "1"},
            {"density": dict(uniform_density(), domain={"min": False, "max": True})},
            {"density": dict(uniform_density(), domain={"bounds": [["0", 1.0], [0.0, 1.0]]})},
            {
                "density": dict(centered_density(), kind="normal", params={"mu": 0.0, "sigma": "1"}),
                "mode": {"closed_form": {}},
            },
            {"density": centered_density(), "mode": {"continuum": {"tolerance": "1e-8"}}},
            {"mode": {"discrete": {"K": 2, "init": "explicit", "positions": ["0.2", "0.7"]}}},
            {"density": centered_density(), "mode": {"compare": {"K": [1], "candidates": [True, False, -0.5]}}},
            {"mode": {"discrete": {"K": 1, "damping": "0.5"}}},
        ],
        ids=[
            "sigma2-list", "sigma2-inf", "theta-inf",
            "tolerance-null", "max_steps-inf", "max_iterations-1e308", "resolution-inf",
            "output_dir-null", "theta-1e308", "candidates-inf", "tolerance-inf",
            "position_tolerance-inf", "positions-nan", "sigma2-1e308-overflow",
            "tolerance-typo", "output_dir-typo", "resolution-2.9", "resolution-1e12",
            "K-above-cap", "bounds-1d", "bounds-3d", "intercept-typo", "sigma-typo",
            "candidates-402", "candidates-1e12", "seed-string",
            "positions-without-explicit", "positions-outside-domain",
            "tolerance-negative", "tolerance-zero", "closed_form-off-centre-tiny",
            "compare-off-centre-tiny", "K-true", "seed-true", "candidates-true",
            "compare-K-true", "theta-true", "sigma2-true",
            "max_iterations-true", "max_steps-true", "damping-true",
            "position_tolerance-true", "sigma-true", "sigma2-string", "theta-string",
            "min-max-bools", "bounds-string", "sigma-string", "tolerance-string",
            "positions-string", "candidates-bools", "damping-string",
        ],
    )
    def test_bad_numbers_rejected(self, tmp_path, capsys, overrides):
        assert main(["run", write_scenario(tmp_path, self.base(tmp_path, **overrides))]) == 3
        err = capsys.readouterr().err
        assert err.startswith("invalid scenario: ")
        assert "Traceback" not in err
        # no output of any mode, not even its directory
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "overrides, positions",
        [
            ({"mode": {"discrete": {"K": 2}}}, [5.0 / 12.0, 7.0 / 12.0]),
            (
                {"density": {
                    "kind": "triangular",
                    "params": {"a": 0.0, "c": 0.0, "b": 1.0},
                    "domain": {"min": 0.0, "max": 1.0, "resolution": 2001},
                }},
                [1.0 / 3.0],
            ),
        ],
        ids=["pair", "centroid"],
    )
    def test_huge_noise_power_scales_the_total(self, tmp_path, overrides, positions):
        # the positions do not depend on sigma2, and the total scales with it
        rows = {}
        for sigma2 in (1.0, 1e308):
            obj = self.base(tmp_path, sigma2=sigma2, **overrides)
            obj["output_dir"] = str(tmp_path / str(sigma2))
            assert main(["run", write_scenario(tmp_path, obj), "--quiet"]) == 0
            rows[sigma2] = load_csv(tmp_path / str(sigma2) / "placement.csv")
        totals = {s: load_csv(tmp_path / str(s) / "trace.csv")[-1, 1] for s in rows}
        np.testing.assert_allclose(np.sort(rows[1.0][:, 1]), positions, atol=2e-15)
        np.testing.assert_array_equal(rows[1e308][:, 1], rows[1.0][:, 1])
        assert totals[1e308] == pytest.approx(1e308 * totals[1.0], rel=1e-12)

    @settings(max_examples=150)
    @given(drawn=junk_scenarios())
    def test_junk_values_keep_the_exit_contract(self, tmp_path_factory, drawn):
        scenario, unknown = drawn
        workdir = tmp_path_factory.mktemp("junk")
        path = write_scenario(workdir, scenario)
        cwd = os.getcwd()
        os.chdir(workdir)  # a junk output_dir is a relative path
        err = io.StringIO()
        try:
            with contextlib.redirect_stderr(err):
                code = main(["run", path, "--quiet"])
        finally:
            os.chdir(cwd)
        if unknown is None:
            assert code in {0, 2, 3, 4}
        else:
            assert code == 3
            assert repr(unknown) in err.getvalue()
            assert "Traceback" not in err.getvalue()
            assert os.listdir(workdir) == ["scenario.json"]

    def test_overflowing_throughput_is_named(self, tmp_path, capsys):
        # 2**2000 overflows; the message used to be a bare "math range error"
        assert main(["run", write_scenario(tmp_path, self.base(tmp_path, theta=2000))]) == 3
        assert "throughput 2000.0 must be below 1024" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_terminal_count_is_an_unknown_key(self, tmp_path, capsys):
        # the solvers never read a terminal count, so a scenario does not take one
        assert main(["run", write_scenario(tmp_path, self.base(tmp_path, N=5))]) == 3
        assert "unknown key 'N'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_unknown_mode(self, tmp_path):
        obj = self.base(tmp_path, mode={"annealing": {}})
        assert main(["run", write_scenario(tmp_path, obj)]) == 3

    def test_two_modes(self, tmp_path):
        obj = self.base(tmp_path, mode={"discrete": {"K": 1}, "closed_form": {}})
        assert main(["run", write_scenario(tmp_path, obj)]) == 3

    def test_density_and_demand_together(self, tmp_path):
        obj = self.base(tmp_path, demand={
            "terminal_density": centered_density(),
            "throughput_demand": {"kind": "constant", "params": {"value": 1.0}},
        })
        assert main(["run", write_scenario(tmp_path, obj)]) == 3

    def test_missing_scenario_file(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "absent.json")]) == 2
        assert "cannot read scenario" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        for content in (b"{not json", b"\xff\xfe{", b"[" * 100_000 + b"]" * 100_000):
            path.write_bytes(content)
            assert main(["run", str(path)]) == 2

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main(["optimize"])
        assert exc.value.code == 2

    def test_quiet_suppresses_stdout(self, tmp_path, capsys):
        out = tmp_path / "out"
        scenario = write_scenario(tmp_path, {
            "sigma2": 1.0,
            "theta": 1.0,
            "density": centered_density(),
            "mode": {"closed_form": {}},
            "output_dir": str(out),
        })
        assert main(["run", scenario, "--quiet"]) == 0
        assert capsys.readouterr().out == ""


class TestReproduceFigures:
    def test_emits_all_series(self, tmp_path):
        out = tmp_path / "figures"
        assert main(["reproduce-figures", "--out", str(out), "--grid", "801", "--quiet"]) == 0
        names = sorted(p.name for p in out.iterdir())
        expected = sorted(
            f"{fig}_theta{theta:g}_{kind}.csv"
            for fig in ("fig1", "fig2")
            for theta in (1.0, 2.0, 24.0)
            for kind in ("f", "v")
        )
        assert names == expected

    def test_station_densities_are_normalized(self, tmp_path):
        out = tmp_path / "figures"
        assert main(["reproduce-figures", "--out", str(out), "--grid", "801", "--quiet"]) == 0
        for name in ("fig1_theta1_v.csv", "fig2_theta2_v.csv"):
            data = load_csv(out / name, cols=2)
            assert trapezoid(data[:, 1], data[:, 0]) == pytest.approx(1.0, abs=1e-6)

    def test_bad_arguments_rejected(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("", encoding="utf-8")
        out = str(tmp_path / "figures")
        for extra in (["--grid", "1"], ["--grid", "2"], ["--out", str(blocker / "figures")]):
            assert main(["reproduce-figures", "--out", out, "--quiet", *extra]) == 3
        err = capsys.readouterr().err
        assert err.count("invalid scenario") == 3
        assert "Traceback" not in err

    def test_high_throughput_tracks_terminals(self, tmp_path):
        out = tmp_path / "figures"
        assert main(["reproduce-figures", "--out", str(out), "--grid", "2001", "--quiet"]) == 0
        f = load_csv(out / "fig1_theta24_f.csv", cols=2)
        v = load_csv(out / "fig1_theta24_v.csv", cols=2)
        np.testing.assert_allclose(f[:, 0], v[:, 0], atol=1e-12)
        assert np.max(np.abs(f[:, 1] - v[:, 1])) < 1e-6


class TestWithoutScipy:
    # numpy is the only runtime dependency; the tests use scipy only as a reference
    SCRIPT = (
        "import json, sys\n"
        "sys.modules['scipy'] = None  # any import of scipy or a submodule now fails\n"
        "from backhaulopt.cli import main\n"
        "sys.exit(max(main(argv) for argv in json.loads(sys.argv[1])))\n"
    )

    def test_every_mode_runs_with_scipy_blocked(self, tmp_path):
        planar = {
            "kind": "normal",
            "params": {"mu": [0.4, 1.2], "sigma": [0.3, 0.5]},
            "domain": {"bounds": [[0.0, 1.0], [0.0, 2.0]], "resolution": [21, 31]},
        }
        scenarios = {
            "discrete-2d": (planar, {"discrete": {"K": 5}}),
            # an even node count takes the odd-cell branch of the node Simpson rule
            "continuum": (
                {"kind": "normal", "params": {"mu": 0.0, "sigma": 1.0},
                 "domain": {"min": -8.0, "max": 8.0, "resolution": 400}},
                {"continuum": {}},
            ),
            "compare": (centered_density(), {"compare": {"K": [1, 2], "candidates": 41}}),
        }
        argvs = []
        for name, (density, mode) in scenarios.items():
            obj = {"sigma2": 1.0, "theta": 1.0, "density": density, "mode": mode,
                   "output_dir": str(tmp_path / name)}
            command = "compare" if name == "compare" else "run"
            argvs.append([command, write_scenario(tmp_path, obj, f"{name}.json"), "--quiet"])
        for grid in ("100", "2001"):
            argvs.append(["reproduce-figures", "--out", str(tmp_path / f"fig{grid}"),
                          "--grid", grid, "--quiet"])
        src = str(Path(__file__).resolve().parent.parent / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        done = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, json.dumps(argvs)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        assert done.stderr == ""
        for name in scenarios:
            assert any((tmp_path / name).iterdir())
        assert len(list((tmp_path / "fig100").iterdir())) == 12
