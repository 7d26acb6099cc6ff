import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import trapezoid

from backhaulopt import cli
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
            assert "did not converge" in capsys.readouterr().err

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

    def test_station_count_list_limited(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path, {
            "sigma2": 1.0,
            "theta": 1.0,
            "density": uniform_density(-1.0, 1.0),
            "mode": {"compare": {"K": [1, 2, 3, 3], "candidates": 21}},
            "output_dir": str(tmp_path / "out"),
        })
        assert main(["compare", scenario]) == 3
        assert "station counts" in capsys.readouterr().err

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
    "scenario": ("sigma2", "theta", "N", "density", "mode", "output_dir"),
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
    """A small valid scenario with one scenario, density, domain or mode key set to junk."""
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
    blocks[block][draw(st.sampled_from(JUNK_KEYS[block]))] = draw(JUNK)
    return scenario


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
        return obj

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
            {"N": None},
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
            # finite inputs whose power arithmetic overflows into NaN station positions
            {"sigma2": 1e308, "mode": {"discrete": {"K": 2}}},
            # ... and whose single station would otherwise stay frozen at its start
            {
                "sigma2": 1e308,
                "density": {
                    "kind": "triangular",
                    "params": {"a": 0.0, "c": 0.0, "b": 1.0},
                    "domain": {"min": 0.0, "max": 1.0, "resolution": 2001},
                },
            },
        ],
        ids=[
            "sigma2-list", "N-null", "sigma2-inf", "theta-inf",
            "tolerance-null", "max_steps-inf", "max_iterations-1e308", "resolution-inf",
            "output_dir-null", "theta-1e308", "candidates-inf", "tolerance-inf",
            "position_tolerance-inf", "positions-nan", "sigma2-1e308-overflow",
            "sigma2-1e308-frozen",
        ],
    )
    def test_bad_numbers_rejected(self, tmp_path, capsys, overrides):
        assert main(["run", write_scenario(tmp_path, self.base(tmp_path, **overrides))]) == 3
        assert "Traceback" not in capsys.readouterr().err
        assert not (tmp_path / "out" / "placement.csv").exists()
        assert not (tmp_path / "out" / "bs_density.csv").exists()

    @settings(max_examples=150)
    @given(scenario=junk_scenarios())
    def test_junk_values_keep_the_exit_contract(self, tmp_path_factory, scenario):
        workdir = tmp_path_factory.mktemp("junk")
        path = write_scenario(workdir, scenario)
        cwd = os.getcwd()
        os.chdir(workdir)  # a junk output_dir is a relative path
        try:
            assert main(["run", path, "--quiet"]) in {0, 2, 3, 4}
        finally:
            os.chdir(cwd)

    def test_negative_terminal_count(self, tmp_path):
        assert main(["run", write_scenario(tmp_path, self.base(tmp_path, N=-5))]) == 3

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
