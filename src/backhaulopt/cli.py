"""Command-line front end: scenario files in, CSV plot data out.

Exit codes: 0 success, 2 unreadable or malformed scenario file,
3 semantic validation failure, 4 solver ran but did not converge
(outputs are still written and flagged on stderr).
"""

from __future__ import annotations

import argparse
import json
import math
import operator
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .brute_force import MAX_STATIONS, brute_force_optimize, consistency_report
from .continuum import Measure1D, iterate_fixed_point, optimal_station_density
from .density import DemandField, DensityField, Domain, FunctionSpec, fold_demand
from .discrete_placement import OptimizerConfig, optimize
from .power_model import RadioParams

__all__ = ["main"]

MODES = ("discrete", "continuum", "closed_form", "compare")

# the reproduce-figures scenarios: throughputs from the reference
# simulations, including 24 where the dilation is ~2.4e-7
FIGURE_THETAS = (1.0, 2.0, 24.0)


class ScenarioError(ValueError):
    """Scenario parsed but failed semantic validation."""


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def _write_csv(path: Path, header: str, rows) -> None:
    lines = [header]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _require(obj, key, context):
    if key not in obj:
        raise ScenarioError(f"missing {key!r} in {context}")
    return obj[key]


def _number(obj, key, kind=float, default=None):
    """A finite number from the scenario, converted by `kind`; required
    unless a default is given. Counts use `operator.index`, which rejects
    floats such as 2.5 or 1e308 instead of truncating them."""
    value = _require(obj, key, "scenario") if default is None else obj.get(key, default)
    try:
        value = kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ScenarioError(f"{key!r} must be a number: {exc}") from exc
    if not math.isfinite(value):
        raise ScenarioError(f"{key!r} must be finite")
    return value


def _finite_array(obj, key) -> np.ndarray:
    values = np.asarray(obj[key], dtype=float)
    if not np.isfinite(values).all():
        raise ScenarioError(f"{key!r} must be finite")
    return values


def _parse_spec(obj, context) -> FunctionSpec:
    if not isinstance(obj, dict):
        raise ScenarioError(f"{context} must be an object")
    kind = _require(obj, "kind", context)
    params = obj.get("params", {})
    if not isinstance(params, dict):
        raise ScenarioError(f"{context} params must be an object")
    return FunctionSpec(str(kind), dict(params))


def _parse_domain(obj, context, grid=None) -> Domain:
    if not isinstance(obj, dict):
        raise ScenarioError(f"{context} must be an object")
    if "bounds" in obj:
        bounds = [tuple(map(float, b)) for b in obj["bounds"]]
        res = obj.get("resolution", 201)
        res = tuple(int(r) for r in (res if isinstance(res, list) else [res] * len(bounds)))
        if grid is not None:
            res = tuple(int(grid) for _ in res)
        if len(bounds) == 1:
            return Domain.interval(*bounds[0], resolution=res[0])
        return Domain.rectangle(bounds[0], bounds[1], resolution=res)
    lo = float(_require(obj, "min", context))
    hi = float(_require(obj, "max", context))
    res = int(grid if grid is not None else obj.get("resolution", 2001))
    return Domain.interval(lo, hi, resolution=res)


def _build_field(scenario, grid) -> DensityField:
    has_density = "density" in scenario
    has_demand = "demand" in scenario
    if has_density == has_demand:
        raise ScenarioError("scenario needs exactly one of 'density' or 'demand'")
    if has_density:
        theta = _number(scenario, "theta")
        if not theta > 0:
            raise ScenarioError("theta must be positive")
        block = scenario["density"]
        spec = _parse_spec(block, "density")
        domain = _parse_domain(_require(block, "domain", "density"), "density.domain", grid)
        return DensityField.from_spec(spec, theta, domain)
    if "theta" in scenario:
        raise ScenarioError("'theta' is folded from 'demand'; specify only one")
    block = scenario["demand"]
    density_block = _require(block, "terminal_density", "demand")
    domain = _parse_domain(
        _require(density_block, "domain", "terminal_density"),
        "terminal_density.domain",
        grid,
    )
    demand = DemandField(
        domain,
        _parse_spec(density_block, "terminal_density"),
        _parse_spec(_require(block, "throughput_demand", "demand"), "throughput_demand"),
    )
    return fold_demand(demand)


def _parse_scenario(scenario, grid, seed):
    if not isinstance(scenario, dict):
        raise ScenarioError("scenario must be a JSON object")
    sigma2 = _number(scenario, "sigma2")
    if not sigma2 > 0:
        raise ScenarioError("sigma2 must be positive")
    if "N" in scenario and _number(scenario, "N", int) < 0:
        raise ScenarioError("N must be nonnegative")

    mode = _require(scenario, "mode", "scenario")
    if not isinstance(mode, dict) or len(mode) != 1 or next(iter(mode)) not in MODES:
        raise ScenarioError(f"'mode' must contain exactly one of {MODES}")

    d = _build_field(scenario, grid)
    params = RadioParams(noise_power=sigma2, throughput=d.throughput)
    mode_name, mode_cfg = next(iter(mode.items()))
    if not isinstance(mode_cfg, dict):
        raise ScenarioError(f"mode.{mode_name} must be an object")
    if seed is not None and mode_name == "discrete":
        mode_cfg = dict(mode_cfg, seed=seed)
    return d, params, mode_name, mode_cfg


def _run_discrete(d, params, cfg_obj, outdir, quiet) -> int:
    K = _number(cfg_obj, "K", operator.index)
    options = {f.name: f.default for f in fields(OptimizerConfig)}
    extra = set(cfg_obj) - set(options) - {"K"}
    if extra:
        raise ScenarioError(f"unknown discrete options: {sorted(extra)}")
    kwargs = dict(options, **{k: v for k, v in cfg_obj.items() if k != "K"})
    kwargs["max_iterations"] = _number(kwargs, "max_iterations", operator.index)
    kwargs["position_tolerance"] = _number(kwargs, "position_tolerance")
    if kwargs["positions"] is not None:
        kwargs["positions"] = _finite_array(kwargs, "positions")
    cfg = OptimizerConfig(**kwargs)

    solution = optimize(d, K, params, cfg)

    pos = solution.positions
    report = solution.report
    coord_cols = "x" if d.domain.ndim == 1 else "x,y"
    _write_csv(
        outdir / "placement.csv",
        f"index,{coord_cols},m_i,intra_i",
        (
            (i, *pos[i], solution.traffic.per_station[i], report.intra_per_cell[i])
            for i in range(K)
        ),
    )
    _write_csv(
        outdir / "pairs.csv",
        "i,j,d_ij,P_ij",
        (
            (i, j, float(np.linalg.norm(pos[i] - pos[j])), report.inter_per_pair[i, j])
            for i in range(K)
            for j in range(K)
            if i != j
        ),
    )
    _write_csv(
        outdir / "trace.csv",
        "iter,total",
        ((k, t) for k, t in enumerate(solution.trace)),
    )
    if not quiet:
        print(f"total power {report.total:.12g} after {solution.iterations} iterations")
        print(f"wrote placement.csv, pairs.csv, trace.csv to {outdir}")
    if not solution.converged:
        print("warning: position iteration did not converge; outputs are partial", file=sys.stderr)
        return 4
    return 0


def _station_measure_csv(path: Path, nu: Measure1D) -> None:
    prob = nu.normalized()
    _write_csv(path, "y,v", zip(prob.grid, prob.values))


def _run_continuum(d, params, cfg_obj, outdir, quiet) -> int:
    tolerance = _number(cfg_obj, "tolerance", default=1e-8)
    max_steps = _number(cfg_obj, "max_steps", operator.index, default=50)
    if "nu0" in cfg_obj:
        block = cfg_obj["nu0"]
        spec = _parse_spec(block, "nu0")
        domain = _parse_domain(_require(block, "domain", "nu0"), "nu0.domain")
        nu0 = Measure1D.from_density(DensityField.from_spec(spec, 1.0, domain), params.throughput)
    else:
        nu0 = Measure1D.from_density(d, params.throughput)
    result = iterate_fixed_point(d, nu0, params, tolerance=tolerance, max_steps=max_steps)

    _station_measure_csv(outdir / "bs_density.csv", result.measure)
    if not quiet:
        print(
            f"fixed point after {result.steps} steps, "
            f"last change {result.last_change:.3g}; wrote bs_density.csv to {outdir}"
        )
    if not result.converged:
        print("warning: fixed-point iteration did not converge; bs_density.csv is the last iterate", file=sys.stderr)
        return 4
    return 0


def _run_closed_form(d, params, cfg_obj, outdir, quiet) -> int:
    if cfg_obj:
        raise ScenarioError("mode.closed_form takes no options")
    nu = optimal_station_density(d, params.throughput)
    _station_measure_csv(outdir / "bs_density.csv", nu)
    if not quiet:
        print(f"wrote bs_density.csv to {outdir}")
    return 0


def _run_compare(d, params, cfg_obj, outdir, quiet) -> int:
    Ks = _require(cfg_obj, "K", "mode.compare")
    if not isinstance(Ks, list) or not Ks:
        raise ScenarioError("mode.compare K must be a nonempty list")
    if len(Ks) > MAX_STATIONS:
        raise ScenarioError(f"at most {MAX_STATIONS} station counts per report")
    Ks = [operator.index(K) for K in Ks]
    if isinstance(cfg_obj.get("candidates"), list):
        candidates = _finite_array(cfg_obj, "candidates")
    else:
        lo, hi = d.domain.bounds[0]
        candidates = np.linspace(lo, hi, _number(cfg_obj, "candidates", operator.index, default=101))

    # the closed form rejects an off-centre density; do so before the searches
    optimal_station_density(d, params.throughput)
    searches = [brute_force_optimize(d, K, params, candidates) for K in Ks]
    rows = consistency_report(d, searches)
    _write_csv(
        outdir / "consistency.csv",
        "K,theta,discrete_spread,continuum_spread,ratio,f_spread,lambda",
        (
            (r.K, r.theta, r.discrete_spread, r.continuum_spread, r.ratio, r.f_spread, r.dilation)
            for r in rows
        ),
    )
    _write_csv(
        outdir / "placement.csv",
        "K,index,x,m_i",
        (
            (K, i, x, m_i)
            for K, best in zip(Ks, searches)
            for i, (x, m_i) in enumerate(zip(best.positions, best.traffic))
        ),
    )
    if not quiet:
        for r in rows:
            print(
                f"K={r.K}: discrete/f spread ratio {r.ratio:.6g}, "
                f"asymptotic dilation {r.dilation:.6g}"
            )
        print(f"wrote consistency.csv, placement.csv to {outdir}")
    return 0


_MODE_RUNNERS = {
    "discrete": _run_discrete,
    "continuum": _run_continuum,
    "closed_form": _run_closed_form,
    "compare": _run_compare,
}


def _figure_density(name: str, resolution: int) -> DensityField:
    if name == "fig1":
        spec = FunctionSpec("normal", {"mu": 0.0, "sigma": 1.0})
        domain = Domain.interval(-8.0, 8.0, resolution)
    else:
        spec = FunctionSpec("truncated_normal", {"mu": 0.0, "sigma": 1.0, "a": -1.0, "b": 1.0})
        domain = Domain.interval(-1.0, 1.0, resolution)
    return DensityField.from_spec(spec, 1.0, domain)


def _reproduce_figures(outdir: Path, grid, quiet) -> int:
    resolution = int(grid) if grid is not None else 2001
    for name in ("fig1", "fig2"):
        d = _figure_density(name, resolution)
        a, b = d.domain.bounds[0]
        for theta in FIGURE_THETAS:
            nu = optimal_station_density(d, theta)
            y = nu.grid
            inside = (y >= a) & (y <= b)
            f_vals = np.zeros_like(y)
            f_vals[inside] = d.eval(np.clip(y[inside], a, b))
            label = f"{name}_theta{theta:g}"
            _write_csv(outdir / f"{label}_f.csv", "y,f", zip(y, f_vals))
            _station_measure_csv(outdir / f"{label}_v.csv", nu)
            if not quiet:
                print(f"wrote {label}_f.csv, {label}_v.csv")
    if not quiet:
        print(f"figure data in {outdir}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="backhaulopt",
        description="Station placement and power planning from scenario files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--grid", type=int, default=None, help="grid resolution override")
        p.add_argument("--seed", type=int, default=None, help="seed override for randomized inits")
        p.add_argument("--quiet", action="store_true", help="suppress progress output")

    p_run = sub.add_parser("run", help="run the scenario's solver mode")
    p_run.add_argument("scenario", help="scenario JSON file")
    add_common(p_run)

    p_fig = sub.add_parser("reproduce-figures", help="emit reference figure data")
    p_fig.add_argument("--out", default="figures", help="output directory")
    add_common(p_fig)

    p_cmp = sub.add_parser("compare", help="discrete vs asymptotic consistency report")
    p_cmp.add_argument("scenario", help="scenario JSON file with a compare mode")
    add_common(p_cmp)

    args = parser.parse_args(argv)

    if args.command != "reproduce-figures":
        try:
            scenario = json.loads(Path(args.scenario).read_text(encoding="utf-8"))
        except (OSError, ValueError, RecursionError) as exc:  # not UTF-8, not JSON, too deep
            print(f"cannot read scenario: {exc}", file=sys.stderr)
            return 2

    # the one place where a bad scenario or command-line value becomes exit 3;
    # OSError is an output directory that cannot be made or written
    try:
        if args.command == "reproduce-figures":
            outdir = Path(args.out)
            outdir.mkdir(parents=True, exist_ok=True)
            return _reproduce_figures(outdir, args.grid, args.quiet)
        d, params, mode_name, mode_cfg = _parse_scenario(scenario, args.grid, args.seed)
        if args.command == "compare" and mode_name != "compare":
            raise ScenarioError("the compare command needs a scenario with a compare mode")
        outdir = Path(scenario.get("output_dir", "."))
        outdir.mkdir(parents=True, exist_ok=True)
        return _MODE_RUNNERS[mode_name](d, params, mode_cfg, outdir, args.quiet)
    except (ValueError, TypeError, LookupError, ArithmeticError, OSError) as exc:
        print(f"invalid scenario: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
