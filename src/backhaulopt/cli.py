"""Command-line front end: scenario files in, CSV plot data out.

Exit codes: 0 success, 2 unreadable or malformed scenario file,
3 semantic validation failure, 4 solver ran but did not converge
(outputs are still written and flagged on stderr).

A CSV value has the bytes of `'%d'` (integer columns) or `'%.17g'`
(all others). Numpy formats them a chunk of rows at a time; a value the
fast path cannot certify (nan, infinities, the extremes of the range, a
near-tie) is formatted by `%` on its own.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
from dataclasses import astuple
from pathlib import Path

import numpy as np

from .brute_force import MAX_CANDIDATES, _gain_and_kappa, brute_force_optimize, consistency_report
from .continuum import Measure1D, iterate_fixed_point, optimal_station_density
from .density import DemandField, DensityField, Domain, FunctionSpec, _check_count, _positive, fold_demand
from .discrete_placement import OptimizerConfig, optimize
from .power_model import RadioParams

__all__ = ["main"]

MODES = ("discrete", "continuum", "closed_form", "compare")
SCENARIO_KEYS = ("sigma2", "theta", "density", "demand", "mode", "output_dir")

# the reproduce-figures scenarios: throughputs from the reference
# simulations, including 24 where the dilation is ~2.4e-7
FIGURE_THETAS = (1.0, 2.0, 24.0)

# Largest K of a discrete run: pairs.csv has K(K - 1) rows, and its
# ordered pair indices come from a K x K mask.
MAX_STATION_COUNT = 1024


# rows formatted per write, so a file's text is never held whole
_CSV_ROWS = 1024

# The float writer gathers each cell's text from 28 source bytes,
#   0 '-'  1 '0'  2 '.'  3-19 the 17 digits  20 'e'  21 exponent sign
#   22-24 three exponent digits  25 separator  26 none,
# by a template of positions chosen by the cell's sign, digit count and
# class: 0-20 fixed notation at exponents -4..16, 21 e±dd, 22 e±ddd,
# 23 a zero, 24 a cell that the exact formatter fills.
_E_LOW, _E_HIGH = -282, 282  # the fast path's decimal exponents, and a carry
_ZERO, _EXACT = _E_HIGH - _E_LOW + 1, _E_HIGH - _E_LOW + 2  # their table rows
_WIDTH = 25  # the longest cell: -d.dddddddddddddddde-ddd and its separator


def _word(text: str) -> np.uint32:
    """Up to four ASCII bytes, in memory order, as one word."""
    return np.frombuffer(text.encode("ascii").ljust(4, b"\0"), dtype=np.uint32)[0]


@functools.cache
def _tables():
    """The float writer's tables, built on first use from exact ints:
    10**(16 − E) as hi + lo with hi's Veltkamp halves, the digit and
    exponent words, the templates, and each exponent's template row."""
    scale = []
    for s in range(16 - _E_LOW, 15 - _E_HIGH, -1):
        num, den = 10 ** max(s, 0), 10 ** max(-s, 0)
        hi = num / den  # int true division rounds correctly
        n, d = hi.as_integer_ratio()
        scale.append((hi, (num * d - n * den) / (den * d)))
    hi, lo = np.array(scale + [(1.0, 0.0)] * 2).T
    c = hi * 134217729.0  # 2**27 + 1
    h1 = c - (c - hi)
    scale = np.stack([hi, lo, h1, hi - h1])
    lead = np.array([_word(f"-0.{d}") for d in (*range(10), 1)])  # 10: a carried 10**17
    quads = np.arange(10_000)[:, None] // np.array([1000, 100, 10, 1]) % 10 + 48
    quads = quads.astype(np.uint8).view(np.uint32).ravel()  # "0000" to "9999"
    exps = [f"e{e:+04d}" for e in range(_E_LOW, _E_HIGH + 1)]
    exps = np.array([(_word(t[:4]), _word(t[4:])) for t in exps] + [(0, 0)] * 2, dtype=np.uint32).T

    digits = list(range(3, 20))
    templates = np.full((2, 25, 17, _WIDTH), 26, dtype=np.uint8)
    for sign, cls, k in itertools.product(range(2), range(24), range(1, 18)):
        e = cls - 4
        if cls == 23:
            body = [1]
        elif cls > 20:  # d.ddde±dd(d)
            body = digits[:1] + [2] * (k > 1) + digits[1:k] + [20, 21] + [22] * (cls == 22) + [23, 24]
        elif e < 0:  # 0.000ddd
            body = [1, 2] + [1] * (-e - 1) + digits[:k]
        else:  # ddd or ddd.ddd
            body = digits[:max(k, e + 1)]
            body[e + 1:e + 1] = [2] * (k > e + 1)
        cell = [0] * sign + body + [25]
        templates[sign, cls, k - 1, :len(cell)] = cell
    e = np.arange(_E_LOW, _E_HIGH + 1)
    cls = np.where((e < -4) | (e > 16), 21 + (np.abs(e) >= 100), e + 4)
    key = np.append(cls, [23, 24]) * 17 + 16  # the class's row of 17 digits
    return scale, lead, quads, exps, templates.reshape(-1, _WIDTH), key


def _round17(x: np.ndarray, bound: np.ndarray):
    """Each value of `x` rounded to 17 significant digits n in [1e16, 1e17],
    and its row of the writer's tables: its decimal exponent less _E_LOW,
    _ZERO, or _EXACT where the fast path does not certify n.

    The fast path takes finite nonzero |x| from 1e-280 up to `bound`. It
    scales |x| by 10**(16 − E), E = floor(log10|x|), in double-double
    arithmetic (Dekker's exact product), good to about 1e-14, and rounds
    to the nearest integer. A product whose fraction lies within 2**-30
    of one half, or whose floor falls outside [1e16, 1e17) where log10
    misses at a power of ten, is not certified.
    """
    scale = _tables()[0]
    a = np.abs(x)
    fast = (a >= 1e-280) & (a <= bound)
    np.copyto(a, 1.0, where=~fast)
    e = np.floor(np.log10(a)).astype(np.intp)
    e -= _E_LOW
    hi, lo, h1, h2 = scale[:, e]
    c = a * 134217729.0
    a1 = c - (c - a)
    a2 = a - a1
    p = a * hi
    # a·hi is p plus the first four terms exactly (Dekker); a·lo adds the rest
    err = (a1 * h1 - p) + a1 * h2 + a2 * h1 + a2 * h2 + a * lo
    whole = np.floor(p)
    frac = (p - whole) + err
    step = np.floor(frac)
    frac -= step
    n = whole.astype(np.int64)
    n += step.astype(np.int64)
    fast &= np.abs(frac - 0.5) >= 2.0**-30
    fast &= (n >= 10**16) & (n < 10**17)
    n += frac > 0.5
    e += n == 10**17  # a carry adds a digit: one more in the exponent
    np.copyto(n, 10**16, where=~fast)
    e[~fast] = _EXACT
    e[x == 0] = _ZERO
    return n.ravel(), e.ravel()


def _format_rows(x: np.ndarray, bound: np.ndarray, sep: np.ndarray):
    """The text of `x` (rows × columns), one bytes object per cell in row
    order, each `'%.17g' % value` and its column's separator, and the flat
    indices of the cells that `_round17` left empty for the exact formatter."""
    _, lead, quads, exps, templates, key = _tables()
    n, e = _round17(x, bound)
    # the lead digit, then four groups of four as (high, low) halves
    groups = np.empty((n.size, 2, 2), dtype=np.int64)
    np.floor_divide(n, 10**8, out=groups[:, 0, 1])
    np.subtract(n, groups[:, 0, 1] * 10**8, out=groups[:, 1, 1])
    first = groups[:, 0, 1] // 10**8
    groups[:, 0, 1] -= first * 10**8
    np.floor_divide(groups[..., 1], 10**4, out=groups[..., 0])
    groups[..., 1] -= groups[..., 0] * 10**4

    src = np.empty((n.size, 7), dtype=np.uint32)
    np.take(lead, first, out=src[:, 0])
    src[:, 1:5] = np.take(quads, groups.reshape(-1, 4))
    np.take(exps[0], e, out=src[:, 5])
    np.add(np.take(exps[1], e).reshape(x.shape), sep, out=src[:, 6].reshape(x.shape))
    src = src.view(np.uint8)
    del n, groups, first  # free what is done with before the 8-byte gather index
    zeros = np.argmax(src[:, 19:2:-1] != 48, axis=-1)  # trailing zeros of the 17 digits
    cell = np.take(key, e) - zeros
    cell += np.signbit(x).ravel() * (25 * 17)  # the negative templates follow the positive
    index = np.take(templates, cell, axis=0).astype(np.intp)
    del zeros, cell
    index += np.arange(0, src.size, 28)[:, None]
    text = np.take(src, index)
    del index
    return text.view(f"S{_WIDTH}").ravel().tolist(), np.flatnonzero(e == _EXACT)


def _write_csv(path: Path, header: str, *columns) -> None:
    """Write equal-length 1-D columns under `header`: integer columns with
    the bytes of `'%d'`, all others with those of `'%.17g'`, so values
    parse back exactly. Rows go out `_CSV_ROWS` at a time, formatted by
    `_format_rows` all columns at once; a cell it cannot certify is
    formatted alone by `%`."""
    columns = [np.asarray(c) for c in columns]
    ints = [c.dtype.kind in "iu" for c in columns]
    fmts = ["%d" if i else "%.17g" for i in ints]
    ends = [","] * (len(columns) - 1) + ["\n"]
    sep = np.array([_word("\0" + end) for end in ends])
    # integer columns take the float path where float64 holds them exactly
    bound = np.where(ints, 2.0**53 - 1, 1e280)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("wb") as fh:
        fh.write(header.encode("utf-8") + b"\n")
        for lo in range(0, len(columns[0]), _CSV_ROWS):
            x = np.column_stack([c[lo:lo + _CSV_ROWS] for c in columns]).astype(float, copy=False)
            text, exact = _format_rows(x, bound, sep)
            for cell in exact.tolist():
                row, col = divmod(cell, len(columns))
                text[cell] = (fmts[col] % columns[col][lo + row].item() + ends[col]).encode("ascii")
            fh.write(b"".join(text))


def _require(obj, key, context):
    if key not in obj:
        raise ValueError(f"missing {key!r} in {context}")
    return obj[key]


def _object(obj, context, keys):
    """`obj` as a scenario object whose keys all lie in `keys`."""
    if not isinstance(obj, dict):
        raise ValueError(f"{context} must be an object")
    unknown = sorted(set(obj) - set(keys))
    if unknown:
        raise ValueError(f"unknown key {unknown[0]!r} in {context}; it takes {', '.join(keys)}")
    return obj


def _parse_spec(obj, context, keys=("kind", "params")) -> FunctionSpec:
    _object(obj, context, keys)
    params = obj.get("params", {})
    if not isinstance(params, dict):
        raise ValueError(f"{context} params must be an object")
    return FunctionSpec(str(_require(obj, "kind", context)), dict(params))


def _parse_density(obj, context, grid=None):
    """A density spec and the domain it carries."""
    spec = _parse_spec(obj, context, ("kind", "params", "domain"))
    return spec, _parse_domain(_require(obj, "domain", context), f"{context}.domain", grid)


def _parse_domain(obj, context, grid=None) -> Domain:
    if isinstance(obj, dict) and "bounds" in obj:
        _object(obj, context, ("bounds", "resolution"))
        bounds = obj["bounds"]
        if not isinstance(bounds, list) or len(bounds) != 2:
            raise ValueError(
                f"{context} bounds must hold two [lower, upper] pairs; give an interval as min and max"
            )
        res = obj.get("resolution", 201) if grid is None else grid
        res = res if isinstance(res, list) else [res, res]
        return Domain(tuple(map(tuple, bounds)), tuple(res))
    _object(obj, context, ("min", "max", "resolution"))
    res = obj.get("resolution", 2001) if grid is None else grid
    return Domain.interval(_require(obj, "min", context), _require(obj, "max", context), res)


def _build_field(scenario, grid) -> DensityField:
    has_density = "density" in scenario
    has_demand = "demand" in scenario
    if has_density == has_demand:
        raise ValueError("scenario needs exactly one of 'density' or 'demand'")
    if has_density:
        theta = _positive(_require(scenario, "theta", "scenario"), "'theta'")
        spec, domain = _parse_density(scenario["density"], "density", grid)
        return DensityField.from_spec(spec, theta, domain)
    if "theta" in scenario:
        raise ValueError("'theta' is folded from 'demand'; specify only one")
    block = _object(scenario["demand"], "demand", ("terminal_density", "throughput_demand"))
    spec, domain = _parse_density(_require(block, "terminal_density", "demand"), "terminal_density", grid)
    demand = _parse_spec(_require(block, "throughput_demand", "demand"), "throughput_demand")
    return fold_demand(DemandField(domain, spec, demand))


def _parse_scenario(scenario, grid, seed):
    _object(scenario, "scenario", SCENARIO_KEYS)
    sigma2 = _positive(_require(scenario, "sigma2", "scenario"), "'sigma2'")

    mode = _object(_require(scenario, "mode", "scenario"), "mode", MODES)
    if len(mode) != 1:
        raise ValueError(f"'mode' must contain exactly one of {MODES}")

    d = _build_field(scenario, grid)
    params = RadioParams(noise_power=sigma2, throughput=d.throughput)
    mode_name, mode_cfg = next(iter(mode.items()))
    if not isinstance(mode_cfg, dict):
        raise ValueError(f"mode.{mode_name} must be an object")
    if seed is not None and mode_name == "discrete":
        mode_cfg = dict(mode_cfg, seed=seed)
    return d, params, mode_name, mode_cfg


def _run_discrete(d, params, outdir, quiet, K, **options) -> int:
    """`options` are `OptimizerConfig`'s fields; it rejects any other key."""
    _check_count(K, "'K'", 1, MAX_STATION_COUNT)
    cfg = OptimizerConfig(**options)
    solution = optimize(d, K, params, cfg)

    pos = solution.positions
    report = solution.report
    coord_cols = "x" if d.domain.ndim == 1 else "x,y"
    _write_csv(
        outdir / "placement.csv",
        f"index,{coord_cols},m_i,intra_i",
        np.arange(K), *pos.T, report.traffic.per_station, report.intra_per_cell,
    )
    i, j = np.nonzero(~np.eye(K, dtype=bool))  # ordered pairs, row-major
    d2 = np.sum((pos[i] - pos[j]) ** 2, axis=1)
    t = report.traffic.per_station
    # each ordered pair's backhaul power, sigma2 * m_i * m_j * d_ij^2 / m
    P_ij = params.noise_power / report.traffic.total * (t[i] * t[j]) * d2
    _write_csv(outdir / "pairs.csv", "i,j,d_ij,P_ij", i, j, np.sqrt(d2), P_ij)
    trace = solution.trace
    # the cost the optimizer descends: the access power alone without the backhaul term
    header = "iter,total" if cfg.include_inter else "iter,intra_total"
    _write_csv(outdir / "trace.csv", header, np.arange(len(trace)), trace)
    if not quiet:
        print(f"total power {report.total:.12g} after {solution.iterations} iterations")
        print(f"wrote placement.csv, pairs.csv, trace.csv to {outdir}")
    if not solution.converged:
        print("warning: position iteration did not converge; outputs are partial", file=sys.stderr)
        return 4
    return 0


def _station_measure_csv(path: Path, nu: Measure1D) -> None:
    prob = nu.normalized()
    _write_csv(path, "y,v", prob.grid, prob.values)


def _run_continuum(d, params, outdir, quiet, tolerance=1e-8, max_steps=50, nu0=None) -> int:
    tolerance = _positive(tolerance, "'tolerance'")
    _check_count(max_steps, "'max_steps'", 1)
    if nu0 is not None:
        spec, domain = _parse_density(nu0, "nu0")
        nu0 = Measure1D.from_density(DensityField.from_spec(spec, 1.0, domain), params.throughput)
    else:
        nu0 = Measure1D.from_density(d, params.throughput)
    result = iterate_fixed_point(d, nu0, params, tolerance=tolerance, max_steps=max_steps)

    _station_measure_csv(outdir / "bs_density.csv", result.measure)
    if not quiet:
        outcome = "fixed point" if result.converged else "stopped"
        print(
            f"{outcome} after {result.steps} steps, "
            f"last change {result.last_change:.3g}; wrote bs_density.csv to {outdir}"
        )
    if not result.converged:
        print("warning: fixed-point iteration did not converge; bs_density.csv is the last iterate", file=sys.stderr)
        return 4
    return 0


def _run_closed_form(d, params, outdir, quiet) -> int:
    nu = optimal_station_density(d, params.throughput)
    _station_measure_csv(outdir / "bs_density.csv", nu)
    if not quiet:
        print(f"wrote bs_density.csv to {outdir}")
    return 0


def _run_compare(d, params, outdir, quiet, K, candidates=101) -> int:
    if not isinstance(K, list) or not K:
        raise ValueError("mode.compare K must be a nonempty list")
    if len(K) > MAX_CANDIDATES:
        raise ValueError(f"at most {MAX_CANDIDATES} station counts per report")
    for k in K:
        _check_count(k, "'K'", 1)
    if not isinstance(candidates, list):  # a count; brute_force_optimize checks a list
        _check_count(candidates, "'candidates'", 0, MAX_CANDIDATES)  # before np.linspace allocates
        lo, hi = d.domain.bounds[0]
        candidates = np.linspace(lo, hi, candidates)

    # the closed form rejects an off-centre density; do so before the searches
    optimal_station_density(d, params.throughput)
    searches = [brute_force_optimize(d, k, params, candidates) for k in K]
    rows = consistency_report(d, searches)
    _write_csv(
        outdir / "consistency.csv",
        "K,theta,discrete_spread,continuum_spread,ratio,f_spread,lambda",
        *zip(*map(astuple, rows)),  # the report's fields, in header order
    )
    _write_csv(
        outdir / "placement.csv",
        "K,index,x,m_i",
        np.repeat(K, K),
        np.concatenate([np.arange(k) for k in K]),
        np.concatenate([best.positions for best in searches]),
        np.concatenate([best.traffic for best in searches]),
    )
    if not quiet:
        # kappa = A/(A + 2·sigma2·tau), the contraction of problem (b)'s optimum
        kappa = _gain_and_kappa(d, params)[1]
        for r in rows:
            print(
                f"K={r.K}: discrete/f spread ratio {r.ratio:.6g}, "
                f"kappa {kappa:.6g}, asymptotic dilation {r.dilation:.6g}"
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
    resolution = grid if grid is not None else 2001
    for name in ("fig1", "fig2"):
        d = _figure_density(name, resolution)
        a, b = d.domain.bounds[0]
        for theta in FIGURE_THETAS:
            nu = optimal_station_density(d, theta)
            y = nu.grid
            f_vals = np.where((y >= a) & (y <= b), d.eval(np.clip(y, a, b)), 0.0)
            label = f"{name}_theta{theta:g}"
            _write_csv(outdir / f"{label}_f.csv", "y,f", y, f_vals)
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
            return _reproduce_figures(Path(args.out), args.grid, args.quiet)
        d, params, mode_name, mode_cfg = _parse_scenario(scenario, args.grid, args.seed)
        if args.command == "compare" and mode_name != "compare":
            raise ValueError("the compare command needs a scenario with a compare mode")
        outdir = Path(scenario.get("output_dir", "."))
        return _MODE_RUNNERS[mode_name](d, params, outdir, args.quiet, **mode_cfg)
    except (ValueError, TypeError, LookupError, ArithmeticError, OSError) as exc:
        print(f"invalid scenario: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
