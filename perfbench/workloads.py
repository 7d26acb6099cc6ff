"""The four benchmark workloads.

A workload's constructor is its set-up: it generates the seeded inputs,
builds the densities and fills their lazy moment caches. `op(i)` is one
timed operation, called through the package's module attributes so the
tracer's wrappers see it. `check(i, out)` is the correctness gate for
that op; it runs outside the timed region, raises `CheckFailed` on a
wrong result, and returns the op's facts: its final total power and the
bytes it wrote. `instance(i)` names the input an op solves; ops on the
same instance reach the same power up to the jitter of their start.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import numpy as np

import inputs
from backhaulopt import cli, discrete_placement
from backhaulopt.brute_force import midpoint_total_power, naive_total_power
from backhaulopt.continuum import dilation_factor
from backhaulopt.density import DensityField, Domain, FunctionSpec
from backhaulopt.power_model import RadioParams

# Per-op draws are generated up front; longer runs wrap around.
DRAWS = 20_000


class CheckFailed(Exception):
    """An op returned a wrong result."""


class Placement:
    """`optimize` with jittered starts on seeded densities.

    All `densities` are built in set-up and ops cycle through them, so a
    run's median covers several hotspot layouts instead of one. Every
    op is checked for convergence and a monotone trace; every
    `naive_every`-th op (seeded offset) is also re-priced by the
    independent loop-based `naive_total_power`.
    """

    def __init__(self, seed, densities, stations, naive_every):
        rng = np.random.default_rng([seed, 1])
        self.params = RadioParams(noise_power=1.0, throughput=1.0)
        self.densities = densities
        for d in densities:
            d.cell_first_moments()
            d.cell_second_moments()
        lo, hi = stations
        self.stations = inputs.station_counts(rng, DRAWS, lo, hi)
        self.seeds = inputs.jitter_seeds(rng, DRAWS)
        self.naive_every = naive_every
        self.naive_offset = seed % naive_every

    def instance(self, i):
        return i % len(self.densities), self.stations[i % DRAWS]

    def op(self, i):
        j = i % DRAWS
        cfg = discrete_placement.OptimizerConfig(init="jitter", seed=self.seeds[j])
        d = self.densities[i % len(self.densities)]
        return discrete_placement.optimize(d, self.stations[j], self.params, cfg)

    def check(self, i, sol):
        if not sol.converged:
            raise CheckFailed(f"op {i}: did not converge in {sol.iterations} iterations")
        rise = np.diff(sol.trace)
        if np.any(rise > 1e-12 * np.maximum(1.0, np.abs(sol.trace[:-1]))):
            raise CheckFailed(f"op {i}: power trace rose by {rise.max():.3g}")
        if (i + self.naive_offset) % self.naive_every == 0:
            d = self.densities[i % len(self.densities)]
            naive = naive_total_power(sol.positions, sol.partition.assignment, d, self.params)
            if abs(naive - sol.report.total) > 1e-9 * max(1.0, abs(naive)):
                raise CheckFailed(f"op {i}: total {sol.report.total!r} but naive {naive!r}")
        return sol.report.total, 0


def _hotspot_fields(seed, ndim, resolution, per_axis, layouts):
    rng = np.random.default_rng([seed, 0])
    domain = Domain(((0.0, 1.0),) * ndim, (resolution,) * ndim)
    return [
        DensityField.from_spec(
            FunctionSpec("grid", {"values": inputs.hotspot_values(rng, ndim, resolution, per_axis)}),
            1.0,
            domain,
        )
        for _ in range(layouts)
    ]


def placement_2d(seed, tiny, workdir):
    res = 41 if tiny else 201
    return Placement(seed, _hotspot_fields(seed, 2, res, 3, 8), (16, 16), 1 if tiny else 10)


def placement_1d(seed, tiny, workdir):
    res = 2001 if tiny else 200_001
    return Placement(seed, _hotspot_fields(seed, 1, res, 8, 4), (16, 16), 1 if tiny else 10)


def placement_small(seed, tiny, workdir):
    d = DensityField.from_spec(
        FunctionSpec("triangular", {"a": 0.0, "c": 0.35, "b": 1.0}),
        1.0,
        Domain.interval(0.0, 1.0, 2001),
    )
    return Placement(seed, [d], (2, 8), 1)


def _read_csv(path):
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        rows = np.loadtxt(fh, delimiter=",", ndmin=2)
    if rows.shape[1] != len(header) or rows.shape[0] == 0 or not np.all(np.isfinite(rows)):
        raise CheckFailed(f"{path.name}: malformed CSV")
    return dict(zip(header, rows.T))


class Asymptotic:
    """One CLI study per op: continuum run, closed-form run, compare, figures.

    Makes no `optimize` calls. The gate checks exit codes, parses every
    CSV, compares the `lambda` column with `dilation_factor(theta)` and the
    fixed-point density with the closed form, and prices the compare
    placements with the midpoint-rule reference.
    """

    FIGURES = 12

    def __init__(self, seed, tiny, workdir):
        rng = np.random.default_rng([seed, 0])
        self.out = Path(workdir)
        scenarios = inputs.asymptotic_scenarios(
            rng, str(self.out), 2001 if tiny else 20_001, 31 if tiny else 151
        )
        self.argv = []
        for mode, scenario in scenarios.items():
            path = self.out / f"{mode}.json"
            path.write_text(json.dumps(scenario), encoding="utf-8")
            self.argv.append(["compare" if mode == "compare" else "run", str(path), "--quiet"])
        self.argv.append(["reproduce-figures", "--out", str(self.out / "figures"), "--quiet"])
        compare = scenarios["compare"]
        self.theta = compare["theta"]
        self.params = RadioParams(noise_power=compare["sigma2"], throughput=self.theta)
        spec, dom = compare["density"], compare["density"]["domain"]
        self.compare_density = DensityField.from_spec(
            FunctionSpec(spec["kind"], spec["params"]),
            self.theta,
            Domain.interval(dom["min"], dom["max"], dom["resolution"]),
        )
        self.outputs = [self.out / mode for mode in scenarios] + [self.out / "figures"]

    def instance(self, i):
        return 0

    def op(self, i):
        return [cli.main(argv) for argv in self.argv]

    def check(self, i, codes):
        try:
            return self._check(i, codes)
        finally:
            # the next op must write its own files, not be judged on these
            for path in self.outputs:
                shutil.rmtree(path, ignore_errors=True)

    def _check(self, i, codes):
        if any(codes):
            raise CheckFailed(f"op {i}: exit codes {codes}")
        cont = _read_csv(self.out / "continuum" / "bs_density.csv")
        closed = _read_csv(self.out / "closed_form" / "bs_density.csv")
        scale = np.max(np.abs(closed["y"]))
        if not (
            np.allclose(cont["y"], closed["y"], rtol=0, atol=1e-12 * scale)
            and np.allclose(cont["v"], closed["v"], rtol=0, atol=1e-9)
        ):
            raise CheckFailed(f"op {i}: fixed-point density differs from the closed form")
        report = _read_csv(self.out / "compare" / "consistency.csv")
        lam = dilation_factor(self.theta)
        if not np.allclose(report["lambda"], lam, rtol=1e-12, atol=0):
            raise CheckFailed(f"op {i}: lambda column {report['lambda']} != {lam!r}")
        placement = _read_csv(self.out / "compare" / "placement.csv")
        powers = [
            midpoint_total_power(placement["x"][placement["K"] == K], self.compare_density, self.params)
            for K in np.unique(placement["K"])
        ]
        figures = sorted((self.out / "figures").glob("*.csv"))
        if len(figures) != self.FIGURES:
            raise CheckFailed(f"op {i}: {len(figures)} figure files")
        for path in figures:
            _read_csv(path)
        written = sum(p.stat().st_size for p in self.out.rglob("*.csv"))
        return float(np.mean(powers)), written


# Workload name -> set-up, called as setup(seed, tiny, workdir).
WORKLOADS = {
    "placement-2d": placement_2d,
    "placement-1d": placement_1d,
    "placement-small": placement_small,
    "cli-asymptotic": Asymptotic,
}
