"""Seeded input generator for the benchmark workloads.

Everything a workload feeds the program is derived here from the run's
`--seed`: hotspot-mixture densities, per-op jitter seeds, station-count
draws and CLI scenario files. The same seed gives the same inputs on
every commit, so metrics compare like with like.
"""

from __future__ import annotations

import numpy as np

# Mass floor under the hotspots, so every cell carries some terminals.
FLOOR = 0.15


def hotspot_values(rng: np.random.Generator, ndim: int, resolution: int, per_axis: int) -> np.ndarray:
    """Node samples of a hotspot mixture on the unit interval or square.

    Hotspot centers sit on a jittered lattice (`per_axis` sites per axis)
    rather than anywhere, which keeps the terminal spread, and with it
    the optimal power, comparable across seeds while the layout still
    changes.
    """
    axis = np.linspace(0.0, 1.0, resolution)
    coords = np.meshgrid(*([axis] * ndim), indexing="ij")
    sites = np.stack(
        np.meshgrid(*([np.arange(per_axis)] * ndim), indexing="ij"), axis=-1
    ).reshape(-1, ndim)
    centers = (sites + 0.5 + rng.uniform(-0.2, 0.2, sites.shape)) / per_axis
    weights = rng.uniform(0.75, 1.25, len(sites))
    widths = rng.uniform(0.04, 0.06, len(sites)) * (1.0 if ndim == 2 else 0.6)
    values = np.full(coords[0].shape, FLOOR)
    for c, w, s in zip(centers, weights, widths):
        r2 = sum((x - ck) ** 2 for x, ck in zip(coords, c))
        values += w * np.exp(-r2 / (2.0 * s * s))
    return values


def jitter_seeds(rng: np.random.Generator, count: int) -> list[int]:
    """Per-op seeds for the optimizer's jittered initial layout."""
    return [int(s) for s in rng.integers(0, 2**31 - 1, count)]


def station_counts(rng: np.random.Generator, count: int, low: int, high: int) -> list[int]:
    """Per-op station counts from [low, high], each block of high - low + 1
    ops a seeded shuffle of the whole range.

    Balanced blocks keep the mix of station counts, and with it the median
    op time, the same for every seed; only the order changes.
    """
    values = np.arange(low, high + 1)
    blocks = np.tile(values, (-(-count // values.size), 1))
    return [int(k) for k in rng.permuted(blocks, axis=1).ravel()[:count]]


def asymptotic_scenarios(rng: np.random.Generator, outdir: str, resolution: int, candidates: int) -> dict:
    """The three scenario files of one CLI study, keyed by mode.

    The seed picks the throughput of the continuum and closed-form runs,
    the width of the (centered) starting measure of the fixed-point
    scheme, and a small shift of the compare-mode candidate grid.
    """
    theta = float(rng.uniform(0.5, 3.0))
    start_sigma = float(rng.uniform(0.5, 2.0))
    shift = float(rng.uniform(-0.02, 0.02))
    terminals = {
        "kind": "normal",
        "params": {"mu": 0.0, "sigma": 1.0},
        "domain": {"min": -8.0, "max": 8.0, "resolution": resolution},
    }
    start = dict(terminals, params={"mu": 0.0, "sigma": start_sigma})
    compare_terminals = dict(
        terminals, domain={"min": -4.0, "max": 4.0, "resolution": 2001}
    )
    grid = np.linspace(-3.9, 3.9, candidates) + shift
    return {
        "continuum": {
            "sigma2": 1.0,
            "theta": theta,
            "density": terminals,
            "mode": {"continuum": {"nu0": start}},
            "output_dir": f"{outdir}/continuum",
        },
        "closed_form": {
            "sigma2": 1.0,
            "theta": theta,
            "density": terminals,
            "mode": {"closed_form": {}},
            "output_dir": f"{outdir}/closed_form",
        },
        "compare": {
            "sigma2": 1.0,
            "theta": 1.0,
            "density": compare_terminals,
            "mode": {"compare": {"K": [1, 2, 3], "candidates": grid.tolist()}},
            "output_dir": f"{outdir}/compare",
        },
    }
