"""Trust, but verify: the naive oracles and the consistency probe.

naive_total_power re-derives the objective from the squared distance of
every Simpson sample to its station, without the solver's per-station
moment sums, and must agree with the solver's path to roundoff.
brute_force_optimize solves the optimizer's problem exactly, for cells
cut at a grid of candidates, by a dynamic program under a deliberately
different quadrature; it bounds how far the alternating optimizer can
be from the optimum. consistency_report then puts the finite-K optima
next to the asymptotic prediction.
"""

import numpy as np

from backhaulopt import (
    DensityField,
    Domain,
    FunctionSpec,
    RadioParams,
    brute_force_optimize,
    consistency_report,
    naive_total_power,
    optimize,
    total_power,
    voronoi_partition,
)

d = DensityField.from_spec(FunctionSpec("uniform", {}), 1.0, Domain.interval(-1.0, 1.0, 2001))
params = RadioParams(noise_power=1.0, throughput=1.0)

pos = np.array([-0.4, 0.1, 0.7])
partition = voronoi_partition(pos, d)
fast = total_power(pos, partition, d, params).total
slow = naive_total_power(pos, partition.assignment.ravel(), d, params)
print(f"moment-sum objective  {fast:.15f}")
print(f"per-sample objective  {slow:.15f}")
print(f"difference            {abs(fast - slow):.2e}")

candidates = np.linspace(-1.0, 1.0, 201)
best = brute_force_optimize(d, 2, params, candidates)
sol = optimize(d, 2, params)
print(f"\nexact search (201 candidate cuts): {np.round(best.positions, 4)}, power {best.power:.8f}")
print(f"alternating optimizer:             {np.round(np.sort(sol.positions.ravel()), 4)}, power {sol.report.total:.8f}")

print("\ndiscrete spread vs asymptotic dilation (uniform terminals, theta = 1):")
searches = [brute_force_optimize(d, K, params, candidates) for K in (1, 2, 3)]
rows = consistency_report(d, searches)
print(f"  {'K':>2} {'discrete':>9} {'asymptotic':>10} {'ratio':>7} {'dilation':>8}")
for r in rows:
    print(
        f"  {r.K:>2} {r.discrete_spread:9.4f} {r.continuum_spread:10.4f} "
        f"{r.ratio:7.4f} {r.dilation:8.4f}"
    )
print(
    "  small K contracts relative to the terminals; the asymptotic law"
    " dilates. The report records both sides without smoothing that over."
)
