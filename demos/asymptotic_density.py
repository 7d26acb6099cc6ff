"""The many-station limit: where should station density go?

As the station count grows, the optimal station distribution stops
being a placement problem and becomes a density: the terminal density
dilated about its barycenter by 1 + 4 / (2^theta - 1). The demo prints
that closed form, then recovers it with the fixed-point iteration on
the induced transport map.
"""

import numpy as np

from backhaulopt import (
    DensityField,
    Domain,
    FunctionSpec,
    Measure1D,
    RadioParams,
    dilation_factor,
    iterate_fixed_point,
    optimal_station_density,
    quantile_placements,
    sup_distance,
)

print("dilation factor 1 + 4 / (2^theta - 1):")
for theta in (0.5, 1.0, 2.0, 4.0, 24.0):
    print(f"  theta {theta:5.1f}: {dilation_factor(theta):.9f}")

f = DensityField.from_spec(
    FunctionSpec("truncated_normal", {"mu": 0.0, "sigma": 1.0, "a": -1.0, "b": 1.0}),
    1.0,
    Domain.interval(-1.0, 1.0, 2001),
)
nu = optimal_station_density(f, 1.0)
print("\nterminals on [-1, 1], theta = 1:")
print(f"  station density support [{nu.grid[0]:.1f}, {nu.grid[-1]:.1f}]")
print(f"  station spread / terminal spread = {nu.spread() / f.spread():.6f}")

# the iteration converges for the truncated normal above too, because
# its stop test is the L1 change between iterates; the showcase uses
# gaussian terminals because it reports the gap to the closed form in
# sup norm, and at the jump edge of a compact support that metric reads
# the full jump height as soon as two supports disagree by one ulp
g = DensityField.from_spec(FunctionSpec("normal", {"mu": 0.0, "sigma": 1.0}), 1.0)
target = optimal_station_density(g, 1.0)
params = RadioParams(noise_power=1.0, throughput=1.0)
grid = np.linspace(-1.0, 1.0, 1001)
starts = {
    "terminal density itself": Measure1D.from_density(g, 1.0),
    "flat guess": Measure1D(grid, np.full(grid.size, 0.5)),
}
print("\nfixed-point iteration, gaussian terminals, theta = 1:")
for name, nu0 in starts.items():
    result = iterate_fixed_point(g, nu0, params)
    gap = sup_distance(result.measure, target)
    print(
        f"  {name}: {result.steps} steps, converged={result.converged}, "
        f"gap to closed form {gap:.2e}"
    )

# an off-center start is honestly reported as non-convergent: the
# interaction term repels the barycenter instead of restoring it
off_grid = np.linspace(0.2, 1.2, 1001)
off = Measure1D.from_values(off_grid, np.ones_like(off_grid), mass=1.0)
result = iterate_fixed_point(g, off, params, max_steps=6)
print(f"  off-center start: converged={result.converged} after {result.steps} steps")

print("\nrepresentative placements from the station density (K = 4):")
print(" ", quantile_placements(nu, 4).round(4))
