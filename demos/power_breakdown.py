"""Where the transmission power goes.

Access links pay sigma^2 (2^theta - 1) d^2 per unit of terminal mass;
backhaul links pay sigma^2 d^2 m_i m_j / m per ordered station pair.
The demo prices a one-station and a two-station layout on the unit
interval and shows the access/backhaul split.
"""

import numpy as np

from backhaulopt import (
    DensityField,
    Domain,
    FunctionSpec,
    RadioParams,
    total_power,
    voronoi_partition,
)

d = DensityField.from_spec(FunctionSpec("uniform", {}), 1.0, Domain.interval(0.0, 1.0, 2001))
params = RadioParams(noise_power=1.0, throughput=1.0)

for positions in (np.array([0.5]), np.array([0.25, 0.75]), np.array([0.4, 0.6])):
    partition = voronoi_partition(positions, d)
    report = total_power(positions, partition, d, params)
    label = ", ".join(f"{p:.2f}" for p in positions)
    print(f"stations at [{label}]")
    print(f"  access   {report.intra_total:.6f}")
    print(f"  backhaul {report.inter_total:.6f}")
    print(f"  total    {report.total:.6f}")

# the backhaul term is what keeps stations from simply spreading out:
# {0.25, 0.75} quantizes best, yet the 0.5-long hop costs more than the
# worse quantization of {0.4, 0.6} saves
pos = np.array([0.25, 0.75])
report = total_power(pos, voronoi_partition(pos, d), d, params)
t, m = report.traffic.per_station, report.traffic.total
print("\nper-pair backhaul at [0.25, 0.75], sigma^2 d^2 m_i m_j / m:")
for i, j in ((0, 1), (1, 0)):
    print(f"  {i} -> {j}: {params.noise_power * (pos[i] - pos[j]) ** 2 * t[i] * t[j] / m:.6f}")
print(f"  sum    {report.inter_total:.6f}")

print("\nthroughput sweep, same two stations:")
for theta in (0.5, 1.0, 2.0, 4.0):
    p = RadioParams(noise_power=1.0, throughput=theta)
    dt = DensityField.from_spec(FunctionSpec("uniform", {}), theta, Domain.interval(0.0, 1.0, 2001))
    r = total_power(pos, voronoi_partition(pos, dt), dt, p)
    share = r.inter_total / r.total
    print(f"  theta {theta:4.1f}: total {r.total:9.4f}, backhaul share {share:.1%}")
