"""Joint access/backhaul power planning for wireless station placement.

Models the total transmit power of a network of stations serving a
continuum of terminals (access links priced by inverting Shannon
capacity under free-space path loss, backhaul links by a low-SNR
linearization), and optimizes station positions against it:

- exact discrete optimization for a finite station count, by
  alternating assignment, traffic, and position updates;
- the asymptotic station-density problem on an interval, via a
  fixed-point transport scheme and its closed-form dilation solution;
- independent brute-force oracles and a discrete-vs-asymptotic
  consistency probe;
- a small CLI (`backhaulopt`) that runs scenario files and emits CSV
  plot data.
"""

from .brute_force import (
    BruteForceResult,
    ConsistencyReport,
    brute_force_optimize,
    consistency_report,
    midpoint_total_power,
    naive_total_power,
)
from .continuum import (
    AffineMap,
    GridCollapseError,
    Measure1D,
    SampledMap,
    SchemeResult,
    dilation_factor,
    fixed_point_step,
    iterate_fixed_point,
    optimal_station_density,
    pushforward,
    quantile_placements,
    sup_distance,
)
from .density import (
    DemandField,
    DensityField,
    Domain,
    FunctionSpec,
    expected_terminals,
    fold_demand,
)
from .discrete_placement import (
    OptimizerConfig,
    PlacementSolution,
    initial_positions,
    optimize,
    update_positions,
    voronoi_partition,
)
from .power_model import (
    CellPartition,
    PowerReport,
    RadioParams,
    SingularGainError,
    TrafficVector,
    station_traffic,
    total_power,
)

__version__ = "0.1.0"

__all__ = [
    "AffineMap",
    "BruteForceResult",
    "CellPartition",
    "ConsistencyReport",
    "DemandField",
    "DensityField",
    "Domain",
    "FunctionSpec",
    "GridCollapseError",
    "Measure1D",
    "OptimizerConfig",
    "PlacementSolution",
    "PowerReport",
    "RadioParams",
    "SampledMap",
    "SchemeResult",
    "SingularGainError",
    "TrafficVector",
    "brute_force_optimize",
    "consistency_report",
    "dilation_factor",
    "expected_terminals",
    "fixed_point_step",
    "fold_demand",
    "initial_positions",
    "iterate_fixed_point",
    "midpoint_total_power",
    "naive_total_power",
    "optimal_station_density",
    "optimize",
    "pushforward",
    "quantile_placements",
    "station_traffic",
    "sup_distance",
    "total_power",
    "update_positions",
    "voronoi_partition",
]
