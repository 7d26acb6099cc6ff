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

from . import brute_force, continuum, density, discrete_placement, power_model
from .brute_force import *
from .continuum import *
from .density import *
from .discrete_placement import *
from .power_model import *

__version__ = "0.1.0"

__all__ = []
__all__ += brute_force.__all__
__all__ += continuum.__all__
__all__ += density.__all__
__all__ += discrete_placement.__all__
__all__ += power_model.__all__
