"""Simulation and verification lab for the minimal random walk.

The walk takes {0,1} steps that respond to a uniformly sampled past step (q
after a 0, p after a 1; the first step is Bernoulli(s)); equivalently, a
two-color urn reinforced by draw-and-respond. The memory parameter
alpha = p - q splits three regimes at 1/2, and this package provides the
simulation engines, exact small-scale distribution oracles, deterministic
coefficient sequences, and Monte Carlo harnesses that make the associated
limit behavior checkable on a desk machine.
"""

from .core_process import *
from .exact_oracle import *
from .limit_harness import *
from .martingale_sequences import *
from .urn_spectral import *

__version__ = "0.1.0"
