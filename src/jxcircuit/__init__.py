"""Interlaced mixing/phase-layer unitary circuits.

Decompose N x N unitary matrices into alternating fixed mixing layers
(quarter-cycle transforms of a Jx waveguide lattice) and programmable
diagonal phase layers, re-calibrate the phases against perturbed mixers,
and study resilience to frozen (faulty) phase shifters.

The package re-exports the public names (``__all__``) of its core
modules, so each name is declared public in one place.
"""

from . import circuit, experiments, lattice, numerics, optimizer, sampling
from .numerics import *  # noqa: F401,F403
from .lattice import *  # noqa: F401,F403
from .sampling import *  # noqa: F401,F403
from .circuit import *  # noqa: F401,F403
from .optimizer import *  # noqa: F401,F403
from .experiments import *  # noqa: F401,F403

__version__ = "0.23.0"

__all__ = ["__version__", *numerics.__all__, *lattice.__all__, *sampling.__all__,
           *circuit.__all__, *optimizer.__all__, *experiments.__all__]
