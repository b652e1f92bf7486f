"""Hilbert-space-valued U-statistics with a Monte Carlo verification harness.

The library computes complete, decoupled, weighted, and incomplete
U-statistics whose kernels take values in a finite-dimensional (weighted)
coordinate space, extracts exact Hoeffding projections and degeneracy
orders on finite supports, and ships experiments that probe the structure
of the deviation bounds these objects satisfy: tail-decay exponents,
martingale maximal inequalities, incomplete-design normalizations, and
decoupling domination.
"""

from . import confidence, distributions, hilbert, hoeffding, kernels, martingale, montecarlo, ustats
from .confidence import *
from .distributions import *
from .hilbert import *
from .hoeffding import *
from .kernels import *
from .martingale import *
from .montecarlo import *
from .ustats import *

__version__ = "0.1.0"

# each module's __all__ is the one list of what the package exports from it
__all__ = [
    "__version__",
    *confidence.__all__,
    *distributions.__all__,
    *hilbert.__all__,
    *hoeffding.__all__,
    *kernels.__all__,
    *martingale.__all__,
    *montecarlo.__all__,
    *ustats.__all__,
]
