"""Numerical verifier for hypergeometric series identities carrying
harmonic-number weights.

The package has three layers: scalar special functions (specialfn),
a weighted-series summation engine with unit-circle extrapolation (series),
and a registry of verifiable identities whose sides are expression trees
(expr, catalog) fronted by the `hyperharmonic` command line tool (cli).
The package re-exports the __all__ of errors, specialfn, series and
catalog; expr and cli are read by path.
"""

from .errors import *
from .specialfn import *
from .series import *
from .catalog import *

__version__ = "0.1.0"

__all__ = [*errors.__all__, *specialfn.__all__, *series.__all__,
           *catalog.__all__, "__version__"]
