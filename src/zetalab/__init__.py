"""zetalab: exact zeta-value decompositions of log-weighted cube integrals.

The pipeline turns the r-fold integral of
(-log(x1...xr))**v / (1 - x1...xr) * R(x1)...R(xr) over the unit cube into
an exact rational combination of zeta values, by way of the moment
M(s) = integral x**s R(x) dx, its r-th power's v-th derivative, and exact
partial fractions.  A certified direct-summation path and a seeded Monte
Carlo integrator provide two independent checks on every number produced.
"""

from . import decomp, polys, verify
from .polys import *
from .decomp import *
from .verify import *

__version__ = "0.1.0"

__all__ = [*polys.__all__, *decomp.__all__, *verify.__all__]
