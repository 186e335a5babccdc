"""zetalab: exact zeta-value decompositions of log-weighted cube integrals.

The pipeline turns the r-fold integral of
(-log(x1...xr))**v / (1 - x1...xr) * R(x1)...R(xr) over the unit cube into
an exact rational combination of zeta values, by way of the moment
M(s) = integral x**s R(x) dx, its r-th power's v-th derivative, and exact
partial fractions.  A certified direct-summation path and a seeded Monte
Carlo integrator provide two independent checks on every number produced.
"""

from .polys import Poly, integrate_poly_01, legendre_coeffs
from .decomp import (
    DecompositionReport,
    ZetaCombination,
    apery_report,
    decompose,
    decomposition_report,
    lcm_upto,
    moment_closed_form,
    moment_from_coeffs,
)
from .verify import (
    CriterionRecord,
    CrosscheckReport,
    HighPrecisionValue,
    MCEstimate,
    crosscheck,
    direct_sum_value,
    eval_combination,
    mc_integral,
    rationality_criterion,
    shifted_series_value,
    zeta_value,
)

__version__ = "0.1.0"

__all__ = [
    "Poly",
    "integrate_poly_01",
    "legendre_coeffs",
    "moment_closed_form",
    "moment_from_coeffs",
    "ZetaCombination",
    "decompose",
    "DecompositionReport",
    "decomposition_report",
    "apery_report",
    "lcm_upto",
    "HighPrecisionValue",
    "zeta_value",
    "eval_combination",
    "CriterionRecord",
    "rationality_criterion",
    "direct_sum_value",
    "MCEstimate",
    "mc_integral",
    "CrosscheckReport",
    "crosscheck",
    "shifted_series_value",
]
