"""qrs: exact and numeric verification toolkit for q-series polynomial
identities.

The package has three layers: a small exact computer-algebra kernel
(multivariate polynomials, truncated power series, basic hypergeometric
sums over exact rational coefficients), the polynomial families built on it
(Cauchy, Rogers-Szego in one and two variables, q-Hermite with and without
a shift parameter), and a registry of identity checks that compare both
sides of each identity either coefficientwise (exact) or numerically
(complex evaluation, trapezoidal quadrature of the circle integrals).
"""

from .families import (big_qhermite_poly, big_qhermite_polys, brs_poly,
                       cauchy_poly, change_base_big, change_base_c,
                       qhermite_poly, rs_poly)
from .fps import (TruncSeries, euler_inv_series, euler_series, phi_series,
                  phi_sum)
from .idverify import IdentityCase, get_case, registry, verify, verify_all
from .qcore import MultiPoly, frac, qbinom, qfac
from .qops import e_op_apply, t_op_graded
from .quadrature import (IntegralSpec, QuadratureError, askey_wilson_closed,
                         askey_wilson_quad, integrate, jhi_eval, qpoch_inf,
                         qpoch_n)
from .reporting import IdentityReport

__version__ = "0.1.0"

__all__ = [
    "IdentityCase", "IdentityReport", "IntegralSpec", "MultiPoly",
    "QuadratureError", "TruncSeries", "askey_wilson_closed",
    "askey_wilson_quad", "big_qhermite_poly", "big_qhermite_polys",
    "brs_poly", "cauchy_poly", "change_base_big", "change_base_c",
    "e_op_apply", "euler_inv_series", "euler_series", "frac", "get_case",
    "integrate", "jhi_eval", "phi_series", "phi_sum", "qbinom", "qfac",
    "qhermite_poly", "qpoch_inf", "qpoch_n", "registry", "rs_poly",
    "t_op_graded", "verify", "verify_all",
]
