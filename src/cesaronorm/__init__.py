"""Numerical norms of the Cesaro averaging operator on disk function spaces.

The package computes the operator's action in three equivalent forms
(coefficient averaging, a finite integral, a weighted-composition
semigroup), measures functions in four weighted sup-norm spaces, and
verifies the closed-form norm values and bounds catalogued in
theorems.THEOREM_IDS.  The cesaronorm console script exposes the same
checks from the command line.

The package root exports the paper's vocabulary: the spaces, the function
families, the operator forms, verify_theorem with the quantities the
acceptance suite checks, and the estimate, flag and error types these
return or raise.  Quadrature, search and slice helpers stay importable
from their own modules.
"""

from .cesaro import (
    cesaro_coeff,
    cesaro_derivative,
    cesaro_integral,
    cesaro_of_one,
    cesaro_semigroup,
    cesaro_transform,
    semigroup_transform,
)
from .empirical import SampleConfig, operator_norm_lower_bound
from .errors import ConvergenceError, DomainError, PreconditionError
from .functions import (
    AnalyticFunction,
    ClosedForm,
    Constant,
    KorenblumExtremal,
    LogKorenblumExtremal,
    Poly,
    PowerSeries,
    log_weight_constant,
    taylor_truncate,
)
from .numerics import DivergenceFlag, SupEstimate, sup_over_radius
from .spaces import BlochAlpha, HardyInf, Korenblum, KorenblumLog, NormEstimate, space_norm
from .theorems import (
    THEOREM_IDS,
    TheoremVerdict,
    bloch_upper_bound,
    bloch_witness_profile,
    boundary_envelope,
    constant_one_bloch_norm,
    h_analytic,
    h_closed_form,
    h_series_coeff,
    korenblum_sup,
    log_to_log_norm,
    log_to_plain_norm,
    verify_theorem,
)

__version__ = "0.1.0"

__all__ = [
    "AnalyticFunction",
    "BlochAlpha",
    "ClosedForm",
    "Constant",
    "ConvergenceError",
    "DivergenceFlag",
    "DomainError",
    "HardyInf",
    "Korenblum",
    "KorenblumExtremal",
    "KorenblumLog",
    "LogKorenblumExtremal",
    "NormEstimate",
    "Poly",
    "PowerSeries",
    "PreconditionError",
    "SampleConfig",
    "SupEstimate",
    "THEOREM_IDS",
    "TheoremVerdict",
    "bloch_upper_bound",
    "bloch_witness_profile",
    "boundary_envelope",
    "cesaro_coeff",
    "cesaro_derivative",
    "cesaro_integral",
    "cesaro_of_one",
    "cesaro_semigroup",
    "cesaro_transform",
    "constant_one_bloch_norm",
    "h_analytic",
    "h_closed_form",
    "h_series_coeff",
    "korenblum_sup",
    "log_to_log_norm",
    "log_to_plain_norm",
    "log_weight_constant",
    "operator_norm_lower_bound",
    "semigroup_transform",
    "space_norm",
    "sup_over_radius",
    "taylor_truncate",
    "verify_theorem",
]
