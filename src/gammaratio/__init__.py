"""Monotonicity analysis and representing measures of weighted gamma ratios.

The package decides logarithmic complete monotonicity of

    W(x) = prod_i Gamma(A_i x + a_i) / prod_j Gamma(B_j x + b_j),

computes the representing density of its Bernstein measure by regularized
Mellin-Barnes contour integration, and cross-validates the Mellin, Laplace
and integral-equation identities the density satisfies.
"""

__version__ = "0.1.0"

from .errors import (
    DomainError,
    QuadratureAccuracyError,
    SingularPointError,
    UnsupportedParameterError,
)
from .specfun import EvalResult, digamma, log_gamma, polygamma
from .ratio import (
    DerivedInvariants,
    RatioSpec,
    cm_kernel,
    cm_kernel_series,
    cm_kernel_t,
    derive,
    gamma_ratio,
    kernel_positive_part,
    log_ratio_derivative,
    power_sum_diff,
)
from .monotonicity import (
    BERNSTEIN_DERIVATIVE,
    ConditionEvidence,
    INCONCLUSIVE,
    LCM,
    NOT_LCM,
    Verdict,
    build_unweighted,
    check_kernel_nonneg,
    check_necessary,
    check_sufficient_a,
    check_sufficient_b,
    check_sufficient_c,
    classify,
    weak_supermajorization,
)
from .foxh import ContourConfig, HEvaluation, density, fox_h, meijer_g, mellin_check
from .verification import (
    ResidualReport,
    ZeroCountReport,
    beta_product_moments,
    cm_probe,
    count_zeros,
    fox_identity_residual,
    laplace_reconstruct,
    meijer_identity_residual,
)

__all__ = [
    "__version__",
    "DomainError",
    "QuadratureAccuracyError",
    "SingularPointError",
    "UnsupportedParameterError",
    "EvalResult",
    "digamma",
    "log_gamma",
    "polygamma",
    "DerivedInvariants",
    "RatioSpec",
    "cm_kernel",
    "cm_kernel_series",
    "cm_kernel_t",
    "derive",
    "gamma_ratio",
    "kernel_positive_part",
    "log_ratio_derivative",
    "power_sum_diff",
    "BERNSTEIN_DERIVATIVE",
    "ConditionEvidence",
    "INCONCLUSIVE",
    "LCM",
    "NOT_LCM",
    "Verdict",
    "build_unweighted",
    "check_kernel_nonneg",
    "check_necessary",
    "check_sufficient_a",
    "check_sufficient_b",
    "check_sufficient_c",
    "classify",
    "weak_supermajorization",
    "ContourConfig",
    "HEvaluation",
    "density",
    "fox_h",
    "meijer_g",
    "mellin_check",
    "ResidualReport",
    "ZeroCountReport",
    "beta_product_moments",
    "cm_probe",
    "count_zeros",
    "fox_identity_residual",
    "laplace_reconstruct",
    "meijer_identity_residual",
]
