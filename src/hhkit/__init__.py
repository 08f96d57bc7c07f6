"""hhkit: certify generalized convexity classes and verify trapezoid-gap bounds.

The package splits into small layers: ``expr`` parses expressions and supplies
exact derivatives, ``convexity`` falsifies class membership by lattice search,
``kernels`` holds the closed-form kernel moments with numeric cross-checks,
``hhbounds`` evaluates the six gap bounds, ``means`` covers the special means
and their printed inequalities, ``quadrature`` provides trapezoid sums with
a-priori error bounds, and ``cli`` wires everything into a command line tool.
"""

from .convexity import (
    CertificationReport,
    ConvexityParams,
    Counterexample,
    certify,
    generalized_combination_rhs,
)
from .expr import (
    DerivativeUndefinedError,
    DerivedFunction,
    DomainError,
    DualValue,
    FunctionSpec,
    Interval,
    ParseError,
    UnknownIdentifierError,
    format_expression,
    parse,
    parse_function,
)
from .hhbounds import (
    THEOREM_IDS,
    BoundReport,
    classical_hh_check,
    classical_hh_margins,
    hh_gap,
    hypothesis_function,
    lemma_identity_residuals,
    theorem_bound,
    verify_theorem,
)
from .kernels import (
    HolderExponents,
    KernelConstants,
    KernelIdentityReport,
    holder_constants,
    kernel_constants,
    verify_kernel_identities,
)
from .means import (
    MEAN_KINDS,
    PROPOSITION_IDS,
    MeanRequest,
    extended_p_logarithmic,
    mean,
    mean_chain_check,
    mean_chain_margins,
    proposition_check,
)
from .quadrature import (
    NonConvergenceError,
    Partition,
    QuadratureResult,
    integrate_with_guarantee,
    reference_integrate,
    trapezoid_error_bound,
    trapezoid_sum,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "CertificationReport",
    "ConvexityParams",
    "Counterexample",
    "DerivativeUndefinedError",
    "DerivedFunction",
    "DomainError",
    "DualValue",
    "FunctionSpec",
    "HolderExponents",
    "Interval",
    "KernelConstants",
    "KernelIdentityReport",
    "MEAN_KINDS",
    "MeanRequest",
    "NonConvergenceError",
    "PROPOSITION_IDS",
    "ParseError",
    "Partition",
    "QuadratureResult",
    "THEOREM_IDS",
    "UnknownIdentifierError",
    "certify",
    "classical_hh_check",
    "classical_hh_margins",
    "extended_p_logarithmic",
    "format_expression",
    "generalized_combination_rhs",
    "hh_gap",
    "holder_constants",
    "hypothesis_function",
    "integrate_with_guarantee",
    "kernel_constants",
    "lemma_identity_residuals",
    "mean",
    "mean_chain_check",
    "mean_chain_margins",
    "parse",
    "parse_function",
    "proposition_check",
    "reference_integrate",
    "theorem_bound",
    "trapezoid_error_bound",
    "trapezoid_sum",
    "verify_kernel_identities",
    "verify_theorem",
]
