"""Self-testing certification for maximally entangled qubit pairs.

Builds the extraction isometry for arbitrary finite-dimensional bipartite
devices, measures the actual extraction error against the maximally entangled
pair, and certifies the closed-form robustness bounds implied by CHSH or
Mayers-Yao correlation data, including every intermediate chain estimate.
"""

__version__ = "0.1.0"

from .bounds import (
    MODES,
    CertificationReport,
    Mode,
    ReportRow,
    b_extraction_bound,
    certify,
    extraction_bound,
    get_mode,
    my_fidelity_bound,
    state_error_bounds,
)
from .derive import (
    DerivedOperators,
    EpsilonBudget,
    ResidualSet,
    chsh_budget,
    chsh_diagnostics,
    condition_residuals,
    derive_chsh_operators,
    my_budget,
    my_diagnostics,
    my_operators,
)
from .device import (
    DeviceModel,
    DeviceValidationError,
    canonical_chsh_device,
    canonical_my_device,
    chsh_value,
    correlation,
    correlations,
    make_device,
    my_deviation,
    validate,
)
from .explorer import (
    FamilySpec,
    SearchResult,
    SweepRecord,
    make_family,
    sweep,
    worst_case_search,
)
from .isometry import (
    DegenerateExtractionError,
    ExtractionResult,
    apply_isometry,
    b_measured_errors,
    extraction_error,
    junk_candidate,
)
from .linalg import (
    hermitian_eig,
    operator_abs,
    operator_sign,
    tensor_embed,
)

__all__ = [
    "MODES",
    "CertificationReport",
    "DegenerateExtractionError",
    "DerivedOperators",
    "DeviceModel",
    "DeviceValidationError",
    "EpsilonBudget",
    "ExtractionResult",
    "FamilySpec",
    "Mode",
    "ReportRow",
    "ResidualSet",
    "SearchResult",
    "SweepRecord",
    "apply_isometry",
    "b_extraction_bound",
    "b_measured_errors",
    "canonical_chsh_device",
    "canonical_my_device",
    "certify",
    "chsh_budget",
    "chsh_diagnostics",
    "chsh_value",
    "condition_residuals",
    "correlation",
    "correlations",
    "derive_chsh_operators",
    "extraction_bound",
    "extraction_error",
    "get_mode",
    "hermitian_eig",
    "junk_candidate",
    "make_device",
    "make_family",
    "my_budget",
    "my_deviation",
    "my_diagnostics",
    "my_fidelity_bound",
    "my_operators",
    "operator_abs",
    "operator_sign",
    "state_error_bounds",
    "sweep",
    "tensor_embed",
    "validate",
    "worst_case_search",
]
