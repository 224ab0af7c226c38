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
    correlations,
    make_device,
    validate,
)
from .explorer import (
    FamilySpec,
    SearchResult,
    SweepRecord,
    sweep,
    worst_case_search,
)
from .isometry import (
    DegenerateExtractionError,
    ExtractionResult,
    b_measured_errors,
    extraction_error,
    junk_candidate,
)
from .linalg import operator_sign

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
    "b_extraction_bound",
    "b_measured_errors",
    "canonical_chsh_device",
    "canonical_my_device",
    "certify",
    "chsh_budget",
    "chsh_diagnostics",
    "condition_residuals",
    "correlations",
    "derive_chsh_operators",
    "extraction_bound",
    "extraction_error",
    "get_mode",
    "junk_candidate",
    "make_device",
    "my_budget",
    "my_diagnostics",
    "my_fidelity_bound",
    "my_operators",
    "operator_sign",
    "state_error_bounds",
    "sweep",
    "validate",
    "worst_case_search",
]
