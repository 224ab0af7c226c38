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
)
from .derive import (
    DerivedOperators,
    EpsilonBudget,
    ResidualSet,
    chsh_budget,
    chsh_diagnostics,
    derive_chsh_operators,
    my_budget,
    my_diagnostics,
    my_operators,
    residual_stack,
)
from .device import (
    DeviceStack,
    DeviceValidationError,
    canonical_chsh_device,
    canonical_my_device,
    correlation_stack,
    make_device,
    validate_stack,
)
from .explorer import (
    FamilySpec,
    SearchResult,
    SweepRecord,
    sweep,
    worst_case_search,
)
from .isometry import (
    ExtractionStack,
    b_operator_stack,
    extraction_stack,
    junk_stack,
)
from .linalg import operator_sign

__all__ = [
    "MODES",
    "CertificationReport",
    "DerivedOperators",
    "DeviceStack",
    "DeviceValidationError",
    "EpsilonBudget",
    "ExtractionStack",
    "FamilySpec",
    "Mode",
    "ReportRow",
    "ResidualSet",
    "SearchResult",
    "SweepRecord",
    "b_extraction_bound",
    "b_operator_stack",
    "canonical_chsh_device",
    "canonical_my_device",
    "certify",
    "chsh_budget",
    "chsh_diagnostics",
    "correlation_stack",
    "derive_chsh_operators",
    "extraction_bound",
    "extraction_stack",
    "get_mode",
    "junk_stack",
    "make_device",
    "my_budget",
    "my_diagnostics",
    "my_fidelity_bound",
    "my_operators",
    "operator_sign",
    "residual_stack",
    "sweep",
    "validate_stack",
    "worst_case_search",
]
