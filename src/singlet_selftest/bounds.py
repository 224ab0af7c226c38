"""Closed-form bound catalogue and the certification engine.

``certify`` runs the full measured-vs-bound pipeline for one device: deviation
epsilon, closed-form budgets, derived (or pass-through) operators, condition
residuals, diagnostic chain entries, extraction errors, and the measured-B
rows, producing one report row per quantity; its stages are ``Mode.deviations``
and ``Mode.stages``, the explorer's too.  Each mode's rows are one table,
``Mode.rows``, of ``RowSpec`` records in report order.  Bound columns come in
two grades: the headline leading-order formulas and the exact chained forms;
each row passes against the weaker (proven-safe) of the two, except extraction
and state rows which certify against the bound composed from the *measured*
residuals.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .derive import (
    SQRT2,
    DerivedOperators,
    EpsilonBudget,
    ResidualSet,
    _check_epsilon,
    chsh_budget,
    chsh_diagnostics,
    derive_chsh_operators,
    my_budget,
    my_diagnostics,
    my_operators,
    residual_stack,
)
from .device import (
    CHSH_PAIRS,
    MY_PAIRS,
    DeviceStack,
    DeviceValidationError,
    canonical_chsh_device,
    canonical_my_device,
    chsh_epsilon,
    correlation_stack,
    my_epsilon,
    validate_stack,
)
from .isometry import B_ROWS, OPERATOR_PAIRS, ExtractionStack, b_operator_stack, extraction_stack

# Absolute allowance for rounding in every pass/fail comparison, and the
# report's ``certTol``.
CERT_TOL = 1e-9

# Externally quoted reference point for the fidelity lower bound: a drop to
# 20% already at deviation 1e-4 has been quoted alongside the closed-form
# expression, but direct evaluation of the expression gives a different value.
# Reports carry both and a discrepancy flag; nothing is asserted between them.
FIDELITY_REFERENCE_EPSILON = 1e-4
FIDELITY_REFERENCE_VALUE = 0.20


def extraction_bound(eps1: float, eps2: float) -> float:
    """Guaranteed extraction error (11*eps1 + 5*eps2)/2 for residual budgets."""
    for name, value in (("eps1", eps1), ("eps2", eps2)):
        if value < 0:
            raise ValueError(f"{name} must be nonnegative, got {value}")
    return (11.0 * eps1 + 5.0 * eps2) / 2.0


def b_extraction_bound(epsilon: float) -> float:
    """Extraction bound for Bob's raw observables:
    sqrt(2)*eps + 2*sqrt(2)*(eps*sqrt(2))**(1/4)."""
    epsilon = _check_epsilon(epsilon)
    return SQRT2 * epsilon + 2.0 * SQRT2 * (epsilon * SQRT2) ** 0.25


def my_fidelity_bound(epsilon: float) -> float:
    """Mayers-Yao fidelity lower bound from a CHSH-style deficit, clamped at 0.

    Evaluates 1 - (1/4)*(9*sqrt(2)*eps + 2**(1/4)*100*eps**(1/2)
    + 2**(3/8)*60*eps**(3/4)); the polynomial goes negative for moderate
    epsilon, where a negative fidelity lower bound is vacuous, hence the clamp.
    """
    epsilon = float(epsilon)
    if epsilon < 0.0:
        raise ValueError(f"deviation epsilon must be nonnegative, got {epsilon}")
    value = 1.0 - 0.25 * (
        9.0 * SQRT2 * epsilon
        + 2.0**0.25 * 100.0 * epsilon**0.5
        + 2.0**0.375 * 60.0 * epsilon**0.75
    )
    return max(0.0, value)


def fidelity_block(epsilon: float) -> dict:
    """Fidelity lower bound plus the quoted reference point and discrepancy flag."""
    at_reference = my_fidelity_bound(FIDELITY_REFERENCE_EPSILON)
    return {
        "epsilon": float(epsilon),
        "bound": my_fidelity_bound(epsilon),
        "reference_epsilon": FIDELITY_REFERENCE_EPSILON,
        "reference_value": FIDELITY_REFERENCE_VALUE,
        "formula_value_at_reference": at_reference,
        "discrepancy": not math.isclose(
            at_reference, FIDELITY_REFERENCE_VALUE, rel_tol=0.1, abs_tol=0.0
        ),
    }


@dataclass(frozen=True)
class ReportRow:
    """One measured quantity against its certification bound.

    ``bound`` is the value the pass flag is evaluated against; the two grade
    columns record the leading-order and exact forms it was selected from
    (they may coincide).  ``direction`` is "<=" or ">=".
    """

    name: str
    category: str
    measured: float
    bound: float
    direction: str
    formula: str
    passed: bool
    bound_headline: float
    bound_exact: float

    @property
    def slack(self) -> float:
        if self.direction == "<=":
            return self.bound - self.measured
        return self.measured - self.bound


@dataclass(frozen=True)
class CertificationReport:
    mode: str
    epsilon: float
    chsh: float | None
    budget: EpsilonBudget | None
    residuals: ResidualSet
    junk_norm_raw: float
    degenerate: bool
    rows: list[ReportRow]
    fidelity: dict
    correlations: dict[str, float] = field(default_factory=dict)

    @property
    def all_pass(self) -> bool:
        return all(row.passed for row in self.rows)


Grades = Callable[[EpsilonBudget], tuple[float, float]]


@dataclass(frozen=True)
class RowSpec:
    """One report row of a mode: the estimate it checks and how its bound is formed.

    ``name`` is also the key of the row's measured value in ``certify``; a
    chain row is named after the diagnostic it reads.  ``grades`` maps a
    budget to the (headline, exact) bounds, and the row passes against the
    weaker of the two (the larger for "<=", the smaller for ">=").  When
    ``measured_bound`` is set, the row passes against the bound it composes
    from the measured residuals instead, and the grades are informational.
    """

    name: str
    category: str
    direction: str
    formula: str
    grades: Grades
    measured_bound: Callable[[ResidualSet], float] | None = None


def _report_row(
    spec: RowSpec, measured: float, budget: EpsilonBudget | None, residuals: ResidualSet
) -> ReportRow:
    """One row, passing within ``CERT_TOL`` of its bound.  Without a budget (a
    deviation outside [0, 1)) both grades are NaN, and so is a bound selected
    from them: the row fails."""
    headline, exact = (math.nan, math.nan) if budget is None else spec.grades(budget)
    upper = spec.direction == "<="
    if spec.measured_bound is not None:
        bound = spec.measured_bound(residuals)
    else:
        bound = max(headline, exact) if upper else min(headline, exact)
    passed = bool(measured <= bound + CERT_TOL if upper else measured >= bound - CERT_TOL)
    return ReportRow(
        name=spec.name, category=spec.category, measured=measured, bound=bound,
        direction=spec.direction, formula=spec.formula, passed=passed,
        bound_headline=headline, bound_exact=exact,
    )


def _twice_eps1(b: EpsilonBudget) -> tuple[float, float]:
    return (2.0 * b.eps1, 2.0 * b.eps1_exact)


def _eps2(b: EpsilonBudget) -> tuple[float, float]:
    return (b.eps2, b.eps2_exact)


def _eps_sum(b: EpsilonBudget) -> tuple[float, float]:
    return (b.eps1 + b.eps2, b.eps1_exact + b.eps2_exact)


def _half_eps2(b: EpsilonBudget) -> tuple[float, float]:
    return (b.eps2 / 2.0, b.eps2_exact / 2.0)


def _condition_specs(eps1_formula: str, eps2_formula: str, bob: Grades) -> tuple[RowSpec, ...]:
    """The four condition rows; the modes differ in the formula text and in
    the grades of Bob's anticommutation."""
    return (
        RowSpec("condition_anticomm_alice", "condition", "<=", eps1_formula, _twice_eps1),
        RowSpec("condition_anticomm_bob", "condition", "<=", eps1_formula, bob),
        RowSpec("condition_diff_x", "condition", "<=", eps2_formula, _eps2),
        RowSpec("condition_diff_z", "condition", "<=", eps2_formula, _eps2),
    )


def _composed(
    name: str, category: str, formula: str, compose: Callable[[float, float], float]
) -> RowSpec:
    """A row certified against ``compose(eps1, eps2)`` of the measured residuals;
    its grades are the same composition of the headline and exact budgets."""
    return RowSpec(
        name, category, "<=", formula,
        lambda b: (compose(b.eps1, b.eps2), compose(b.eps1_exact, b.eps2_exact)),
        lambda r: compose(r.eps1, r.eps2),
    )


_CHSH_CHAIN_ROWS = (
    RowSpec("commutator_product", "chain", ">=",
            "<[A0,A1][B1,B0]> >= 4 - delta; delta = 4*sqrt(2)*eps - eps**2",
            lambda b: (4.0 - b.delta, 4.0 - b.delta)),
    *(
        RowSpec(name, "chain", "<=", "mixed product norm <= sqrt(delta)",
                lambda b: (b.eps1, b.eps1_exact))
        for name in ("norm_a0a1_plus_b1b0", "norm_a0a1_minus_b0b1",
                     "norm_a1a0_minus_b1b0", "norm_a1a0_plus_b0b1")
    ),
    RowSpec("anticomm_a_raw", "chain", "<=", "||{A0,A1}psi|| <= 2*eps1", _twice_eps1),
    RowSpec("anticomm_b_raw", "chain", "<=", "||{B0,B1}psi|| <= 2*eps1", _twice_eps1),
    RowSpec("xa_bsum_overlap", "chain", ">=", "<X'_A(B0+B1)> >= sqrt(2)*(1 - eps_prime)",
            lambda b: (SQRT2 * (1.0 - b.eps_prime), SQRT2 * (1.0 - b.eps_prime_exact))),
    RowSpec("norm_xa_minus_bsum", "chain", "<=",
            "||(X'_A - (B0+B1)/sqrt(2))psi|| <= 2*(eps*sqrt(2))**(1/4)", _half_eps2),
    RowSpec("norm_xb_minus_bsum", "chain", "<=",
            "||(X'_B - (B0+B1)/sqrt(2))psi|| <= 2*(eps*sqrt(2))**(1/4)", _half_eps2),
)

# Most Mayers-Yao chain bounds have one form, given as both grades.
_MY_CHAIN_ROWS = (
    RowSpec("sum_xz_norm", "chain", "<=",
            "||((X'_A+Z'_A)/sqrt(2))psi|| <= sqrt(1 + eps + sqrt(2*eps))",
            lambda b: (math.sqrt(1.0 + b.epsilon + math.sqrt(2.0 * b.epsilon)),) * 2),
    RowSpec("db_vs_sum_xz", "chain", "<=", "||(D'_B - (X'_A+Z'_A)/sqrt(2))psi|| <= eps_prime",
            lambda b: (b.eps_prime,) * 2),
    RowSpec("anticomm_alice", "chain", "<=", "||{X'_A,Z'_A}psi|| <= 2*(1+sqrt(2))*eps_prime",
            lambda b: (2.0 * (1.0 + SQRT2) * b.eps_prime,) * 2),
    RowSpec("cross_za_xa", "chain", "<=", "||(Z'_A X'_A - X'_B Z'_B)psi|| <= 2*sqrt(2*eps)",
            lambda b: (2.0 * math.sqrt(2.0 * b.epsilon),) * 2),
    RowSpec("cross_xa_za", "chain", "<=", "||(X'_A Z'_A - Z'_B X'_B)psi|| <= 2*sqrt(2*eps)",
            lambda b: (2.0 * math.sqrt(2.0 * b.epsilon),) * 2),
    RowSpec("anticomm_bob", "chain", "<=",
            "||{X'_B,Z'_B}psi|| <= 2*(1+sqrt(2))*eps_prime + 4*sqrt(2*eps)",
            lambda b: (b.eps1, 2.0 * b.eps1_exact)),
)

# Rows common to both modes: Z expectations, the junk raw-norm window, and the
# state and extraction errors, which certify against measured residuals.
_SHARED_ROWS = (
    RowSpec("za_expectation_abs", "chain", "<=", "|<Z'_A>| <= eps1 + eps2", _eps_sum),
    RowSpec("zb_expectation_abs", "chain", "<=", "|<Z'_B>| <= eps1 + eps2", _eps_sum),
    RowSpec("junk_rawnorm_lower", "chain", ">=", "raw norm >= sqrt(1 - eps1 - eps2)",
            lambda b: tuple(math.sqrt(max(0.0, 1.0 - s)) for s in _eps_sum(b))),
    RowSpec("junk_rawnorm_upper", "chain", "<=", "raw norm <= sqrt(1 + eps1 + eps2)",
            lambda b: tuple(math.sqrt(1.0 + s) for s in _eps_sum(b))),
    _composed("state_error_pre_normalization", "state",
              "eps1 + 2*eps2 (from measured residuals)", lambda e1, e2: e1 + 2.0 * e2),
    _composed("state_error_normalized", "state",
              "(3/2)*eps1 + (5/2)*eps2 (from measured residuals)",
              lambda e1, e2: 1.5 * e1 + 2.5 * e2),
    *(
        _composed(f"extraction_{m}{n}", "extraction",
                  "(11*eps1 + 5*eps2)/2 (from measured residuals)", extraction_bound)
        for m, n in OPERATOR_PAIRS
    ),
)

_B_OPERATOR_ROWS = tuple(
    RowSpec(f"b_operator_{m}_{which}", "b_operator", "<=",
            "sqrt(2)*eps + 2*sqrt(2)*(eps*sqrt(2))**(1/4)",
            lambda b: (b_extraction_bound(b.epsilon),
                       SQRT2 * b.epsilon + b.eps2_exact / SQRT2))
    for m, which in B_ROWS
)


def certify(device: DeviceStack, mode: str) -> CertificationReport:
    """Full measured-vs-bound certification of one device, an n = 1 ``DeviceStack``.

    ``mode`` is "chsh" (operators regularized from A0/A1/B0/B1) or "my"
    (named XA/ZA/XB/ZB used directly, DB only in diagnostics).  This is the
    library's entry point: it validates the device once and checks the
    mode's observable names once (in ``correlation_stack``), and the stages
    after it trust the device: ``Mode.deviations`` and ``Mode.stages``.  A
    stack of any other number of devices raises ``ValueError`` naming the
    count, rather than certify its first row; invalid devices raise
    ``DeviceValidationError`` before any certification, a missing name
    ``KeyError``; a degenerate junk candidate's NaN errors fail the state,
    extraction and B rows, not a crash; a deviation outside [0, 1) fails the
    budget-dependent rows.
    """
    selftest = get_mode(mode)
    if len(device) != 1:
        raise ValueError(f"certify takes one device, an n = 1 stack, got {len(device)} devices")
    violations = validate_stack(device)[0]
    if violations:
        raise DeviceValidationError(violations)

    values, chsh, eps = selftest.deviations(device)
    # Row 0 as plain floats, which the report's JSON encoder writes directly.
    chsh = None if chsh is None else float(chsh[0])
    eps = float(eps[0])
    budget = selftest.budget(eps) if eps < 1.0 else None
    ops, psi, (residuals,), extraction = selftest.stages(device)
    junk_raw = float(extraction.junk_norm_raw[0])
    pair_errors = extraction.distances[0].tolist()

    # Every row's measured value, keyed by row name.
    measured = {
        "condition_anticomm_alice": residuals.anticomm_a,
        "condition_anticomm_bob": residuals.anticomm_b,
        "condition_diff_x": residuals.diff_x,
        "condition_diff_z": residuals.diff_z,
        **{name: float(column[0])
           for name, column in selftest.diagnostics(device, psi, ops).items()},
        "junk_rawnorm_lower": junk_raw,
        "junk_rawnorm_upper": junk_raw,
        "state_error_pre_normalization": float(extraction.pre_normalization[0]),
        "state_error_normalized": pair_errors[0],
        **{f"extraction_{m}{n}": error for (m, n), error in zip(OPERATOR_PAIRS, pair_errors)},
    }
    if any(spec.category == "b_operator" for spec in selftest.rows):
        bob = (device.bob_obs["B0"], device.bob_obs["B1"])
        errors = b_operator_stack(psi, ops, bob, extraction.junk)[0].tolist()
        measured.update(
            (f"b_operator_{m}_{which}", error) for (m, which), error in zip(B_ROWS, errors)
        )

    return CertificationReport(
        mode=mode,
        epsilon=eps,
        chsh=chsh,
        budget=budget,
        residuals=residuals,
        junk_norm_raw=junk_raw,
        degenerate=bool(extraction.degenerate[0]),
        rows=[_report_row(spec, measured[spec.name], budget, residuals)
              for spec in selftest.rows],
        fidelity=fidelity_block(eps),
        # A mode without a CHSH value reports its correlation table instead.
        correlations=dict(zip(selftest.table_keys, values[0].tolist())) if chsh is None else {},
    )


@dataclass(frozen=True)
class Mode:
    """What differs between the two self-tests, and (``deviations``, ``stages``)
    the one pipeline that ``certify``, the sweep and the search all run.

    ``pairs`` are the (Alice, Bob) observable pairs whose correlations define
    the deviation; a device must name every observable in them, and a
    correlation table keys them as ``"A_B"``.  ``deviation`` maps an (n,
    len(pairs)) array of those correlations, in ``pairs`` order, to (n,)
    arrays ``(CHSH value or None, epsilon)``, for device and table input
    alike.  ``derive`` takes a ``DeviceStack`` and ``diagnostics``
    ``(stack, psi, ops)``, giving one (n,) array per chain row, the stack
    already validated and name-checked by the entry point.  ``rows`` are the
    report rows in report order, one per link of the mode's chain of
    estimates; a correlation table's bounds are the headline grades of four
    of them; ``certify`` measures Bob's raw observables B0, B1 when they
    include ``b_operator`` rows.
    """

    name: str
    pairs: tuple[tuple[str, str], ...]
    deviation: Callable[[np.ndarray], tuple[np.ndarray | None, np.ndarray]]
    budget: Callable[[float], EpsilonBudget]
    derive: Callable[[DeviceStack], DerivedOperators]
    diagnostics: Callable[[DeviceStack, np.ndarray, DerivedOperators], dict[str, np.ndarray]]
    rows: tuple[RowSpec, ...]
    canonical: Callable[[], DeviceStack]

    @property
    def table_keys(self) -> tuple[str, ...]:
        return tuple(f"{a}_{b}" for a, b in self.pairs)

    def deviations(self, stack: DeviceStack) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
        """A valid stack's (n, len(pairs)) correlations, from one ``correlation_stack``
        call, with their (n,) CHSH values (or None) and epsilons."""
        values = correlation_stack(stack, self.pairs)
        return (values, *self.deviation(values))

    def stages(
        self, stack: DeviceStack
    ) -> tuple[DerivedOperators, np.ndarray, list[ResidualSet], ExtractionStack]:
        """The stages after epsilon, each run once on a valid stack: the
        derived operators, the (n, dA, dB) state matrices, one residual set
        per device and the extraction, NaN where a device is degenerate."""
        ops = self.derive(stack)
        psi = stack.state.reshape(len(stack), *stack.dims)
        return ops, psi, residual_stack(psi, ops), extraction_stack(psi, ops)


MODES = {
    "chsh": Mode(
        name="chsh",
        pairs=CHSH_PAIRS,
        deviation=chsh_epsilon,
        budget=chsh_budget,
        derive=derive_chsh_operators,
        diagnostics=chsh_diagnostics,
        rows=(
            *_condition_specs(
                "2*eps1; eps1 = 2*sqrt(eps*sqrt(2))",
                "eps2 = 4*(eps*sqrt(2))**(1/4)",
                # Regularized Bob operators anticommute exactly for CHSH devices.
                lambda b: (2.0 * b.eps1, 0.0),
            ),
            *_CHSH_CHAIN_ROWS,
            *_SHARED_ROWS,
            *_B_OPERATOR_ROWS,
        ),
        canonical=canonical_chsh_device,
    ),
    "my": Mode(
        name="my",
        pairs=MY_PAIRS,
        deviation=my_epsilon,
        budget=my_budget,
        # The named observables pass through unregularized.
        derive=my_operators,
        diagnostics=my_diagnostics,
        rows=(
            *_condition_specs(
                "2*eps1; eps1 = 2*(1+sqrt(2))*(2*eps)**(1/4) + 4*sqrt(2*eps)"
                " + ((5+3*sqrt(2))/2)*(2*eps)**(3/4)",
                "eps2 = sqrt(2*eps)",
                _twice_eps1,
            ),
            *_MY_CHAIN_ROWS,
            *_SHARED_ROWS,
        ),
        canonical=canonical_my_device,
    ),
}


def get_mode(name: str) -> Mode:
    """The registered ``Mode`` called ``name``; ``ValueError`` for any other name."""
    try:
        return MODES[name]
    except (KeyError, TypeError):
        raise ValueError(f"mode must be 'chsh' or 'my', got {name!r}") from None
