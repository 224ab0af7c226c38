"""Closed-form bound catalogue and the certification engine.

``certify`` runs the full measured-vs-bound pipeline for one device: deviation
epsilon, closed-form budgets, derived (or pass-through) operators, condition
residuals, diagnostic chain entries, extraction errors, and the measured-B
rows, producing one report row per quantity.  Bound columns come in two
grades: the headline leading-order formulas and the exact chained forms; each
row passes against the weaker (proven-safe) of the two, except extraction and
state rows which certify against the bound composed from the *measured*
residuals.  A report row never silently disappears: the row count per mode is
asserted.
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
    chsh_budget,
    chsh_diagnostics,
    condition_residuals,
    derive_chsh_operators,
    my_budget,
    my_diagnostics,
    my_operators,
)
from .device import (
    CHSH_PAIRS,
    MY_PAIRS,
    DeviceModel,
    canonical_chsh_device,
    canonical_my_device,
    chsh_epsilon,
    correlations,
    my_epsilon,
    require_valid,
)
from .isometry import (
    B_ROWS,
    DegenerateExtractionError,
    OPERATOR_PAIRS,
    b_measured_errors,
    extraction_error,
)

# Absolute allowance for rounding in every pass/fail comparison, and the
# report's ``certTol``.
CERT_TOL = 1e-9

# Externally quoted reference point for the fidelity lower bound: a drop to
# 20% already at deviation 1e-4 has been quoted alongside the closed-form
# expression, but direct evaluation of the expression gives a different value.
# Reports carry both and a discrepancy flag; nothing is asserted between them.
FIDELITY_REFERENCE_EPSILON = 1e-4
FIDELITY_REFERENCE_VALUE = 0.20


def _require_nonnegative(**values: float) -> None:
    for name, value in values.items():
        if value < 0:
            raise ValueError(f"{name} must be nonnegative, got {value}")


def extraction_bound(eps1: float, eps2: float) -> float:
    """Guaranteed extraction error (11*eps1 + 5*eps2)/2 for residual budgets."""
    _require_nonnegative(eps1=eps1, eps2=eps2)
    return (11.0 * eps1 + 5.0 * eps2) / 2.0


def state_error_bounds(eps1: float, eps2: float) -> tuple[float, float]:
    """State extraction bounds before and after junk normalization.

    Returns ``(eps1 + 2*eps2, 1.5*eps1 + 2.5*eps2)``; the difference
    (eps1 + eps2)/2 is exactly the cost charged for normalizing the junk
    candidate.
    """
    _require_nonnegative(eps1=eps1, eps2=eps2)
    return (eps1 + 2.0 * eps2, 1.5 * eps1 + 2.5 * eps2)


def b_extraction_bound(epsilon: float) -> float:
    """Extraction bound for Bob's raw observables:
    sqrt(2)*eps + 2*sqrt(2)*(eps*sqrt(2))**(1/4)."""
    epsilon = float(epsilon)
    if not 0.0 <= epsilon < 1.0:
        raise ValueError(f"deviation epsilon must lie in [0, 1), got {epsilon}")
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
    bound_headline: float = float("nan")
    bound_exact: float = float("nan")

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


NAN = float("nan")


def _mk_row(
    name: str,
    category: str,
    measured: float,
    grades: tuple[float, float] | None,
    direction: str,
    formula: str,
    bound_override: float | None = None,
) -> ReportRow:
    """Build a row, selecting the weaker (safe) grade as the certification bound.

    ``grades`` is (headline, exact) or None when no budget exists (out-of-range
    deviation); ``bound_override`` replaces the selection, used for rows that
    certify against measured-residual compositions.  The row passes within
    ``CERT_TOL`` of its bound.
    """
    if grades is None:
        bound_headline = bound_exact = NAN
    else:
        bound_headline, bound_exact = grades
    if bound_override is not None:
        bound = bound_override
    elif grades is None:
        bound = NAN
    elif direction == "<=":
        bound = max(bound_headline, bound_exact)
    else:
        bound = min(bound_headline, bound_exact)
    if direction == "<=":
        passed = bool(measured <= bound + CERT_TOL)
    else:
        passed = bool(measured >= bound - CERT_TOL)
    return ReportRow(
        name=name,
        category=category,
        measured=measured,
        bound=bound,
        direction=direction,
        formula=formula,
        passed=passed,
        bound_headline=bound_headline,
        bound_exact=bound_exact,
    )


def _condition_rows(
    residuals: ResidualSet, budget: EpsilonBudget | None, selftest: Mode
) -> list[ReportRow]:
    if budget is None:
        a_grades = b_grades = d_grades = None
    else:
        a_grades = (2.0 * budget.eps1, 2.0 * budget.eps1_exact)
        b_grades = (
            (2.0 * budget.eps1, 0.0) if selftest.exact_bob_anticommutation else a_grades
        )
        d_grades = (budget.eps2, budget.eps2_exact)
    return [
        _mk_row("condition_anticomm_alice", "condition", residuals.anticomm_a,
                a_grades, "<=", selftest.eps1_formula),
        _mk_row("condition_anticomm_bob", "condition", residuals.anticomm_b,
                b_grades, "<=", selftest.eps1_formula),
        _mk_row("condition_diff_x", "condition", residuals.diff_x,
                d_grades, "<=", selftest.eps2_formula),
        _mk_row("condition_diff_z", "condition", residuals.diff_z,
                d_grades, "<=", selftest.eps2_formula),
    ]


def _shared_state_rows(
    junk_raw: float, za_abs: float, zb_abs: float,
    budget: EpsilonBudget | None,
) -> list[ReportRow]:
    """Expectation and junk-norm window rows common to both modes."""
    if budget is None:
        z_grades = lower_grades = upper_grades = None
    else:
        s_headline = budget.eps1 + budget.eps2
        s_exact = budget.eps1_exact + budget.eps2_exact
        z_grades = (s_headline, s_exact)
        lower_grades = (
            math.sqrt(max(0.0, 1.0 - s_headline)),
            math.sqrt(max(0.0, 1.0 - s_exact)),
        )
        upper_grades = (math.sqrt(1.0 + s_headline), math.sqrt(1.0 + s_exact))
    return [
        _mk_row("za_expectation_abs", "chain", za_abs, z_grades, "<=",
                "|<Z'_A>| <= eps1 + eps2"),
        _mk_row("zb_expectation_abs", "chain", zb_abs, z_grades, "<=",
                "|<Z'_B>| <= eps1 + eps2"),
        _mk_row("junk_rawnorm_lower", "chain", junk_raw, lower_grades, ">=",
                "raw norm >= sqrt(1 - eps1 - eps2)"),
        _mk_row("junk_rawnorm_upper", "chain", junk_raw, upper_grades, "<=",
                "raw norm <= sqrt(1 + eps1 + eps2)"),
    ]


def _chsh_chain_rows(
    diag: dict[str, float], budget: EpsilonBudget | None
) -> list[ReportRow]:
    if budget is None:
        comm_grades = prod_grades = anti_grades = None
        overlap_grades = dist_grades = None
    else:
        comm_grades = (4.0 - budget.delta, 4.0 - budget.delta)
        prod_grades = (budget.eps1, budget.eps1_exact)
        anti_grades = (2.0 * budget.eps1, 2.0 * budget.eps1_exact)
        overlap_grades = (
            SQRT2 * (1.0 - budget.eps_prime),
            SQRT2 * (1.0 - budget.eps_prime_exact),
        )
        dist_grades = (budget.eps2 / 2.0, budget.eps2_exact / 2.0)
    rows = [
        _mk_row("commutator_product", "chain", diag["commutator_product"],
                comm_grades, ">=",
                "<[A0,A1][B1,B0]> >= 4 - delta; delta = 4*sqrt(2)*eps - eps**2"),
    ]
    for name in (
        "norm_a0a1_plus_b1b0",
        "norm_a0a1_minus_b0b1",
        "norm_a1a0_minus_b1b0",
        "norm_a1a0_plus_b0b1",
    ):
        rows.append(_mk_row(name, "chain", diag[name], prod_grades, "<=",
                            "mixed product norm <= sqrt(delta)"))
    rows.append(_mk_row("anticomm_a_raw", "chain", diag["anticomm_a_raw"],
                        anti_grades, "<=", "||{A0,A1}psi|| <= 2*eps1"))
    rows.append(_mk_row("anticomm_b_raw", "chain", diag["anticomm_b_raw"],
                        anti_grades, "<=", "||{B0,B1}psi|| <= 2*eps1"))
    rows.append(_mk_row("xa_bsum_overlap", "chain", diag["xa_bsum_overlap"],
                        overlap_grades, ">=",
                        "<X'_A(B0+B1)> >= sqrt(2)*(1 - eps_prime)"))
    rows.append(_mk_row("norm_xa_minus_bsum", "chain", diag["norm_xa_minus_bsum"],
                        dist_grades, "<=",
                        "||(X'_A - (B0+B1)/sqrt(2))psi|| <= 2*(eps*sqrt(2))**(1/4)"))
    rows.append(_mk_row("norm_xb_minus_bsum", "chain", diag["norm_xb_minus_bsum"],
                        dist_grades, "<=",
                        "||(X'_B - (B0+B1)/sqrt(2))psi|| <= 2*(eps*sqrt(2))**(1/4)"))
    return rows


def _my_chain_rows(
    diag: dict[str, float], budget: EpsilonBudget | None
) -> list[ReportRow]:
    if budget is None:
        sum_grades = db_grades = anti_a_grades = cross_grades = anti_b_grades = None
    else:
        eps = budget.epsilon
        sum_bound = math.sqrt(1.0 + eps + math.sqrt(2.0 * eps))
        sum_grades = (sum_bound, sum_bound)
        db_grades = (budget.eps_prime, budget.eps_prime)
        anti_a = 2.0 * (1.0 + SQRT2) * budget.eps_prime
        anti_a_grades = (anti_a, anti_a)
        cross = 2.0 * math.sqrt(2.0 * eps)
        cross_grades = (cross, cross)
        anti_b_grades = (budget.eps1, 2.0 * budget.eps1_exact)
    return [
        _mk_row("sum_xz_norm", "chain", diag["sum_xz_norm"], sum_grades, "<=",
                "||((X'_A+Z'_A)/sqrt(2))psi|| <= sqrt(1 + eps + sqrt(2*eps))"),
        _mk_row("db_vs_sum_xz", "chain", diag["db_vs_sum_xz"], db_grades, "<=",
                "||(D'_B - (X'_A+Z'_A)/sqrt(2))psi|| <= eps_prime"),
        _mk_row("anticomm_alice", "chain", diag["anticomm_alice"], anti_a_grades,
                "<=", "||{X'_A,Z'_A}psi|| <= 2*(1+sqrt(2))*eps_prime"),
        _mk_row("cross_za_xa", "chain", diag["cross_za_xa"], cross_grades, "<=",
                "||(Z'_A X'_A - X'_B Z'_B)psi|| <= 2*sqrt(2*eps)"),
        _mk_row("cross_xa_za", "chain", diag["cross_xa_za"], cross_grades, "<=",
                "||(X'_A Z'_A - Z'_B X'_B)psi|| <= 2*sqrt(2*eps)"),
        _mk_row("anticomm_bob", "chain", diag["anticomm_bob"], anti_b_grades, "<=",
                "||{X'_B,Z'_B}psi|| <= 2*(1+sqrt(2))*eps_prime + 4*sqrt(2*eps)"),
    ]


def _z_expectations(device: DeviceModel, ops: DerivedOperators) -> tuple[float, float]:
    """|<Z'_A>| and |<Z'_B>|, as Z'_A Psi and Psi Z'_B^T on the state matrix Psi."""
    psi = device.state.reshape(device.dims)
    return (
        abs(float(np.vdot(psi, ops.za @ psi).real)),
        abs(float(np.vdot(psi, psi @ ops.zb.T).real)),
    )


def _b_operator_rows(
    device: DeviceModel,
    ops: DerivedOperators,
    junk: np.ndarray | None,
    eps: float,
    budget: EpsilonBudget | None,
) -> list[ReportRow]:
    """Extraction errors of Bob's raw B0/B1; NaN when the junk is degenerate."""
    b_grades = None if budget is None else (
        b_extraction_bound(eps), SQRT2 * eps + budget.eps2_exact / SQRT2
    )
    errors = {} if junk is None else b_measured_errors(device, ops, junk)
    return [
        _mk_row(f"b_operator_{m}_{which}", "b_operator", errors.get((m, which), NAN),
                b_grades, "<=", "sqrt(2)*eps + 2*sqrt(2)*(eps*sqrt(2))**(1/4)")
        for m, which in B_ROWS
    ]


def certify(
    device: DeviceModel, mode: str
) -> CertificationReport:
    """Full measured-vs-bound certification of one device.

    ``mode`` is "chsh" (operators regularized from A0/A1/B0/B1) or "my"
    (named XA/ZA/XB/ZB used directly, DB only in diagnostics).  This is the
    library's entry point: it validates the device once and checks the
    mode's observable names once (in ``correlations``), and the stages after
    it trust the device.  Invalid devices raise ``DeviceValidationError``
    before any certification, a missing name ``KeyError``; a degenerate junk
    candidate is reported as failed extraction rows, not a crash; a deviation
    outside [0, 1) fails the budget-dependent rows.
    """
    selftest = get_mode(mode)
    require_valid(device)

    table = correlations(device, selftest.pairs)
    chsh, eps = selftest.deviation(table)
    table_by_key = dict(zip(selftest.table_keys, table.values()))
    ops = selftest.derive(device)
    diag = selftest.diagnostics(device, ops)
    budget = selftest.budget(eps) if eps < 1.0 else None

    residuals = condition_residuals(device.state, ops)
    rows = _condition_rows(residuals, budget, selftest)
    rows.extend(selftest.chain_rows(diag, budget))

    # Extraction: measured errors against the bound composed from measured
    # residuals; budget-composed grades carried as informational columns.
    eps1_m, eps2_m = residuals.eps1, residuals.eps2
    measured_bound = extraction_bound(eps1_m, eps2_m)
    if budget is not None:
        extr_grades = (
            extraction_bound(budget.eps1, budget.eps2),
            extraction_bound(budget.eps1_exact, budget.eps2_exact),
        )
        # (headline, exact) grades of the (pre, post) normalization bounds
        state_grades_pre, state_grades_post = zip(
            state_error_bounds(budget.eps1, budget.eps2),
            state_error_bounds(budget.eps1_exact, budget.eps2_exact),
        )
    else:
        extr_grades = state_grades_pre = state_grades_post = None

    degenerate = False
    junk = None
    try:
        result = extraction_error(device, ops)
        junk = result.junk
        junk_raw = result.junk_norm_raw
        state_pre = result.state_error_pre_normalization
        state_post = result.errors_by_pair[("I", "I")]
        pair_errors = result.errors_by_pair
    except DegenerateExtractionError as err:
        degenerate = True
        junk_raw = err.raw_norm
        state_pre = state_post = NAN
        pair_errors = {pair: NAN for pair in OPERATOR_PAIRS}

    za_abs, zb_abs = _z_expectations(device, ops)
    rows.extend(_shared_state_rows(junk_raw, za_abs, zb_abs, budget))

    rows.append(
        _mk_row("state_error_pre_normalization", "state", state_pre,
                state_grades_pre, "<=", "eps1 + 2*eps2 (from measured residuals)",
                bound_override=eps1_m + 2.0 * eps2_m)
    )
    rows.append(
        _mk_row("state_error_normalized", "state", state_post,
                state_grades_post, "<=",
                "(3/2)*eps1 + (5/2)*eps2 (from measured residuals)",
                bound_override=1.5 * eps1_m + 2.5 * eps2_m)
    )
    for m, n in OPERATOR_PAIRS:
        rows.append(
            _mk_row(f"extraction_{m}{n}", "extraction", pair_errors[(m, n)],
                    extr_grades, "<=",
                    "(11*eps1 + 5*eps2)/2 (from measured residuals)",
                    bound_override=measured_bound)
        )
    if selftest.b_operator:
        rows.extend(_b_operator_rows(device, ops, junk, eps, budget))

    if len(rows) != selftest.row_count:
        raise AssertionError(
            f"report row count {len(rows)} != expected {selftest.row_count} for mode {mode}"
        )

    return CertificationReport(
        mode=mode,
        epsilon=eps,
        chsh=chsh,
        budget=budget,
        residuals=residuals,
        junk_norm_raw=junk_raw,
        degenerate=degenerate,
        rows=rows,
        fidelity=fidelity_block(eps),
        correlations=table_by_key if selftest.reports_correlations else {},
    )


@dataclass(frozen=True)
class Mode:
    """What differs between the two self-tests; the pipeline around it is shared.

    ``pairs`` are the (Alice, Bob) observable pairs whose correlations define
    the deviation; a device must name every observable in them, and a
    correlation table keys them as ``"A_B"``.  ``deviation`` maps those
    correlations to ``(CHSH value or None, epsilon)`` for device and table
    input alike.  ``derive`` and ``diagnostics`` take ``(device)`` and
    ``(device, ops)``, the device already validated and name-checked by the
    entry point.  ``exact_bob_anticommutation`` sets the exact grade of the
    Bob anticommutation row to 0; ``b_operator`` adds the six rows for Bob's
    raw observables (and the ``bOperator`` table bound);
    ``reports_correlations`` puts the correlation table into the report.
    """

    name: str
    pairs: tuple[tuple[str, str], ...]
    deviation: Callable[[dict[tuple[str, str], float]], tuple[float | None, float]]
    budget: Callable[[float], EpsilonBudget]
    derive: Callable[[DeviceModel], DerivedOperators]
    diagnostics: Callable[[DeviceModel, DerivedOperators], dict[str, float]]
    chain_rows: Callable[[dict[str, float], EpsilonBudget | None], list[ReportRow]]
    eps1_formula: str
    eps2_formula: str
    exact_bob_anticommutation: bool
    b_operator: bool
    reports_correlations: bool
    row_count: int
    canonical: Callable[[], DeviceModel]

    @property
    def table_keys(self) -> tuple[str, ...]:
        return tuple(f"{a}_{b}" for a, b in self.pairs)


MODES = {
    "chsh": Mode(
        name="chsh",
        pairs=CHSH_PAIRS,
        deviation=chsh_epsilon,
        budget=chsh_budget,
        derive=derive_chsh_operators,
        diagnostics=chsh_diagnostics,
        chain_rows=_chsh_chain_rows,
        eps1_formula="2*eps1; eps1 = 2*sqrt(eps*sqrt(2))",
        eps2_formula="eps2 = 4*(eps*sqrt(2))**(1/4)",
        # Regularized Bob operators anticommute exactly for CHSH devices.
        exact_bob_anticommutation=True,
        b_operator=True,
        reports_correlations=False,
        row_count=35,
        canonical=canonical_chsh_device,
    ),
    "my": Mode(
        name="my",
        pairs=MY_PAIRS,
        deviation=my_epsilon,
        budget=my_budget,
        # The named observables pass through unregularized, and the chain
        # diagnostics read them (and DB) from the device directly.
        derive=my_operators,
        diagnostics=lambda device, ops: my_diagnostics(device),
        chain_rows=_my_chain_rows,
        eps1_formula="2*eps1; eps1 = 2*(1+sqrt(2))*(2*eps)**(1/4) + 4*sqrt(2*eps)"
        " + ((5+3*sqrt(2))/2)*(2*eps)**(3/4)",
        eps2_formula="eps2 = sqrt(2*eps)",
        exact_bob_anticommutation=False,
        b_operator=False,
        reports_correlations=True,
        row_count=25,
        canonical=canonical_my_device,
    ),
}


def get_mode(name: str) -> Mode:
    """The registered ``Mode`` called ``name``; ``ValueError`` for any other name."""
    try:
        return MODES[name]
    except (KeyError, TypeError):
        raise ValueError(f"mode must be 'chsh' or 'my', got {name!r}") from None
