"""Regularized operators, condition residuals, and closed-form error budgets.

From raw CHSH observables this module constructs the Hermitian-unitary
operators X'_A = A0, Z'_A = A1, X'_B = sign(B0 + B1), Z'_B = sign(B0 - B1)
(with the +1 kernel convention), measures the four condition residuals

    anticomm_a = || (X'_A Z'_A + Z'_A X'_A) |psi> ||
    anticomm_b = || (X'_B Z'_B + Z'_B X'_B) |psi> ||
    diff_x     = || (X'_A - X'_B) |psi> ||
    diff_z     = || (Z'_A - Z'_B) |psi> ||

and converts an observed correlation deficit epsilon into the (eps1, eps2)
budgets that those residuals are guaranteed to satisfy.  Both the headline
(leading-order) budget formulas and the exact chained forms are computed,
since the two differ at order eps^(3/2).

Residuals and chain diagnostics are local expectations and norms.  With the
state reshaped to its (dA, dB) coefficient matrix Psi (Alice's index major),
(A (x) B)|psi> is A Psi B^T, so each quantity is a few dA x dA and dB x dB
matrix products applied to Psi, O(d^3), and no d^2 x d^2 embedding is formed.
The operators, residuals and diagnostics take a ``DeviceStack`` of n devices,
or its (n, dA, dB) stack of state matrices with (n, d, d) operators: each
product is one stacked matmul, and a single device is the n = 1 stack.

The functions that take a stack trust it: its devices must be valid
(``device.validate_stack`` finds no violation) and name the observables of
their mode.  The entry points check both once per device, then derive and
take residuals through ``bounds.Mode.stages``: ``bounds.certify`` for library
callers and loaded files, ``explorer.sweep`` / ``worst_case_search`` for the
devices they build.  A missing name still raises ``KeyError`` from the lookup.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .device import DeviceStack
from .linalg import operator_sign, transpose, vector_norms

SQRT2 = float(np.sqrt(2.0))


@dataclass(frozen=True)
class DerivedOperators:
    """The four regularized operators, each Hermitian and unitary.

    Each field is an (n, d, d) stack, one matrix per device of the
    ``DeviceStack`` it is derived from.  For non-degenerate CHSH devices xb
    and zb anticommute exactly at the operator level (they are signs of exactly
    anticommuting sums); the +1 kernel convention can break this only when
    B0 +/- B1 is singular.
    """

    xa: np.ndarray
    za: np.ndarray
    xb: np.ndarray
    zb: np.ndarray


@dataclass(frozen=True)
class ResidualSet:
    """Measured condition residuals; each lies in [0, 2] for unit operators."""

    anticomm_a: float
    anticomm_b: float
    diff_x: float
    diff_z: float

    @property
    def eps1(self) -> float:
        """Single anticommutation budget covering both parties."""
        return max(self.anticomm_a, self.anticomm_b) / 2.0

    @property
    def eps2(self) -> float:
        """Single difference budget covering both operator pairs."""
        return max(self.diff_x, self.diff_z)


@dataclass(frozen=True)
class EpsilonBudget:
    """Closed-form (eps1, eps2) budgets implied by an observed deviation.

    ``eps1``/``eps2``/``eps_prime`` are the headline leading-order formulas;
    the ``*_exact`` fields are the untruncated chained forms.  ``delta`` is
    the commutator-chain quantity 4*sqrt(2)*eps - eps**2 and is only defined
    for CHSH-derived budgets.
    """

    epsilon: float
    eps1: float
    eps2: float
    eps_prime: float
    eps1_exact: float
    eps2_exact: float
    eps_prime_exact: float
    delta: float | None = None


def _check_epsilon(epsilon: float) -> float:
    epsilon = float(epsilon)
    if not 0.0 <= epsilon < 1.0:
        raise ValueError(f"deviation epsilon must lie in [0, 1), got {epsilon}")
    return epsilon


def chsh_budget(epsilon: float) -> EpsilonBudget:
    """Budgets implied by a CHSH deficit epsilon = 2*sqrt(2) - CHSH.

    Headline forms: eps1 = 2*(eps*sqrt(2))**(1/2), eps2 = 4*(eps*sqrt(2))**(1/4),
    eps_prime = (eps*sqrt(2))**(1/2).  Exact forms: eps1 = sqrt(delta) with
    delta = 4*sqrt(2)*eps - eps**2, eps_prime = eps/sqrt(2) + sqrt(1+eps1) - 1,
    eps2 = 2*sqrt(eps1 + 2*eps_prime).
    """
    epsilon = _check_epsilon(epsilon)
    delta = 4.0 * SQRT2 * epsilon - epsilon**2
    eps1 = 2.0 * (epsilon * SQRT2) ** 0.5
    eps2 = 4.0 * (epsilon * SQRT2) ** 0.25
    eps_prime = (epsilon * SQRT2) ** 0.5
    eps1_exact = delta**0.5
    eps_prime_exact = epsilon / SQRT2 + (1.0 + eps1_exact) ** 0.5 - 1.0
    eps2_exact = 2.0 * (eps1_exact + 2.0 * eps_prime_exact) ** 0.5
    return EpsilonBudget(
        epsilon=epsilon,
        eps1=eps1,
        eps2=eps2,
        eps_prime=eps_prime,
        eps1_exact=eps1_exact,
        eps2_exact=eps2_exact,
        eps_prime_exact=eps_prime_exact,
        delta=delta,
    )


def my_budget(epsilon: float) -> EpsilonBudget:
    """Budgets implied by a Mayers-Yao deviation epsilon.

    Headline forms: eps1 = 2*(1+sqrt(2))*(2*eps)**(1/4) + 4*sqrt(2*eps)
    + ((5+3*sqrt(2))/2)*(2*eps)**(3/4) and eps2 = sqrt(2*eps).  The chain
    intermediate eps_prime = sqrt((1+2*sqrt(2))*eps + sqrt(2*eps)) is exact;
    the exact per-condition eps1 is (1+sqrt(2))*eps_prime + 2*sqrt(2*eps)
    (half the headline value, which bounds the residual norm itself).
    """
    epsilon = _check_epsilon(epsilon)
    two_eps = 2.0 * epsilon
    eps_prime = ((1.0 + 2.0 * SQRT2) * epsilon + two_eps**0.5) ** 0.5
    eps1 = (
        2.0 * (1.0 + SQRT2) * two_eps**0.25
        + 4.0 * two_eps**0.5
        + ((5.0 + 3.0 * SQRT2) / 2.0) * two_eps**0.75
    )
    eps2 = two_eps**0.5
    eps1_exact = (1.0 + SQRT2) * eps_prime + 2.0 * two_eps**0.5
    return EpsilonBudget(
        epsilon=epsilon,
        eps1=eps1,
        eps2=eps2,
        eps_prime=eps_prime,
        eps1_exact=eps1_exact,
        eps2_exact=eps2,
        eps_prime_exact=eps_prime,
        delta=None,
    )


def derive_chsh_operators(stack: DeviceStack) -> DerivedOperators:
    """Regularize raw CHSH observables into the four derived operators.

    Precondition: the devices are valid and name A0, A1, B0 and B1 (see the
    module docstring for where that is checked).
    """
    b0 = stack.bob_obs["B0"]
    b1 = stack.bob_obs["B1"]
    # Both signs in one call: eigh runs once per matrix either way.
    xb, zb = operator_sign(np.stack((b0 + b1, b0 - b1)))
    return DerivedOperators(xa=stack.alice_obs["A0"], za=stack.alice_obs["A1"], xb=xb, zb=zb)


def my_operators(stack: DeviceStack) -> DerivedOperators:
    """Identity pass-through of the named Mayers-Yao observables.

    No regularization step exists here: the named XA, ZA, XB, ZB are used
    directly as the extraction operators.  DB participates only in the
    diagnostic residuals, never in the extraction circuit.  Precondition:
    the devices are valid and name XA, ZA, XB and ZB.
    """
    return DerivedOperators(
        xa=stack.alice_obs["XA"],
        za=stack.alice_obs["ZA"],
        xb=stack.bob_obs["XB"],
        zb=stack.bob_obs["ZB"],
    )


def residual_stack(psi: np.ndarray, ops: DerivedOperators) -> list[ResidualSet]:
    """The condition residuals of each state matrix in an (n, dA, dB) stack.

    ``ops`` holds (n, d, d) stacks, one set per state, or single matrices
    that every state shares.
    """
    xbt = transpose(ops.xb)
    zbt = transpose(ops.zb)
    xa_psi = ops.xa @ psi
    za_psi = ops.za @ psi
    xb_psi = psi @ xbt
    zb_psi = psi @ zbt
    # The four residual vectors of each state, in ResidualSet's field order.
    vectors = np.empty((len(psi), 4, *psi.shape[1:]), dtype=complex)
    np.add(ops.xa @ za_psi, ops.za @ xa_psi, out=vectors[:, 0])
    np.add(zb_psi @ xbt, xb_psi @ zbt, out=vectors[:, 1])
    np.subtract(xa_psi, xb_psi, out=vectors[:, 2])
    np.subtract(za_psi, zb_psi, out=vectors[:, 3])
    norms = np.linalg.norm(vectors.reshape(len(psi), 4, -1), axis=2)
    return [ResidualSet(*row) for row in norms.tolist()]


def _norms(**vectors: np.ndarray) -> dict[str, np.ndarray]:
    """The 2-norm of each state matrix of every (n, dA, dB) stack, keyed as
    ``vectors``; each equals ``np.linalg.norm`` of that state matrix alone."""
    flat = np.stack(list(vectors.values()), axis=1)
    return dict(zip(vectors, vector_norms(flat.reshape(*flat.shape[:2], -1)).T))


def _overlaps(psi: np.ndarray, **vectors: np.ndarray) -> dict[str, np.ndarray]:
    """Re <psi|v> for each state of an (n, dA, dB) stack and every stack v of
    ``vectors``, keyed as ``vectors``; each is one BLAS dot, equal to
    ``np.vdot`` of that state alone."""
    bra = np.conj(psi).reshape(len(psi), 1, 1, -1)
    kets = np.stack(list(vectors.values()), axis=1).reshape(len(psi), len(vectors), -1, 1)
    return dict(zip(vectors, (bra @ kets)[..., 0, 0].real.T))


def _z_rows(psi: np.ndarray, ops: DerivedOperators) -> dict[str, np.ndarray]:
    """|<Z'_A>| and |<Z'_B>|, as Z'_A Psi and Psi Z'_B^T on each state matrix Psi."""
    z = _overlaps(psi, za_expectation_abs=ops.za @ psi, zb_expectation_abs=psi @ transpose(ops.zb))
    return {name: np.abs(value) for name, value in z.items()}


def chsh_diagnostics(
    stack: DeviceStack, psi: np.ndarray, ops: DerivedOperators
) -> dict[str, np.ndarray]:
    """Intermediate chain quantities of each device of a CHSH stack, one (n,) array per row.

    ``psi`` is the stack's (n, dA, dB) state matrices and ``ops`` its derived
    operators.  The rows: the commutator-product expectation, the four
    mixed-product norms, the raw anticommutator norms, the overlap
    <X'_A (B0+B1)>, the distances of X'_A and X'_B to (B0+B1)/sqrt(2) on the
    state, and |<Z'_A>|, |<Z'_B>|.  Precondition: as ``derive_chsh_operators``.
    """
    a0 = stack.alice_obs["A0"]
    a1 = stack.alice_obs["A1"]
    b0t = transpose(stack.bob_obs["B0"])
    b1t = transpose(stack.bob_obs["B1"])

    a0_psi = a0 @ psi
    a0a1 = a0 @ (a1 @ psi)
    a1a0 = a1 @ a0_psi
    b1b0 = (psi @ b0t) @ b1t
    b0b1 = (psi @ b1t) @ b0t
    bsum_t = b0t + b1t
    bsum = psi @ bsum_t / SQRT2

    return {
        **_overlaps(psi, commutator_product=(a0a1 - a1a0) @ (b0t @ b1t - b1t @ b0t),
                    xa_bsum_overlap=a0_psi @ bsum_t),
        **_norms(norm_a0a1_plus_b1b0=a0a1 + b1b0, norm_a0a1_minus_b0b1=a0a1 - b0b1,
                 norm_a1a0_minus_b1b0=a1a0 - b1b0, norm_a1a0_plus_b0b1=a1a0 + b0b1,
                 anticomm_a_raw=a0a1 + a1a0, anticomm_b_raw=b0b1 + b1b0,
                 norm_xa_minus_bsum=a0_psi - bsum,
                 norm_xb_minus_bsum=psi @ transpose(ops.xb) - bsum),
        **_z_rows(psi, ops),
    }


def my_diagnostics(
    stack: DeviceStack, psi: np.ndarray, ops: DerivedOperators
) -> dict[str, np.ndarray]:
    """Intermediate chain quantities of each device of a Mayers-Yao stack, as
    ``chsh_diagnostics``, with ``ops`` the named XA, ZA, XB, ZB.

    DB enters only here, through its distance to (XA+ZA)/sqrt(2) on the
    state; it plays no role in any other estimate or in the extraction
    circuit.  Precondition: the devices are valid and name XA, ZA, XB, ZB, DB.
    """
    xa, za = ops.xa, ops.za
    xbt, zbt = transpose(ops.xb), transpose(ops.zb)

    xaza = xa @ (za @ psi)
    zaxa = za @ (xa @ psi)
    xbzb = (psi @ zbt) @ xbt
    zbxb = (psi @ xbt) @ zbt
    sum_xz = (xa + za) @ psi / SQRT2

    return {
        **_norms(sum_xz_norm=sum_xz, db_vs_sum_xz=psi @ transpose(stack.bob_obs["DB"]) - sum_xz,
                 anticomm_alice=xaza + zaxa, cross_za_xa=zaxa - xbzb, cross_xa_za=xaza - zbxb,
                 anticomm_bob=xbzb + zbxb),
        **_z_rows(psi, ops),
    }
