"""Extraction circuit, candidate junk state, and measured extraction errors.

The isometry attaches one ancilla qubit per party (initialized to |0>) and
applies, per party: Hadamard, controlled-Z' (the ancilla controls the party's
device register), Hadamard, controlled-X'.  Register ordering is fixed as

    (Alice device, Bob device, Alice ancilla, Bob ancilla)

so the output of the circuit on a (dA, dB) device lives in dimension
dA * dB * 4 with flat index ((iA*dB + iB)*2 + aA)*2 + aB.  The extraction
error for an input and an ancilla target is the 2-norm distance between the
circuit output and junk (x) target, where junk is one fixed vector: the
normalized (I+Z'_A)(I+Z'_B)|psi'>/(2*sqrt(2)) candidate.  One kernel computes
every such distance, in one circuit pass over a stacked (k, dA, dB) batch of
inputs against a constant table of ancilla targets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .derive import DerivedOperators
from .device import DeviceModel
from .linalg import IDENTITY_2, PAULI_X, PAULI_Z, PHI_PLUS

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)

PAULI_BY_NAME = {"I": IDENTITY_2, "X": PAULI_X, "Z": PAULI_Z}
OPERATOR_PAIRS = tuple((m, n) for m in ("I", "X", "Z") for n in ("I", "X", "Z"))
B_ROWS = tuple((m, which) for m in ("I", "X", "Z") for which in ("B0", "B1"))

# Ancilla targets, one row per OPERATOR_PAIRS / B_ROWS entry: (M (x) N)|phi+>,
# and M (x) (X + Z)/sqrt(2) |phi+> for B0, M (x) (X - Z)/sqrt(2) |phi+> for B1.
PAIR_TARGETS = np.array(
    [np.kron(PAULI_BY_NAME[m], PAULI_BY_NAME[n]) @ PHI_PLUS for m, n in OPERATOR_PAIRS]
)
B_TARGETS = np.array([
    np.kron(PAULI_BY_NAME[m], (PAULI_X + (1.0 if which == "B0" else -1.0) * PAULI_Z)
            / np.sqrt(2.0)) @ PHI_PLUS
    for m, which in B_ROWS
])

DEGENERACY_TOL = 1e-6


class DegenerateExtractionError(ValueError):
    """Raised when the junk candidate has vanishing norm.

    Below the degeneracy threshold the normalization step is meaningless: the
    conditions are grossly violated and no meaningful junk state exists.
    ``raw_norm`` is the candidate's norm before normalization.
    """

    def __init__(self, raw_norm: float):
        self.raw_norm = raw_norm
        super().__init__(
            f"junk candidate norm {raw_norm:.3e} below degeneracy threshold "
            f"{DEGENERACY_TOL:.1e}; no meaningful junk state exists"
        )


@dataclass(frozen=True)
class ExtractionResult:
    """Extraction errors for all nine operator pairs with one fixed junk.

    The ("I", "I") error is the state error after junk normalization, and
    ``state_error_pre_normalization`` the one against ``junk_norm_raw * junk``.
    """

    junk: np.ndarray
    junk_norm_raw: float
    errors_by_pair: dict[tuple[str, str], float]
    state_error_pre_normalization: float

    @property
    def max_error(self) -> float:
        return max(self.errors_by_pair.values())


def _state_matrix(device: DeviceModel, ops: DerivedOperators) -> np.ndarray:
    """|psi'> as a (dA, dB) coefficient matrix, checked against the operator dims."""
    if ops.dims != device.dims:
        raise ValueError(f"operator dims {ops.dims} do not match device dims {device.dims}")
    return device.state.reshape(device.dims)


def _stacked_inputs(
    psi: np.ndarray, ops: DerivedOperators, bob: tuple[np.ndarray, ...]
) -> np.ndarray:
    """M' Psi N^T for M' in (I, X'_A, Z'_A) and N in ``bob``, stacked (M' outer)."""
    left = np.stack((psi, ops.xa @ psi, ops.za @ psi))
    return np.stack([left @ n.T for n in bob], axis=1).reshape(-1, *psi.shape)


def _pair_inputs(psi: np.ndarray, ops: DerivedOperators) -> np.ndarray:
    """M'N'|psi'> for the nine OPERATOR_PAIRS as a stacked (9, dA, dB) array."""
    return _stacked_inputs(psi, ops, (np.eye(psi.shape[1]), ops.xb, ops.zb))


def _run_circuit(inputs: np.ndarray, ops: DerivedOperators) -> np.ndarray:
    """Apply the extraction circuit to a stacked (k, dA, dB) input, ancillas in |00>.

    The state is held as (Alice ancilla, Bob ancilla, k, dA, dB), so a gate
    controlled by Alice's ancilla acts as A @ Psi on the slice [1] and one
    controlled by Bob's as Psi @ B^T on [:, 1].  Returns the k outputs as a
    (k, dA*dB, 4) array of ancilla-pair amplitudes per device basis state.
    """
    k, da, db = inputs.shape
    state = np.zeros((2, 2, k, da, db), dtype=complex)
    state[0, 0] = inputs

    state = np.einsum("px,xy...->py...", HADAMARD, state)
    state = np.einsum("qy,xy...->xq...", HADAMARD, state)
    # Controlled-Z': the ancilla controls its own party's device register.
    state[1] = ops.za @ state[1]
    state[:, 1] = state[:, 1] @ ops.zb.T
    state = np.einsum("px,xy...->py...", HADAMARD, state)
    state = np.einsum("qy,xy...->xq...", HADAMARD, state)
    state[1] = ops.xa @ state[1]
    state[:, 1] = state[:, 1] @ ops.xb.T
    return state.reshape(4, k, da * db).transpose(1, 2, 0)


def _distances(
    inputs: np.ndarray, ops: DerivedOperators, junk: np.ndarray, targets: np.ndarray
) -> np.ndarray:
    """|| Phi(inputs[k]) - junk (x) targets[k] || for every k, in one circuit pass."""
    out = _run_circuit(inputs, ops)
    return np.linalg.norm(out - junk[:, None] * targets[:, None, :], axis=(1, 2))


def junk_candidate(device: DeviceModel, ops: DerivedOperators) -> tuple[np.ndarray, float]:
    """Normalized junk candidate (I+Z'_A)(I+Z'_B)|psi'>/(2*sqrt(2)) and its raw norm.

    A raw norm below ``DEGENERACY_TOL`` raises ``DegenerateExtractionError``.
    """
    da, db = device.dims
    psi = _state_matrix(device, ops)
    v = (np.eye(da, dtype=complex) + ops.za) @ psi @ (np.eye(db, dtype=complex) + ops.zb).T
    v = v.reshape(da * db) / (2.0 * np.sqrt(2.0))
    raw = float(np.linalg.norm(v))
    if raw < DEGENERACY_TOL:
        raise DegenerateExtractionError(raw)
    return v / raw, raw


def extraction_error(device: DeviceModel, ops: DerivedOperators) -> ExtractionResult:
    """Measured extraction error for all nine (M, N) pairs.

    Every pair is compared against the same fixed junk vector from
    ``junk_candidate``; degeneracy of the candidate propagates as
    ``DegenerateExtractionError``.  One circuit pass covers the nine pairs
    and, on |psi'> once more, the pre-normalization state error.
    """
    junk, raw = junk_candidate(device, ops)
    psi = _state_matrix(device, ops)
    inputs = np.concatenate((_pair_inputs(psi, ops), psi[None]))
    targets = np.vstack((PAIR_TARGETS, raw * PHI_PLUS))
    distances = _distances(inputs, ops, junk, targets).tolist()
    return ExtractionResult(
        junk=junk,
        junk_norm_raw=raw,
        errors_by_pair=dict(zip(OPERATOR_PAIRS, distances)),
        state_error_pre_normalization=distances[-1],
    )


def b_measured_errors(
    device: DeviceModel, ops: DerivedOperators, junk: np.ndarray
) -> dict[tuple[str, str], float]:
    """Extraction errors for Bob's actually measured observables B0 and B1.

    Maps (M, "B0" or "B1") to || Phi(M' B'_i |psi'>) - junk (x) M ((X +/- Z)/sqrt(2)) |phi+> ||
    with + for B0 and - for B1; the circuit is applied to the raw observable,
    the target uses the ideal diagonal qubit operator on Bob's ancilla.
    ``junk`` is the fixed candidate from ``junk_candidate``.  A device without
    B0 or B1 raises ``KeyError``.
    """
    bob = (device.bob_obs["B0"], device.bob_obs["B1"])
    inputs = _stacked_inputs(_state_matrix(device, ops), ops, bob)
    return dict(zip(B_ROWS, _distances(inputs, ops, junk, B_TARGETS).tolist()))
