"""Extraction circuit, candidate junk state, and measured extraction errors.

The isometry attaches one ancilla qubit per party (initialized to |0>) and
applies, per party: Hadamard, controlled-Z' (the ancilla controls the party's
device register), Hadamard, controlled-X'.  Register ordering is fixed as

    (Alice device, Bob device, Alice ancilla, Bob ancilla)

so the output of the circuit on a (dA, dB) device lives in dimension
dA * dB * 4 with flat index ((iA*dB + iB)*2 + aA)*2 + aB.  The extraction
error for an operator pair (M, N) is the 2-norm distance between the circuit
output on M'N'|psi'> and junk (x) (M (x) N)|phi+> on the ancilla pair, where
junk is one fixed vector: the normalized (I+Z'_A)(I+Z'_B)|psi'>/(2*sqrt(2))
candidate, shared by all nine pairs.
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

DEGENERACY_TOL_DEFAULT = 1e-6


class DegenerateExtractionError(ValueError):
    """Raised when the junk candidate has vanishing norm.

    Below the degeneracy threshold the normalization step is meaningless: the
    conditions are grossly violated and no meaningful junk state exists.
    """


@dataclass(frozen=True)
class ExtractionResult:
    """Extraction errors for all nine operator pairs with one fixed junk."""

    output_state: np.ndarray
    junk: np.ndarray
    junk_norm_raw: float
    errors_by_pair: dict[tuple[str, str], float]

    @property
    def max_error(self) -> float:
        return max(self.errors_by_pair.values())


def _device_operator(ops: DerivedOperators, name: str, party: str) -> np.ndarray | None:
    if name == "I":
        return None
    if party == "A":
        return ops.xa if name == "X" else ops.za
    return ops.xb if name == "X" else ops.zb


def _input_matrix(device: DeviceModel, ops: DerivedOperators, m: str, n: str) -> np.ndarray:
    """State M'N'|psi'> as a (dA, dB) coefficient matrix."""
    da, db = device.dims
    if ops.dims != (da, db):
        raise ValueError(f"operator dims {ops.dims} do not match device dims {device.dims}")
    psi = device.state.reshape(da, db)
    mop = _device_operator(ops, m, "A")
    nop = _device_operator(ops, n, "B")
    if mop is not None:
        psi = mop @ psi
    if nop is not None:
        psi = psi @ nop.T
    return psi


def _run_circuit(psi: np.ndarray, ops: DerivedOperators) -> np.ndarray:
    """Apply the extraction circuit to a (dA, dB) input, ancillas in |00>."""
    da, db = psi.shape
    state = np.zeros((da, db, 2, 2), dtype=complex)
    state[:, :, 0, 0] = psi

    state = np.einsum("px,abxy->abpy", HADAMARD, state)
    state = np.einsum("qy,abxy->abxq", HADAMARD, state)
    # Controlled-Z': the ancilla controls its own party's device register.
    state[:, :, 1, :] = np.einsum("ac,cby->aby", ops.za, state[:, :, 1, :])
    state[:, :, :, 1] = np.einsum("bd,adx->abx", ops.zb, state[:, :, :, 1])
    state = np.einsum("px,abxy->abpy", HADAMARD, state)
    state = np.einsum("qy,abxy->abxq", HADAMARD, state)
    state[:, :, 1, :] = np.einsum("ac,cby->aby", ops.xa, state[:, :, 1, :])
    state[:, :, :, 1] = np.einsum("bd,adx->abx", ops.xb, state[:, :, :, 1])
    return state.reshape(da * db * 4)


def apply_isometry(
    device: DeviceModel, ops: DerivedOperators, m: str = "I", n: str = "I"
) -> np.ndarray:
    """Circuit output on M'N'|psi'> for M, N in {I, X, Z}.

    M' is the derived Alice operator named by M (X -> xa, Z -> za) and N' the
    Bob one; the identity leaves the state untouched.  The map is an isometry,
    so the output norm equals the input norm.
    """
    if m not in PAULI_BY_NAME or n not in PAULI_BY_NAME:
        raise ValueError(f"operator labels must be in I/X/Z, got ({m!r}, {n!r})")
    return _run_circuit(_input_matrix(device, ops, m, n), ops)


def junk_candidate(
    device: DeviceModel,
    ops: DerivedOperators,
    degeneracy_tol: float = DEGENERACY_TOL_DEFAULT,
) -> tuple[np.ndarray, float]:
    """Normalized junk candidate (I+Z'_A)(I+Z'_B)|psi'>/(2*sqrt(2)) and its raw norm."""
    da, db = device.dims
    psi = _input_matrix(device, ops, "I", "I")
    v = (np.eye(da, dtype=complex) + ops.za) @ psi @ (np.eye(db, dtype=complex) + ops.zb).T
    v = v.reshape(da * db) / (2.0 * np.sqrt(2.0))
    raw = float(np.linalg.norm(v))
    if raw < degeneracy_tol:
        err = DegenerateExtractionError(
            f"junk candidate norm {raw:.3e} below degeneracy threshold "
            f"{degeneracy_tol:.1e}; no meaningful junk state exists"
        )
        err.raw_norm = raw
        raise err
    return v / raw, raw


def _target_state(junk: np.ndarray, anc: np.ndarray) -> np.ndarray:
    """junk on the device registers tensored with a 2-qubit ancilla state."""
    return np.kron(junk, anc)


def ancilla_target(m: str, n: str) -> np.ndarray:
    """(M (x) N)|phi+> on the ancilla pair, for ideal Pauli M, N."""
    return np.kron(PAULI_BY_NAME[m], PAULI_BY_NAME[n]) @ PHI_PLUS


def extraction_error(
    device: DeviceModel,
    ops: DerivedOperators,
    degeneracy_tol: float = DEGENERACY_TOL_DEFAULT,
) -> ExtractionResult:
    """Measured extraction error for all nine (M, N) pairs.

    Every pair is compared against the same fixed junk vector from
    ``junk_candidate``; degeneracy of the candidate propagates as
    ``DegenerateExtractionError``.
    """
    junk, raw = junk_candidate(device, ops, degeneracy_tol)
    errors: dict[tuple[str, str], float] = {}
    output_ii: np.ndarray | None = None
    for m, n in OPERATOR_PAIRS:
        out = apply_isometry(device, ops, m, n)
        if (m, n) == ("I", "I"):
            output_ii = out
        target = _target_state(junk, ancilla_target(m, n))
        errors[(m, n)] = float(np.linalg.norm(out - target))
    assert output_ii is not None
    return ExtractionResult(
        output_state=output_ii,
        junk=junk,
        junk_norm_raw=raw,
        errors_by_pair=errors,
    )


def best_junk(device: DeviceModel, ops: DerivedOperators, m: str, n: str) -> np.ndarray:
    """Error-minimizing unit junk for one pair: the normalized overlap of the
    circuit output with the pair's ancilla target.

    Slack-analysis helper only; certification always uses the fixed candidate
    because the guarantee quantifies over that construction.
    """
    da, db = device.dims
    out = apply_isometry(device, ops, m, n).reshape(da * db, 4)
    overlap = out @ ancilla_target(m, n).conj()
    nrm = float(np.linalg.norm(overlap))
    if nrm == 0.0:
        raise DegenerateExtractionError(
            f"output of pair ({m}, {n}) is orthogonal to its ancilla target"
        )
    return overlap / nrm


def b_measured_error(
    device: DeviceModel,
    ops: DerivedOperators,
    m: str,
    which: str,
    degeneracy_tol: float = DEGENERACY_TOL_DEFAULT,
    *,
    junk: np.ndarray | None = None,
) -> float:
    """Extraction error for Bob's actually measured observable B0 or B1.

    Returns || Phi(M' B'_i |psi'>) - junk (x) M ((X +/- Z)/sqrt(2)) |phi+> ||
    with + for B0 and - for B1; the circuit is applied to the raw observable,
    the target uses the ideal diagonal qubit operator on Bob's ancilla.
    ``junk`` is the fixed candidate from ``junk_candidate``; a caller that
    already holds it (such as ``ExtractionResult.junk``) passes it in, and
    otherwise it is computed here.
    """
    if which not in ("B0", "B1"):
        raise ValueError(f"which must be 'B0' or 'B1', got {which!r}")
    if m not in PAULI_BY_NAME:
        raise ValueError(f"operator label must be in I/X/Z, got {m!r}")
    if which not in device.bob_obs:
        raise KeyError(f"device has no Bob observable {which!r}")
    da, db = device.dims
    psi = device.state.reshape(da, db) @ device.bob_obs[which].T
    mop = _device_operator(ops, m, "A")
    if mop is not None:
        psi = mop @ psi
    out = _run_circuit(psi, ops)
    if junk is None:
        junk, _ = junk_candidate(device, ops, degeneracy_tol)
    sign = 1.0 if which == "B0" else -1.0
    anc_op = np.kron(PAULI_BY_NAME[m], (PAULI_X + sign * PAULI_Z) / np.sqrt(2.0))
    target = _target_state(junk, anc_op @ PHI_PLUS)
    return float(np.linalg.norm(out - target))
