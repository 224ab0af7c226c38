"""Reference formulas for the extraction circuit and its measured errors.

The library runs the circuit gate by gate on a stacked batch of inputs and
compares every output with a row of a constant ancilla-target table.  Here the
circuit is the closed-form four-term sum, and each input and each
junk (x) target vector is built per call, one operator pair or B row at a
time.  The tests compare the two.  ``apply_isometry`` runs the library's own
circuit on one pair's input, for the tests of the circuit itself.
"""

from __future__ import annotations

import numpy as np

from singlet_selftest.derive import DerivedOperators
from singlet_selftest.device import DeviceStack
from singlet_selftest.isometry import OPERATOR_PAIRS, _run_circuit, _stacked_inputs
from singlet_selftest.linalg import IDENTITY_2, PAULI_X, PAULI_Z, PHI_PLUS

PAULI_BY_NAME = {"I": IDENTITY_2, "X": PAULI_X, "Z": PAULI_Z}


def expansion(psi: np.ndarray, ops: DerivedOperators) -> np.ndarray:
    """Closed-form four-term expansion of the circuit output on a (dA, dB) input.

    Computes (1/4) * sum over ancilla bits (c, d) of
    X'_A^c X'_B^d (I + (-1)^c Z'_A)(I + (-1)^d Z'_B)|psi> placed at |cd>,
    independently of the gate-by-gate circuit path.
    """
    da, db = psi.shape
    ia = np.eye(da, dtype=complex)
    ib = np.eye(db, dtype=complex)
    out = np.zeros((da, db, 2, 2), dtype=complex)
    for c in (0, 1):
        for d in (0, 1):
            term = (ia + (-1) ** c * ops.za) @ psi @ (ib + (-1) ** d * ops.zb).T
            if c:
                term = ops.xa @ term
            if d:
                term = term @ ops.xb.T
            out[:, :, c, d] = term / 4.0
    return out.reshape(da * db * 4)


def apply_isometry(
    device: DeviceStack, ops: DerivedOperators, m: str = "I", n: str = "I"
) -> np.ndarray:
    """The library's circuit output on M'N'|psi'> for M, N in {I, X, Z}, alone.

    M' is the derived Alice operator named by M (X -> xa, Z -> za) and N' the
    Bob one; the identity leaves the state untouched.  The map is an isometry,
    so the output norm equals the input norm.  The library itself runs the
    circuit only on stacked inputs; this picks one pair's input out of the stack.
    """
    if (m, n) not in OPERATOR_PAIRS:
        raise ValueError(f"operator labels must be in I/X/Z, got ({m!r}, {n!r})")
    index = OPERATOR_PAIRS.index((m, n))
    psi = device.state.reshape(1, *device.dims)
    inputs = _stacked_inputs(psi, ops, (None, ops.xb, ops.zb))[:, index : index + 1]
    # (p, q, 1, x, 1, y) -> flat index ((x*dB + y)*2 + p)*2 + q
    return _run_circuit(inputs, ops).transpose(2, 4, 3, 5, 0, 1).reshape(-1)


def isometry_expansion(device: DeviceStack, ops: DerivedOperators) -> np.ndarray:
    """The closed-form circuit output on the device state |psi'>."""
    return expansion(device.state.reshape(device.dims), ops)


def _device_operator(ops: DerivedOperators, name: str, party: str) -> np.ndarray | None:
    if name == "I":
        return None
    if party == "A":
        return ops.xa if name == "X" else ops.za
    return ops.xb if name == "X" else ops.zb


def pair_input(device: DeviceStack, ops: DerivedOperators, m: str, n: str) -> np.ndarray:
    """State M'N'|psi'> as a (dA, dB) coefficient matrix."""
    psi = device.state.reshape(device.dims)
    mop = _device_operator(ops, m, "A")
    nop = _device_operator(ops, n, "B")
    if mop is not None:
        psi = mop @ psi
    if nop is not None:
        psi = psi @ nop.T
    return psi


def ancilla_target(m: str, n: str) -> np.ndarray:
    """(M (x) N)|phi+> on the ancilla pair, for ideal Pauli M, N."""
    return np.kron(PAULI_BY_NAME[m], PAULI_BY_NAME[n]) @ PHI_PLUS


def pair_error(
    device: DeviceStack, ops: DerivedOperators, junk: np.ndarray, m: str, n: str
) -> float:
    """|| Phi(M'N'|psi'>) - junk (x) (M (x) N)|phi+> ||."""
    out = expansion(pair_input(device, ops, m, n), ops)
    return float(np.linalg.norm(out - np.kron(junk, ancilla_target(m, n))))


def b_error(
    device: DeviceStack, ops: DerivedOperators, junk: np.ndarray, m: str, which: str
) -> float:
    """|| Phi(M' B_i |psi'>) - junk (x) M ((X +/- Z)/sqrt(2)) |phi+> ||, + for B0."""
    psi = device.state.reshape(device.dims) @ device.bob_obs[which][0].T
    mop = _device_operator(ops, m, "A")
    if mop is not None:
        psi = mop @ psi
    sign = 1.0 if which == "B0" else -1.0
    anc_op = np.kron(PAULI_BY_NAME[m], (PAULI_X + sign * PAULI_Z) / np.sqrt(2.0))
    out = expansion(psi, ops)
    return float(np.linalg.norm(out - np.kron(junk, anc_op @ PHI_PLUS)))


def state_errors(
    device: DeviceStack, ops: DerivedOperators, junk: np.ndarray, raw: float
) -> tuple[float, float]:
    """State errors against junk_norm_raw * junk and against junk, both (x) |phi+>."""
    out = isometry_expansion(device, ops)
    return (
        float(np.linalg.norm(out - np.kron(junk * raw, PHI_PLUS))),
        float(np.linalg.norm(out - np.kron(junk, PHI_PLUS))),
    )
