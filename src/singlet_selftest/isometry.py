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
every such distance, in one circuit pass over a stacked (n, k, dA, dB) batch:
k inputs for each of n devices, against a table of ancilla targets.  A stack
of devices is evaluated in one pass, a single device being the n = 1 stack,
and degeneracy is reported per device as a mask (``ExtractionStack``) and as
NaN junk, which makes every distance computed against it NaN.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .derive import DerivedOperators
from .linalg import IDENTITY_2, PAULI_X, PAULI_Z, PHI_PLUS, transpose

# Every entry of the Hadamard matrix is +/- this.
HADAMARD_ENTRY = 1.0 / np.sqrt(2.0)

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


@dataclass(frozen=True)
class ExtractionStack:
    """Extraction of an n-device stack; row i of every array belongs to device i.

    ``junk`` holds the normalized candidates; ``degenerate`` marks a raw
    norm below ``DEGENERACY_TOL``, where the candidate and every error are
    NaN.  ``distances`` holds the (n, 9) errors of the ``OPERATOR_PAIRS``,
    ("I", "I") first, and ``pre_normalization`` the (n,) pre-normalization
    state errors.
    """

    junk: np.ndarray
    junk_norm_raw: np.ndarray
    degenerate: np.ndarray
    distances: np.ndarray
    pre_normalization: np.ndarray


def _stacked_inputs(
    psi: np.ndarray, ops: DerivedOperators, bob: tuple[np.ndarray | None, ...]
) -> np.ndarray:
    """M' Psi N^T for M' in (I, X'_A, Z'_A) and N in ``bob`` (None for the
    identity), for each Psi of an (n, dA, dB) stack: (n, 3 * len(bob), dA, dB),
    M' outer."""
    n = len(psi)
    left = np.empty((n, 3, *psi.shape[1:]), dtype=complex)
    left[:, 0] = psi
    np.matmul(ops.xa, psi, out=left[:, 1])
    np.matmul(ops.za, psi, out=left[:, 2])
    inputs = np.empty((n, 3, len(bob), *psi.shape[1:]), dtype=complex)
    for j, b in enumerate(bob):
        if b is None:
            inputs[:, :, j] = left
        else:
            np.matmul(left, transpose(b)[..., None, :, :], out=inputs[:, :, j])
    return inputs.reshape(n, -1, *psi.shape[1:])


def _hadamard(zero: np.ndarray, one: np.ndarray) -> None:
    """A Hadamard on one ancilla, in place: the slices of its |0> and |1>
    amplitudes become H[p, 0] * zero + H[p, 1] * one for p = 0, 1."""
    scaled_zero = HADAMARD_ENTRY * zero
    one *= HADAMARD_ENTRY
    np.add(scaled_zero, one, out=zero)
    np.subtract(scaled_zero, one, out=one)


def _run_circuit(inputs: np.ndarray, ops: DerivedOperators) -> np.ndarray:
    """Apply the extraction circuit to an (n, k, dA, dB) input, ancillas in |00>.

    Returns the state as (Alice ancilla, Bob ancilla, n, dA, k, dB): entry
    (p, q, i, x, j, y) is the amplitude of |x y> |p q> in the output of input
    j of device i.  In this layout a gate controlled by Alice's ancilla is one
    matrix product A @ Psi per device on the slice [1], with the k inputs
    side by side, and one controlled by Bob's is Psi @ B^T on [:, 1].
    """
    n, k, da, db = inputs.shape
    state = np.empty((2, 2, n, da, k, db), dtype=complex)
    # Hadamards on both ancillas in |00> put H[p, 0] H[q, 0] Psi at every |pq>.
    state[...] = (HADAMARD_ENTRY * (HADAMARD_ENTRY * inputs)).transpose(0, 2, 1, 3)
    alice = state[1].reshape(2, n, da, k * db)
    bob = state[:, 1].reshape(2, n, da * k, db)
    # Controlled-Z': the ancilla controls its own party's device register.
    alice[...] = ops.za @ alice
    bob[...] = bob @ transpose(ops.zb)
    _hadamard(state[0], state[1])
    _hadamard(state[:, 0], state[:, 1])
    alice[...] = ops.xa @ alice
    bob[...] = bob @ transpose(ops.xb)
    return state


def _distances(
    inputs: np.ndarray, ops: DerivedOperators, junk: np.ndarray, targets: np.ndarray
) -> np.ndarray:
    """|| Phi(inputs[i, j]) - junk[i] (x) targets[i, j] || for every device i
    and input j, in one circuit pass: an (n, k) array.  ``junk`` is
    (n, dA*dB) and ``targets`` (n, k, 4), or (1, k, 4) when every device
    shares them."""
    n, k, da, db = inputs.shape
    state = _run_circuit(inputs, ops)
    # Target amplitude of |pq> for input j of device i: targets[i, j, 2p + q].
    ancilla = targets.reshape(-1, k, 2, 2).transpose(2, 3, 0, 1)
    state -= junk.reshape(n, da, 1, db) * ancilla[:, :, :, None, :, None]
    parts = state.view(float)
    return np.sqrt(np.einsum("pqixjy,pqixjy->ij", parts, parts))


def junk_stack(psi: np.ndarray, ops: DerivedOperators) -> tuple[np.ndarray, np.ndarray]:
    """Junk candidates (I+Z'_A)(I+Z'_B)|psi'>/(2*sqrt(2)) of an (n, dA, dB)
    stack: the (n, dA*dB) candidates, normalized where the raw norm is at
    least ``DEGENERACY_TOL`` and NaN below it, and the (n,) raw norms."""
    n, da, db = psi.shape
    ia = np.eye(da, dtype=complex)
    ib = np.eye(db, dtype=complex)
    v = (ia + ops.za) @ psi @ transpose(ib + ops.zb)
    v = v.reshape(n, da * db) / (2.0 * np.sqrt(2.0))
    raw = np.linalg.norm(v, axis=1)
    degenerate = raw < DEGENERACY_TOL
    v[degenerate] = np.nan
    return v / np.where(degenerate, 1.0, raw)[:, None], raw


def extraction_stack(psi: np.ndarray, ops: DerivedOperators) -> ExtractionStack:
    """Measured extraction errors of every device in an (n, dA, dB) stack of
    state matrices, with ``ops`` stacked to match (or shared).

    One circuit pass covers the nine pairs and, on |psi'> once more, the
    pre-normalization state error of every device, NaN where it is degenerate.
    """
    junk, raw = junk_stack(psi, ops)
    pairs = _stacked_inputs(psi, ops, (None, ops.xb, ops.zb))
    inputs = np.concatenate((pairs, psi[:, None]), axis=1)
    targets = np.empty((len(raw), len(OPERATOR_PAIRS) + 1, 4), dtype=complex)
    targets[:, :-1] = PAIR_TARGETS
    targets[:, -1] = raw[:, None] * PHI_PLUS
    distances = _distances(inputs, ops, junk, targets)
    return ExtractionStack(
        junk=junk,
        junk_norm_raw=raw,
        degenerate=raw < DEGENERACY_TOL,
        distances=distances[:, :-1],
        pre_normalization=distances[:, -1],
    )


def b_operator_stack(
    psi: np.ndarray, ops: DerivedOperators, bob: tuple[np.ndarray, np.ndarray],
    junk: np.ndarray,
) -> np.ndarray:
    """Extraction errors for Bob's actually measured observables ``bob`` =
    (B0, B1), for each state matrix of an (n, dA, dB) stack: an (n, 6) array
    in ``B_ROWS`` order.

    Row (M, B_i) is || Phi(M' B_i |psi'>) - junk (x) M ((X +/- Z)/sqrt(2)) |phi+> ||,
    + for B0 and - for B1: the circuit is applied to the raw observable, the
    target uses the ideal diagonal qubit operator on Bob's ancilla.  ``junk``
    holds the (n, dA*dB) candidates of ``extraction_stack``.
    """
    inputs = _stacked_inputs(psi, ops, bob)
    return _distances(inputs, ops, junk, B_TARGETS[None])
