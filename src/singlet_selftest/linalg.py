"""Dense complex linear algebra kernel: qubit constants, the operator sign
with a +1 kernel convention, and vector norms that round as
``np.linalg.norm`` does.

The operator sign is the basis of the CHSH derived operators.  Downstream code
otherwise applies local operators directly to the (dA, dB) state matrix
Psi, where (A (x) B)|psi> is A Psi B^T, so residuals, chain diagnostics and the
extraction circuit never form a dA*dB x dA*dB matrix; only the device
correlations embed observables, keeping their established floating-point
form, a block of the embedded rows at a time in one buffer of at most
``device.CHUNK_ELEMENTS`` entries.  All matrices are dense complex128
``numpy`` arrays.  Each function here acts on the last two axes
(``vector_norms`` on the last one), so it takes one matrix or an (n, d, d)
stack alike; the operator sign is computed from one Hermitian
eigendecomposition per matrix, so results are deterministic and directly
testable.
"""

from __future__ import annotations

import numpy as np

# Qubit constants.  PHI_PLUS is the maximally entangled pair (|00> + |11>)/sqrt(2);
# the literature often calls it the "singlet" even though it is the symmetric
# Bell state, and that naming is kept in the docs with this caveat.
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)
DIAG_XZ = (PAULI_X + PAULI_Z) / np.sqrt(2.0)
PHI_PLUS = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2.0)

ZERO_TOL = 1e-10


def transpose(m: np.ndarray) -> np.ndarray:
    """Transpose of each matrix in a stack (the last two axes)."""
    return m.swapaxes(-1, -2)


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of each matrix in a stack."""
    return m.conj().swapaxes(-1, -2)


def vector_norms(vectors: np.ndarray) -> np.ndarray:
    """The 2-norm of each vector (the last axis) of a complex stack.

    Each squared norm is a row times a column of the strided real and
    imaginary views, which numpy runs as one BLAS dot each, as
    ``np.linalg.norm`` does, so every value equals ``np.linalg.norm`` of that
    vector alone; a norm over a stack axis, or of contiguous copies of the
    parts, rounds differently.
    """
    rows = vectors[..., None, :]
    squares = rows.real @ transpose(rows.real) + rows.imag @ transpose(rows.imag)
    return np.sqrt(squares[..., 0, 0])


def hermiticity_deviation(m: np.ndarray) -> np.ndarray:
    """Largest entrywise deviation of each matrix from its conjugate transpose."""
    return np.abs(m - dagger(m)).max(axis=(-2, -1))


def operator_sign(m: np.ndarray) -> np.ndarray:
    """Operator sign M/|M| of each matrix in a stack, with the kernel mapped to +1.

    Eigenvalues with ``|w| <= ZERO_TOL * max|w|`` of their own matrix are
    treated as the zero subspace and assigned sign +1, so each result is
    Hermitian and unitary (it squares to the identity).  An all-zero matrix
    has only kernel, so it maps to V V^dagger = I.  ``m`` is trusted to be
    Hermitian: in the pipeline it is B0 +/- B1 of a validated device, each
    term within 1e-10 of Hermitian, so the sum may be off by twice that, and
    ``eigh`` reads only its lower triangle.
    """
    w, v = np.linalg.eigh(m)
    scale = np.abs(w).max(axis=-1, keepdims=True)
    signs = np.where(np.abs(w) <= ZERO_TOL * scale, 1.0, np.sign(w))
    return (v * signs[..., None, :]) @ dagger(v)
