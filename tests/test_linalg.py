from __future__ import annotations

import math

import numpy as np
import pytest

from embedded_oracle import tensor_embed
from helpers import hermitian_eig, operator_abs, unitarity_deviation
from singlet_selftest.linalg import (
    DIAG_XZ,
    PAULI_X,
    PAULI_Z,
    PHI_PLUS,
    hermiticity_deviation,
    operator_sign,
    vector_norms,
)

SQRT2 = math.sqrt(2.0)


def random_hermitian(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (g + g.conj().T) / 2.0


class TestHermitianEig:
    def test_diagonal_z(self):
        w, v = hermitian_eig(PAULI_Z)
        assert np.allclose(w, [-1.0, 1.0])
        # columns are the standard basis, reordered to ascending eigenvalues
        assert np.allclose(np.abs(v), [[0.0, 1.0], [1.0, 0.0]])

    def test_pauli_x(self):
        w, v = hermitian_eig(PAULI_X)
        assert np.allclose(w, [-1.0, 1.0])
        minus = v[:, 0]
        expected = np.array([1.0, -1.0]) / SQRT2
        phase = minus[0] / expected[0]
        assert np.allclose(minus, phase * expected)
        assert abs(abs(phase) - 1.0) < 1e-12

    def test_reconstruction_random(self):
        rng = np.random.default_rng(101)
        for _ in range(10):
            h = random_hermitian(rng, 6)
            w, v = hermitian_eig(h)
            assert np.all(np.diff(w) >= -1e-12)
            assert np.max(np.abs((v * w) @ v.conj().T - h)) <= 1e-10 * max(
                1.0, np.max(np.abs(h))
            )
            assert unitarity_deviation(v) <= 1e-10

    def test_non_hermitian_rejected(self):
        bad = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(ValueError, match="not Hermitian.*1\\."):
            hermitian_eig(bad)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            hermitian_eig(np.zeros((2, 3)))


class TestOperatorAbs:
    def test_diagonal(self):
        assert np.allclose(operator_abs(np.diag([2.0, -3.0])), np.diag([2.0, 3.0]))

    def test_pauli_x_squares_to_identity(self):
        assert np.allclose(operator_abs(PAULI_X), np.eye(2))

    def test_b_sum(self):
        # B0 + B1 = sqrt(2) X, whose absolute value is sqrt(2) I: direct 2x2 check
        b0 = DIAG_XZ
        b1 = (PAULI_X - PAULI_Z) / SQRT2
        assert np.allclose(operator_abs(b0 + b1), SQRT2 * np.eye(2), atol=1e-12)

    def test_positive_semidefinite(self):
        rng = np.random.default_rng(202)
        for _ in range(5):
            a = operator_abs(random_hermitian(rng, 5))
            assert hermiticity_deviation(a) <= 1e-12
            assert np.min(np.linalg.eigvalsh(a)) >= -1e-10


class TestOperatorSign:
    def test_kernel_convention(self):
        # the zero eigenspace is assigned +1
        assert np.allclose(
            operator_sign(np.diag([2.0, 0.0, -3.0])), np.diag([1.0, 1.0, -1.0])
        )

    def test_b_sum_is_x(self):
        b0 = DIAG_XZ
        b1 = (PAULI_X - PAULI_Z) / SQRT2
        assert np.allclose(operator_sign(b0 + b1), PAULI_X, atol=1e-12)

    def test_identity(self):
        assert np.allclose(operator_sign(np.eye(3)), np.eye(3))

    def test_zero_matrix(self):
        assert np.allclose(operator_sign(np.zeros((4, 4))), np.eye(4))

    def test_hermitian_unitary_on_random_input(self):
        rng = np.random.default_rng(303)
        for _ in range(20):
            s = operator_sign(random_hermitian(rng, 5))
            assert hermiticity_deviation(s) <= 1e-10
            assert np.max(np.abs(s @ s - np.eye(5))) <= 1e-10

    def test_sign_times_abs_reconstructs(self):
        # away from the kernel, sign(M) |M| = M
        rng = np.random.default_rng(404)
        for _ in range(20):
            h = random_hermitian(rng, 6)
            if np.min(np.abs(np.linalg.eigvalsh(h))) < 1e-6:
                continue
            assert np.max(np.abs(operator_sign(h) @ operator_abs(h) - h)) <= 1e-9


class TestTensorEmbed:
    def test_alice_definition(self):
        assert np.array_equal(tensor_embed(PAULI_X, "A", (2, 2)), np.kron(PAULI_X, np.eye(2)))

    def test_opposite_parties_commute(self):
        xa = tensor_embed(PAULI_X, "A", (2, 2))
        zb = tensor_embed(PAULI_Z, "B", (2, 2))
        assert np.max(np.abs(xa @ zb - zb @ xa)) == 0.0

    def test_bob_explicit_kron(self):
        # I_3 (x) Z written out entry by entry
        expected = np.zeros((6, 6), dtype=complex)
        for block in range(3):
            expected[2 * block, 2 * block] = 1.0
            expected[2 * block + 1, 2 * block + 1] = -1.0
        embedded = tensor_embed(PAULI_Z, "B", (3, 2))
        assert embedded.shape == (6, 6)
        assert np.array_equal(embedded, expected)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="does not match"):
            tensor_embed(PAULI_X, "A", (3, 2))
        with pytest.raises(ValueError, match="party"):
            tensor_embed(PAULI_X, "C", (2, 2))

    def test_preserves_hermiticity_and_unitarity(self):
        rng = np.random.default_rng(505)
        h = random_hermitian(rng, 3)
        s = operator_sign(h)
        emb = tensor_embed(s, "A", (3, 4))
        assert hermiticity_deviation(emb) <= 1e-12
        assert unitarity_deviation(emb) <= 1e-10

    def test_embedded_unitary_preserves_norm(self):
        rng = np.random.default_rng(606)
        s = operator_sign(random_hermitian(rng, 3))
        emb = tensor_embed(s, "B", (2, 3))
        for _ in range(5):
            v = rng.normal(size=6) + 1j * rng.normal(size=6)
            v /= np.linalg.norm(v)
            assert abs(np.linalg.norm(emb @ v) - 1.0) <= 1e-12


def test_phi_plus_is_normalized():
    assert abs(np.linalg.norm(PHI_PLUS) - 1.0) <= 1e-15


@pytest.mark.parametrize("length", [1, 4, 15, 64, 1024])
def test_vector_norms_equal_each_vector_alone(length):
    # Bit for bit, also at lengths where a norm over the stack's axis, or of
    # contiguous copies of the real and imaginary parts, rounds differently.
    rng = np.random.default_rng(length)
    real, imag = rng.normal(size=(2, 3, 200, length))
    vectors = real + 1j * imag
    got = vector_norms(vectors)
    assert got.shape == (3, 200)
    want = [[np.linalg.norm(v) for v in row] for row in vectors]
    assert got.tobytes() == np.array(want).tobytes()
