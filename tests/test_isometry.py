from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import random_unitary, tilted_device
from helpers import chsh_value, make_family
from isometry_oracle import ancilla_target, apply_isometry, isometry_expansion
from singlet_selftest.derive import derive_chsh_operators, my_operators, DerivedOperators
from singlet_selftest.device import make_device
from singlet_selftest.explorer import FamilySpec
from singlet_selftest.isometry import (
    OPERATOR_PAIRS,
    DegenerateExtractionError,
    b_measured_errors,
    extraction_error,
    junk_candidate,
)
from singlet_selftest.linalg import PAULI_X, PAULI_Z, PHI_PLUS
from singlet_selftest.bounds import b_extraction_bound

SQRT2 = math.sqrt(2.0)

E00 = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)


def random_devices(count, dims_options=((2, 2), (3, 2), (2, 3), (3, 3), (4, 4))):
    devices = []
    per = count // len(dims_options) + 1
    for i, dims in enumerate(dims_options):
        spec = FamilySpec("random", {"count": per}, dims, seed=1000 + i)
        devices.extend(make_family(spec))
    return devices[:count]


class TestApplyIsometry:
    def test_canonical_identity_pair(self, chsh_device):
        ops = derive_chsh_operators(chsh_device)
        out = apply_isometry(chsh_device, ops)
        # hand computation: junk |00> on the device registers, the maximally
        # entangled pair on the ancillas
        expected = np.kron(E00, PHI_PLUS)
        assert np.linalg.norm(out - expected) <= 1e-12

    def test_canonical_x_identity(self, chsh_device):
        ops = derive_chsh_operators(chsh_device)
        out = apply_isometry(chsh_device, ops, "X", "I")
        expected = np.kron(E00, ancilla_target("X", "I"))
        assert np.linalg.norm(out - expected) <= 1e-10

    def test_norm_preserved_on_random_corpus(self):
        for device in random_devices(20):
            if device.dims == (4, 4):
                ops = derive_chsh_operators(device)
            else:
                ops = derive_chsh_operators(device)
            for m, n in OPERATOR_PAIRS:
                out = apply_isometry(device, ops, m, n)
                assert abs(np.linalg.norm(out) - 1.0) <= 1e-12

    def test_bad_labels(self, chsh_device):
        ops = derive_chsh_operators(chsh_device)
        with pytest.raises(ValueError, match="I/X/Z"):
            apply_isometry(chsh_device, ops, "Y", "I")

    def test_dims_mismatch(self, chsh_device):
        ops = DerivedOperators(
            xa=np.eye(3, dtype=complex),
            za=np.eye(3, dtype=complex),
            xb=PAULI_X,
            zb=PAULI_Z,
        )
        with pytest.raises(ValueError, match="dims"):
            apply_isometry(chsh_device, ops)


def explicit_isometry_matrix(ops, dims):
    """Gate-by-gate matrix build of the full circuit on (devA, devB, ancA, ancB).

    Independent of both the einsum circuit and the closed-form expansion:
    ancilla injection as an explicit isometry matrix, then Hadamards and
    controlled operators as Kronecker products.
    """
    da, db = dims
    e0 = np.array([[1.0], [0.0]], dtype=complex)
    inject = np.kron(np.eye(da * db, dtype=complex), np.kron(e0, e0))
    h = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)
    i2 = np.eye(2, dtype=complex)
    ia, ib = np.eye(da, dtype=complex), np.eye(db, dtype=complex)
    p0 = np.diag([1.0, 0.0]).astype(complex)
    p1 = np.diag([0.0, 1.0]).astype(complex)

    def kron4(a, b, c, d):
        return np.kron(np.kron(a, b), np.kron(c, d))

    h_a = kron4(ia, ib, h, i2)
    h_b = kron4(ia, ib, i2, h)
    cza = kron4(ia, ib, p0, i2) + kron4(ops.za, ib, p1, i2)
    czb = kron4(ia, ib, i2, p0) + kron4(ia, ops.zb, i2, p1)
    cxa = kron4(ia, ib, p0, i2) + kron4(ops.xa, ib, p1, i2)
    cxb = kron4(ia, ib, i2, p0) + kron4(ia, ops.xb, i2, p1)
    return cxb @ cxa @ h_b @ h_a @ czb @ cza @ h_b @ h_a @ inject


class TestExpansionAgreement:
    def test_matches_circuit_on_random_corpus(self):
        for device in random_devices(30):
            ops = derive_chsh_operators(device)
            circuit = apply_isometry(device, ops)
            expansion = isometry_expansion(device, ops)
            assert np.linalg.norm(circuit - expansion) <= 1e-12

    def test_matches_explicit_gate_matrices(self):
        for device in random_devices(8, dims_options=((2, 2), (3, 2), (2, 4))):
            ops = derive_chsh_operators(device)
            matrix = explicit_isometry_matrix(ops, device.dims)
            # isometry property of the assembled matrix itself
            dim_in = device.dims[0] * device.dims[1]
            assert np.max(np.abs(matrix.conj().T @ matrix - np.eye(dim_in))) <= 1e-12
            for m, n in OPERATOR_PAIRS:
                da, db = device.dims
                psi = device.state.reshape(da, db)
                if m != "I":
                    psi = (ops.xa if m == "X" else ops.za) @ psi
                if n != "I":
                    psi = psi @ (ops.xb if n == "X" else ops.zb).T
                expected = matrix @ psi.reshape(-1)
                assert np.linalg.norm(
                    apply_isometry(device, ops, m, n) - expected
                ) <= 1e-12

    def test_canonical_single_term(self, chsh_device):
        ops = derive_chsh_operators(chsh_device)
        out = isometry_expansion(chsh_device, ops).reshape(4, 2, 2)
        # only the |00> ancilla branch survives on the exact device ... plus
        # the |11> branch that reassembles the entangled pair
        assert np.linalg.norm(out[:, 0, 1]) <= 1e-12
        assert np.linalg.norm(out[:, 1, 0]) <= 1e-12
        assert np.allclose(out[:, 0, 0], E00 / SQRT2, atol=1e-12)
        assert np.allclose(out[:, 1, 1], E00 / SQRT2, atol=1e-12)

    def test_swapped_wiring_detected(self, chsh_device):
        ops = derive_chsh_operators(chsh_device)
        swapped = DerivedOperators(xa=ops.za, za=ops.xa, xb=ops.zb, zb=ops.xb)
        good = apply_isometry(chsh_device, ops)
        bad = apply_isometry(chsh_device, swapped)
        assert np.linalg.norm(good - bad) > 0.1


class TestJunkCandidate:
    def test_canonical(self, chsh_device):
        junk, raw = junk_candidate(chsh_device, derive_chsh_operators(chsh_device))
        assert raw == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(junk - E00) <= 1e-12

    def test_degenerate_state(self, chsh_device):
        state = np.array([0.0, 0.0, 0.0, 1.0], dtype=complex)
        device = make_device(
            (2, 2), state, dict(chsh_device.alice_obs), dict(chsh_device.bob_obs)
        )
        ops = derive_chsh_operators(device)
        with pytest.raises(DegenerateExtractionError, match="degeneracy"):
            junk_candidate(device, ops)

    def test_tilted_raw_norm(self):
        theta = math.pi / 8
        device = tilted_device(theta)
        junk, raw = junk_candidate(device, derive_chsh_operators(device))
        # (I+Z)(I+Z) kills everything but cos(theta)|00>, leaving norm sqrt(2)cos(theta)
        assert raw == pytest.approx(SQRT2 * math.cos(theta), abs=1e-12)
        assert np.linalg.norm(junk - E00) <= 1e-12


class TestExtractionError:
    def test_canonical_chsh(self, chsh_device):
        result = extraction_error(chsh_device, derive_chsh_operators(chsh_device))
        assert len(result.errors_by_pair) == 9
        assert result.max_error <= 1e-9

    def test_canonical_my(self, my_device):
        result = extraction_error(my_device, my_operators(my_device))
        assert result.max_error <= 1e-9

    def test_tilted_within_measured_bound(self):
        from singlet_selftest.derive import condition_residuals
        from singlet_selftest.bounds import extraction_bound

        device = tilted_device(math.pi / 4 - 0.05)
        ops = derive_chsh_operators(device)
        res = condition_residuals(device.state, ops)
        bound = extraction_bound(res.eps1, res.eps2)
        result = extraction_error(device, ops)
        assert result.max_error <= bound + 1e-9

    def test_local_unitary_invariance(self, chsh_device):
        rng = np.random.default_rng(31)
        ua, ub = random_unitary(rng, 2), random_unitary(rng, 2)
        device = tilted_device(0.6)
        conjugated = make_device(
            (2, 2),
            np.kron(ua, ub) @ device.state,
            {k: ua @ v @ ua.conj().T for k, v in device.alice_obs.items()},
            {k: ub @ v @ ub.conj().T for k, v in device.bob_obs.items()},
        )
        base = extraction_error(device, derive_chsh_operators(device))
        conj = extraction_error(conjugated, derive_chsh_operators(conjugated))
        for pair in OPERATOR_PAIRS:
            assert conj.errors_by_pair[pair] == pytest.approx(
                base.errors_by_pair[pair], abs=1e-10
            )

    def test_degeneracy_propagates(self, chsh_device):
        state = np.array([0.0, 0.0, 0.0, 1.0], dtype=complex)
        device = make_device(
            (2, 2), state, dict(chsh_device.alice_obs), dict(chsh_device.bob_obs)
        )
        with pytest.raises(DegenerateExtractionError):
            extraction_error(device, derive_chsh_operators(device))


class TestBMeasuredError:
    def test_canonical_exact_cases(self, chsh_device):
        ops = derive_chsh_operators(chsh_device)
        junk, _ = junk_candidate(chsh_device, ops)
        errors = b_measured_errors(chsh_device, ops, junk)
        assert errors[("I", "B0")] <= 1e-9
        assert errors[("Z", "B1")] <= 1e-9

    def test_tilted_within_bound(self):
        device = tilted_device(math.pi / 4 - 0.05)
        _, eps = chsh_value(device)
        ops = derive_chsh_operators(device)
        junk, _ = junk_candidate(device, ops)
        errors = b_measured_errors(device, ops, junk)
        bound = b_extraction_bound(eps)
        assert list(errors) == [(m, w) for m in ("I", "X", "Z") for w in ("B0", "B1")]
        for error in errors.values():
            assert error <= bound + 1e-9

    def test_argument_validation(self, my_device):
        # The six rows need Bob's raw B0 and B1; a MY device names neither.
        ops = my_operators(my_device)
        junk, _ = junk_candidate(my_device, ops)
        with pytest.raises(KeyError, match="B0"):
            b_measured_errors(my_device, ops, junk)
