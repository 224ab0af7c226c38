from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import random_unitary, tilted_device
from helpers import (
    chsh_value,
    first_observables,
    first_operators,
    make_family,
    stack_devices,
)
from isometry_oracle import ancilla_target, apply_isometry, isometry_expansion
from singlet_selftest.derive import derive_chsh_operators, my_operators, DerivedOperators
from singlet_selftest.device import make_device
from singlet_selftest.explorer import FamilySpec
from singlet_selftest.isometry import (
    B_ROWS,
    DEGENERACY_TOL,
    OPERATOR_PAIRS,
    b_operator_stack,
    extraction_stack,
    junk_stack,
)
from singlet_selftest.linalg import PHI_PLUS
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
            ops = first_operators(derive_chsh_operators(device))
            circuit = apply_isometry(device, ops)
            expansion = isometry_expansion(device, ops)
            assert np.linalg.norm(circuit - expansion) <= 1e-12

    def test_matches_explicit_gate_matrices(self):
        for device in random_devices(8, dims_options=((2, 2), (3, 2), (2, 4))):
            ops = first_operators(derive_chsh_operators(device))
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
        ops = first_operators(derive_chsh_operators(chsh_device))
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


def state_matrices(device):
    return device.state.reshape(1, *device.dims)


class TestJunkCandidate:
    def test_canonical(self, chsh_device):
        junk, raw = junk_stack(state_matrices(chsh_device), derive_chsh_operators(chsh_device))
        assert raw[0] == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(junk[0] - E00) <= 1e-12

    def test_degenerate_state(self, chsh_device):
        state = np.array([0.0, 0.0, 0.0, 1.0], dtype=complex)
        device = make_device(
            (2, 2), state, first_observables(chsh_device.alice_obs),
            first_observables(chsh_device.bob_obs),
        )
        ops = derive_chsh_operators(device)
        junk, raw = junk_stack(state_matrices(device), ops)
        assert raw[0] < DEGENERACY_TOL
        assert np.isnan(junk[0]).all()

    def test_tilted_raw_norm(self):
        theta = math.pi / 8
        device = tilted_device(theta)
        junk, raw = junk_stack(state_matrices(device), derive_chsh_operators(device))
        # (I+Z)(I+Z) kills everything but cos(theta)|00>, leaving norm sqrt(2)cos(theta)
        assert raw[0] == pytest.approx(SQRT2 * math.cos(theta), abs=1e-12)
        assert np.linalg.norm(junk[0] - E00) <= 1e-12


class TestExtractionError:
    def test_canonical_chsh(self, chsh_device):
        result = extraction_stack(state_matrices(chsh_device), derive_chsh_operators(chsh_device))
        assert result.distances.shape == (1, len(OPERATOR_PAIRS))
        assert result.pre_normalization.shape == (1,)
        assert max(result.distances.max(), result.pre_normalization.max()) <= 1e-9

    def test_canonical_my(self, my_device):
        result = extraction_stack(state_matrices(my_device), my_operators(my_device))
        assert result.distances.max() <= 1e-9

    def test_tilted_within_measured_bound(self):
        from singlet_selftest.derive import residual_stack
        from singlet_selftest.bounds import extraction_bound

        device = tilted_device(math.pi / 4 - 0.05)
        ops = derive_chsh_operators(device)
        psi = state_matrices(device)
        res = residual_stack(psi, ops)[0]
        bound = extraction_bound(res.eps1, res.eps2)
        result = extraction_stack(psi, ops)
        assert result.distances[0, :len(OPERATOR_PAIRS)].max() <= bound + 1e-9

    def test_local_unitary_invariance(self, chsh_device):
        rng = np.random.default_rng(31)
        ua, ub = random_unitary(rng, 2), random_unitary(rng, 2)
        device = tilted_device(0.6)
        conjugated = make_device(
            (2, 2),
            np.kron(ua, ub) @ device.state[0],
            {k: ua @ v[0] @ ua.conj().T for k, v in device.alice_obs.items()},
            {k: ub @ v[0] @ ub.conj().T for k, v in device.bob_obs.items()},
        )
        base = extraction_stack(state_matrices(device), derive_chsh_operators(device))
        conj = extraction_stack(state_matrices(conjugated), derive_chsh_operators(conjugated))
        assert conj.distances == pytest.approx(base.distances, abs=1e-10)

    def test_degeneracy_propagates(self, chsh_device):
        state = np.array([0.0, 0.0, 0.0, 1.0], dtype=complex)
        device = make_device(
            (2, 2), state, first_observables(chsh_device.alice_obs),
            first_observables(chsh_device.bob_obs),
        )
        result = extraction_stack(state_matrices(device), derive_chsh_operators(device))
        assert result.degenerate.tolist() == [True]

    def test_degenerate_row_is_nan_between_valid_ones(self, chsh_device):
        # Alice's qubit in |1>: (I + Z'_A) removes it, so the junk candidate is zero.
        product = make_device((2, 2), [0.0, 0.0, 1.0, 0.0],
                              first_observables(chsh_device.alice_obs),
                              first_observables(chsh_device.bob_obs))
        devices = [chsh_device, product, tilted_device(0.3)]
        stack = stack_devices(devices)
        psi, ops = stack.state.reshape(3, 2, 2), derive_chsh_operators(stack)
        result = extraction_stack(psi, ops)
        bob = (stack.bob_obs["B0"], stack.bob_obs["B1"])
        b_rows = b_operator_stack(psi, ops, bob, result.junk)
        assert result.degenerate.tolist() == [False, True, False]
        for values in (result.junk, result.distances, result.pre_normalization, b_rows):
            assert np.isnan(values[1]).all()
        for row in (0, 2):
            device = devices[row]
            alone_psi, alone_ops = state_matrices(device), derive_chsh_operators(device)
            alone = extraction_stack(alone_psi, alone_ops)
            alone_bob = (device.bob_obs["B0"], device.bob_obs["B1"])
            pairs = (
                (result.junk, alone.junk),
                (result.junk_norm_raw, alone.junk_norm_raw),
                (result.distances, alone.distances),
                (result.pre_normalization, alone.pre_normalization),
                (b_rows, b_operator_stack(alone_psi, alone_ops, alone_bob, alone.junk)),
            )
            for stacked, single in pairs:
                assert stacked[row].tobytes() == single[0].tobytes()


def b_operator_errors(device, ops):
    psi = state_matrices(device)
    bob = (device.bob_obs["B0"], device.bob_obs["B1"])
    return dict(zip(B_ROWS, b_operator_stack(psi, ops, bob, junk_stack(psi, ops)[0])[0]))


class TestBMeasuredError:
    def test_canonical_exact_cases(self, chsh_device):
        errors = b_operator_errors(chsh_device, derive_chsh_operators(chsh_device))
        assert errors[("I", "B0")] <= 1e-9
        assert errors[("Z", "B1")] <= 1e-9

    def test_tilted_within_bound(self):
        device = tilted_device(math.pi / 4 - 0.05)
        _, eps = chsh_value(device)
        errors = b_operator_errors(device, derive_chsh_operators(device))
        bound = b_extraction_bound(eps)
        assert list(errors) == [(m, w) for m in ("I", "X", "Z") for w in ("B0", "B1")]
        for error in errors.values():
            assert error <= bound + 1e-9
