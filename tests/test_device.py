from __future__ import annotations

import math
import re

import numpy as np
import pytest

from conftest import random_unitary, tilted_device
from helpers import chsh_value, correlation, first_observables, make_family, my_deviation
from singlet_selftest.bounds import certify
from singlet_selftest.device import (
    MY_IDEAL, MY_PAIRS, DeviceStack, DeviceValidationError, make_device, validate_stack,
)
from singlet_selftest.explorer import FamilySpec
from singlet_selftest.linalg import DIAG_XZ, PAULI_X, PAULI_Z, PHI_PLUS

SQRT2 = math.sqrt(2.0)


class TestValidate:
    def test_canonical_is_clean(self, chsh_device, my_device):
        assert validate_stack(chsh_device)[0] == []
        assert validate_stack(my_device)[0] == []

    def test_scaled_observable_named(self, chsh_device):
        broken = make_device(
            (2, 2),
            chsh_device.state[0],
            {"A0": 0.5 * PAULI_X, "A1": PAULI_Z},
            first_observables(chsh_device.bob_obs),
        )
        messages = validate_stack(broken)[0]
        assert len(messages) == 1
        assert "A0" in messages[0] and "O^2 != I" in messages[0] and "0.75" in messages[0]

    def test_unnormalized_state_names_norm(self, chsh_device):
        broken = make_device(
            (2, 2), np.ones(4), first_observables(chsh_device.alice_obs),
            first_observables(chsh_device.bob_obs)
        )
        messages = validate_stack(broken)[0]
        assert len(messages) == 1
        assert messages[0].startswith("state:") and "2" in messages[0]

    def test_nan_amplitude_rejected(self, chsh_device):
        # abs(nan - 1) > tol is False, so the norm check alone lets NaN through
        state = np.array([math.nan, 0.0, 0.0, 1.0], dtype=complex)
        broken = make_device(
            (2, 2), state, first_observables(chsh_device.alice_obs),
            first_observables(chsh_device.bob_obs)
        )
        assert validate_stack(broken)[0] == ["state: non-finite entry"]

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_observable_rejected(self, chsh_device, bad):
        # off the diagonal, and on it, where the Hermiticity check meets inf - inf
        for entry in ((0, 1), (1, 1)):
            obs = np.array(PAULI_Z, dtype=complex)
            obs[entry] = bad
            broken = make_device(
                (2, 2), chsh_device.state[0], {"A0": PAULI_X, "A1": obs},
                first_observables(chsh_device.bob_obs),
            )
            assert validate_stack(broken)[0] == ["A1: non-finite entry"]

    def test_non_hermitian_observable(self, chsh_device):
        broken = make_device(
            (2, 2),
            chsh_device.state[0],
            {"A0": 1j * PAULI_X, "A1": PAULI_Z},
            first_observables(chsh_device.bob_obs),
        )
        messages = validate_stack(broken)[0]
        assert any("A0" in m and "Hermitian" in m for m in messages)

    def test_shape_mismatch(self, chsh_device):
        broken = make_device(
            (2, 2),
            chsh_device.state[0],
            {"A0": np.eye(3), "A1": PAULI_Z},
            first_observables(chsh_device.bob_obs),
        )
        messages = validate_stack(broken)[0]
        assert any("A0" in m and "shape" in m for m in messages)

    def test_one_matrix_per_device(self, chsh_device):
        # Two states with the canonical observables, one matrix each: the
        # stack's second device has no observables of its own.
        stack = DeviceStack((2, 2), np.stack([PHI_PLUS, PHI_PLUS]),
                            dict(chsh_device.alice_obs), dict(chsh_device.bob_obs))
        names = [*chsh_device.alice_obs, *chsh_device.bob_obs]
        expected = [f"{name}: 1 matrices for 2 devices" for name in names]
        assert validate_stack(stack) == [expected, expected]

    def test_a_device_without_matrices_is_rejected_by_certify(self, chsh_device):
        stack = DeviceStack((2, 2), np.stack([PHI_PLUS, PHI_PLUS]),
                            dict(chsh_device.alice_obs), dict(chsh_device.bob_obs))
        row = stack.select(slice(1, 2))
        assert validate_stack(row)[0][0] == "A0: 0 matrices for 1 devices"
        with pytest.raises(DeviceValidationError, match="A0: 0 matrices for 1 devices"):
            certify(row, "chsh")

    def test_two_matrix_counts_in_one_dim_are_diagnosed(self, chsh_device):
        # The well-shaped observables of one dim are stacked together; one
        # with the wrong count is reported, not stacked.
        alice = {"A0": np.stack([PAULI_X, PAULI_X]), "A1": chsh_device.alice_obs["A1"]}
        bob = {name: np.concatenate([m, m]) for name, m in chsh_device.bob_obs.items()}
        stack = DeviceStack((2, 2), np.stack([PHI_PLUS, PHI_PLUS]), alice, bob)
        assert validate_stack(stack) == [["A1: 1 matrices for 2 devices"]] * 2

    def test_non_positive_dims_stop_validation(self):
        device = make_device((0, 2), PHI_PLUS, {"A0": PAULI_X}, {"B0": PAULI_Z})
        assert validate_stack(device) == [["dims: must be positive, got (0, 2)"]]

    def test_state_of_the_wrong_dimension(self):
        device = make_device((2, 3), PHI_PLUS, {"A0": PAULI_X},
                             {"B0": np.diag([1.0, -1.0, 1.0])})
        assert validate_stack(device) == [["state: dimension (4,) != (dA*dB,) = (6,)"]]

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3)])
    def test_messages_in_order_state_then_alice_then_bob(self, dims):
        # Both parties' observables of one dim are checked in one pass; the
        # messages still come in order: the state, Alice's names, Bob's.
        da, db = dims
        bob_z = np.diag([1.0, -1.0] + [1.0] * (db - 2)).astype(complex)
        nan_z = bob_z.copy()
        nan_z[0, 1] = math.nan
        broken = make_device(dims, 2 * np.eye(da * db)[0],
                             {"A0": 0.5 * PAULI_X, "A1": np.eye(3)},
                             {"A0": 1j * bob_z, "B1": nan_z})
        assert validate_stack(broken) == [[
            "state: norm 2 != 1",
            "A0: O^2 != I, deviation 0.75",
            "A1: shape (3, 3) does not match party A dim 2",
            "A0: not Hermitian, max deviation 2",
            "A0: O^2 != I, deviation 2",
            "B1: non-finite entry",
        ]]

    @pytest.mark.parametrize("state,alice,bob,message", [
        (PHI_PLUS[None], PAULI_X, PAULI_X, "state: expected one vector, got shape (1, 4)"),
        (PHI_PLUS.reshape(2, 2), PAULI_X, PAULI_X, "state: expected one vector, got shape (2, 2)"),
        (PHI_PLUS, PAULI_X[None], PAULI_X,
         "alice_obs['A0']: expected one square matrix, got shape (1, 2, 2)"),
        (PHI_PLUS, PAULI_X, PAULI_X[0],
         "bob_obs['B0']: expected one square matrix, got shape (2,)"),
        (PHI_PLUS, PAULI_X, np.eye(2, 3),
         "bob_obs['B0']: expected one square matrix, got shape (2, 3)"),
    ])
    def test_make_device_takes_one_vector_and_square_matrices(self, state, alice, bob,
                                                              message):
        # a stacked state or observable would broadcast through the
        # correlations, so the n = 1 stack is built only from one device's arrays
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make_device((2, 2), state, {"A0": alice}, {"B0": bob})


class TestCorrelation:
    # expected values from the trace identity <phi+|M (x) N|phi+> = tr(M N^T)/2
    def test_phi_plus_xx(self, my_device):
        assert correlation(my_device, "XA", "XB") == pytest.approx(1.0, abs=1e-12)

    def test_phi_plus_xz(self, my_device):
        assert correlation(my_device, "XA", "ZB") == pytest.approx(0.0, abs=1e-12)

    def test_phi_plus_zd(self, my_device):
        assert correlation(my_device, "ZA", "DB") == pytest.approx(
            0.70710678118654746, abs=1e-12
        )

    def test_unknown_names(self, my_device):
        with pytest.raises(KeyError):
            correlation(my_device, "nope", "XB")
        with pytest.raises(KeyError):
            correlation(my_device, "XA", "nope")

    def test_imaginary_part_rejected(self):
        device = make_device(
            (2, 2), PHI_PLUS, {"A": 1j * PAULI_X}, {"B": PAULI_X}
        )
        with pytest.raises(ValueError, match="imaginary"):
            correlation(device, "A", "B")

    def test_local_unitary_invariance(self, my_device):
        rng = np.random.default_rng(17)
        ua = random_unitary(rng, 2)
        ub = random_unitary(rng, 2)
        state = np.kron(ua, ub) @ my_device.state[0]
        conjugated = make_device(
            (2, 2),
            state,
            {k: ua @ v[0] @ ua.conj().T for k, v in my_device.alice_obs.items()},
            {k: ub @ v[0] @ ub.conj().T for k, v in my_device.bob_obs.items()},
        )
        for a, b in MY_PAIRS:
            assert correlation(conjugated, a, b) == pytest.approx(
                correlation(my_device, a, b), abs=1e-10
            )


class TestChshValue:
    def test_canonical_saturates(self, chsh_device):
        value, eps = chsh_value(chsh_device)
        assert value == pytest.approx(2.8284271247461903, abs=1e-12)
        assert 0.0 <= eps <= 1e-12

    def test_tilted_closed_form(self):
        # sqrt(2) * (1 + sin(2*theta)) at theta = pi/8
        value, eps = chsh_value(tilted_device(math.pi / 8))
        assert value == pytest.approx(2.4142135623730949, abs=1e-12)
        assert eps == pytest.approx(2.0 * SQRT2 - 2.4142135623730949, abs=1e-12)

    def test_product_state(self):
        device = tilted_device(0.0)
        value, _ = chsh_value(device)
        assert value == pytest.approx(SQRT2, abs=1e-12)

    def test_missing_observables(self, my_device):
        with pytest.raises(KeyError):
            chsh_value(my_device)

    def test_epsilon_never_negative(self):
        for theta in np.linspace(0.0, math.pi / 2, 17):
            _, eps = chsh_value(tilted_device(float(theta)))
            assert eps >= 0.0

    def test_tsirelson_bound_on_random_devices(self):
        spec = FamilySpec("random", {"count": 40}, (3, 2), seed=99)
        for device in make_family(spec):
            value, _ = chsh_value(device)
            assert value <= 2.0 * SQRT2 + 1e-9


class TestMyDeviation:
    def test_canonical_exact(self, my_device):
        table, eps = my_deviation(my_device)
        assert eps <= 1e-12
        expected = {
            ("XA", "XB"): 1.0,
            ("XA", "ZB"): 0.0,
            ("XA", "DB"): 0.70710678118654746,
            ("ZA", "XB"): 0.0,
            ("ZA", "ZB"): 1.0,
            ("ZA", "DB"): 0.70710678118654746,
        }
        for pair, value in expected.items():
            assert table[pair] == pytest.approx(value, abs=1e-12)

    def test_swapped_state_deviation_two(self, my_device):
        state = np.array([0.0, 1.0, 1.0, 0.0], dtype=complex) / SQRT2
        device = make_device(
            (2, 2), state, first_observables(my_device.alice_obs),
            first_observables(my_device.bob_obs)
        )
        table, eps = my_deviation(device)
        assert table[("ZA", "ZB")] == pytest.approx(-1.0, abs=1e-12)
        assert eps == pytest.approx(2.0, abs=1e-12)

    def test_perturbed_state_matches_direct_evaluation(self, my_device):
        p = 0.01
        state = math.sqrt(1.0 - p) * PHI_PLUS
        state = state + math.sqrt(p) * np.array([0.0, 1.0, 0.0, 0.0], dtype=complex)
        device = make_device(
            (2, 2), state, first_observables(my_device.alice_obs),
            first_observables(my_device.bob_obs)
        )
        table, eps = my_deviation(device)
        # direct 4-dim evaluation, independent of the correlation() path
        mats = {"XA": PAULI_X, "ZA": PAULI_Z, "XB": PAULI_X, "ZB": PAULI_Z, "DB": DIAG_XZ}
        expected = 0.0
        for (a, b), ideal in zip(MY_PAIRS, MY_IDEAL.tolist()):
            full = np.kron(mats[a], mats[b])
            measured = float(np.real(state.conj() @ full @ state))
            assert table[(a, b)] == pytest.approx(measured, abs=1e-12)
            expected = max(expected, abs(measured - ideal))
        assert eps == pytest.approx(expected, abs=1e-12)

    def test_missing_observables(self, chsh_device):
        with pytest.raises(KeyError):
            my_deviation(chsh_device)
