from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_unitary, tilted_device
from helpers import chsh_value, make_family, my_deviation
from singlet_selftest.derive import (
    chsh_budget,
    chsh_diagnostics,
    derive_chsh_operators,
    my_budget,
    my_diagnostics,
    my_operators,
    residual_stack,
)
from singlet_selftest.device import make_device
from singlet_selftest.explorer import FamilySpec
from singlet_selftest.linalg import (
    DIAG_XZ,
    PAULI_X,
    PAULI_Z,
    PHI_PLUS,
    hermiticity_deviation,
)

SQRT2 = math.sqrt(2.0)


class TestDeriveChshOperators:
    def test_canonical_gives_paulis(self, chsh_device):
        ops = derive_chsh_operators(chsh_device)
        assert np.allclose(ops.xa, PAULI_X)
        assert np.allclose(ops.za, PAULI_Z)
        assert np.allclose(ops.xb, PAULI_X, atol=1e-12)
        assert np.allclose(ops.zb, PAULI_Z, atol=1e-12)

    def test_degenerate_equal_settings(self, chsh_device):
        # B0 = B1 = X: the difference is singular and its sign collapses to I
        device = make_device(
            (2, 2),
            chsh_device.state,
            dict(chsh_device.alice_obs),
            {"B0": PAULI_X, "B1": PAULI_X},
        )
        ops = derive_chsh_operators(device)
        assert np.allclose(ops.xb, PAULI_X, atol=1e-12)
        assert np.allclose(ops.zb, np.eye(2), atol=1e-12)
        # outputs stay Hermitian and unitary even at the singular point
        for m in (ops.xb, ops.zb):
            assert hermiticity_deviation(m) <= 1e-10
            assert np.max(np.abs(m @ m - np.eye(2))) <= 1e-10

    def test_unitary_covariance(self, chsh_device):
        rng = np.random.default_rng(23)
        ub = random_unitary(rng, 2)
        conjugated = make_device(
            (2, 2),
            np.kron(np.eye(2), ub) @ chsh_device.state,
            dict(chsh_device.alice_obs),
            {k: ub @ v @ ub.conj().T for k, v in chsh_device.bob_obs.items()},
        )
        ops = derive_chsh_operators(chsh_device)
        ops_c = derive_chsh_operators(conjugated)
        assert np.allclose(ops_c.xb, ub @ ops.xb @ ub.conj().T, atol=1e-10)
        assert np.allclose(ops_c.zb, ub @ ops.zb @ ub.conj().T, atol=1e-10)

    def test_invariants_on_noisy_family(self):
        spec = FamilySpec(
            "measurement-noise", {"eta": {"start": 0.02, "stop": 0.3, "steps": 12}},
            (2, 2), seed=5,
        )
        for device in make_family(spec):
            ops = derive_chsh_operators(device)
            for m in (ops.xa, ops.za, ops.xb, ops.zb):
                assert hermiticity_deviation(m) <= 1e-10
                assert np.max(np.abs(m @ m - np.eye(2))) <= 1e-10
            anti = ops.xb @ ops.zb + ops.zb @ ops.xb
            assert np.max(np.abs(anti)) <= 1e-9

    def test_missing_observables(self, my_device):
        with pytest.raises(KeyError):
            derive_chsh_operators(my_device)


class TestConditionResiduals:
    def test_canonical_chsh_near_zero(self, chsh_device):
        psi = chsh_device.state.reshape(1, 2, 2)
        (res,) = residual_stack(psi, derive_chsh_operators(chsh_device))
        for value in (res.anticomm_a, res.anticomm_b, res.diff_x, res.diff_z):
            assert value <= 1e-10

    def test_canonical_my_near_zero(self, my_device):
        (res,) = residual_stack(my_device.state.reshape(1, 2, 2), my_operators(my_device))
        for value in (res.anticomm_a, res.anticomm_b, res.diff_x, res.diff_z):
            assert value <= 1e-10

    def test_tilted_values(self):
        theta = math.pi / 8
        device = tilted_device(theta)
        (res,) = residual_stack(device.state.reshape(1, 2, 2), derive_chsh_operators(device))
        # Paulis anticommute exactly; the X difference is computed directly:
        # (X (x) I - I (x) X) |psi_theta> = (cos t - sin t)(|10> - |01>)
        assert res.anticomm_a <= 1e-12
        assert res.anticomm_b <= 1e-12
        assert res.diff_x == pytest.approx(0.76536686473017945, abs=1e-12)
        assert res.diff_z <= 1e-12

    def test_eps_summary(self):
        from singlet_selftest.derive import ResidualSet

        res = ResidualSet(0.4, 0.2, 0.05, 0.3)
        assert res.eps1 == pytest.approx(0.2)
        assert res.eps2 == pytest.approx(0.3)


class TestChshBudget:
    def test_frozen_values(self):
        budget = chsh_budget(0.01)
        assert budget.eps1 == pytest.approx(0.23784142300054423, rel=1e-14)
        assert budget.eps2 == pytest.approx(1.3793952964992862, rel=1e-14)
        assert budget.delta == pytest.approx(0.056468542494923807, rel=1e-14)
        assert budget.eps_prime == pytest.approx(0.11892071150027211, rel=1e-14)
        assert budget.eps1_exact == pytest.approx(0.2376311059077153, rel=1e-14)
        assert budget.eps_prime_exact == pytest.approx(0.11955976703883531, rel=1e-14)
        assert budget.eps2_exact == pytest.approx(1.3809426345585625, rel=1e-14)

    def test_zero_limit(self):
        budget = chsh_budget(0.0)
        assert budget.eps1 == 0.0 and budget.eps2 == 0.0 and budget.delta == 0.0
        b12, b8, b4 = chsh_budget(1e-12), chsh_budget(1e-8), chsh_budget(1e-4)
        assert 0.0 < b12.eps1 < b8.eps1 < b4.eps1
        assert 0.0 < b12.eps2 < b8.eps2 < b4.eps2
        assert b12.eps1 < 1e-5 and b12.eps2 < 1e-2

    def test_domain(self):
        for bad in (-0.1, 1.0, 1.5):
            with pytest.raises(ValueError, match="epsilon"):
                chsh_budget(bad)

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(min_value=0.0, max_value=0.999),
        st.floats(min_value=0.0, max_value=0.999),
    )
    def test_monotone(self, a, b):
        lo, hi = sorted((a, b))
        blo, bhi = chsh_budget(lo), chsh_budget(hi)
        assert blo.eps1 <= bhi.eps1 + 1e-15
        assert blo.eps2 <= bhi.eps2 + 1e-15
        assert blo.delta <= bhi.delta + 1e-15


class TestMyBudget:
    def test_frozen_values(self):
        budget = my_budget(0.01)
        assert budget.eps2 == pytest.approx(0.1414213562373095, rel=1e-14)
        assert budget.eps_prime == pytest.approx(0.42391700542060284, rel=1e-14)
        # cross-check of the three-term sum, accumulated in reverse order
        s2 = math.sqrt(2.0)
        t1 = 2.0 * (1.0 + s2) * (2.0 * 0.01) ** 0.25
        t2 = 4.0 * math.sqrt(2.0 * 0.01)
        t3 = ((5.0 + 3.0 * s2) / 2.0) * (2.0 * 0.01) ** 0.75
        assert budget.eps1 == pytest.approx(t3 + (t2 + t1), rel=1e-13)
        assert budget.eps1 == pytest.approx(2.627240713171731, rel=1e-14)
        assert budget.eps1_exact == pytest.approx(
            (1.0 + s2) * budget.eps_prime + 2.0 * math.sqrt(0.02), rel=1e-14
        )

    def test_zero_limit(self):
        budget = my_budget(0.0)
        assert budget.eps1 == 0.0 and budget.eps2 == 0.0
        b12, b8, b4 = my_budget(1e-12), my_budget(1e-8), my_budget(1e-4)
        assert 0.0 < b12.eps1 < b8.eps1 < b4.eps1
        assert 0.0 < b12.eps2 < b8.eps2 < b4.eps2
        assert b12.eps1 < 1e-2 and b12.eps2 < 1e-5

    def test_domain(self):
        for bad in (-1e-9, 1.0):
            with pytest.raises(ValueError, match="epsilon"):
                my_budget(bad)

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(min_value=0.0, max_value=0.999),
        st.floats(min_value=0.0, max_value=0.999),
    )
    def test_monotone(self, a, b):
        lo, hi = sorted((a, b))
        blo, bhi = my_budget(lo), my_budget(hi)
        assert blo.eps1 <= bhi.eps1 + 1e-15
        assert blo.eps2 <= bhi.eps2 + 1e-15


class TestChshDiagnostics:
    def test_canonical_saturation(self, chsh_device):
        diag = chsh_diagnostics(chsh_device, derive_chsh_operators(chsh_device))
        assert diag["commutator_product"] == pytest.approx(4.0, abs=1e-9)
        assert diag["xa_bsum_overlap"] == pytest.approx(SQRT2, abs=1e-10)
        for name in (
            "norm_a0a1_plus_b1b0",
            "norm_a0a1_minus_b0b1",
            "norm_a1a0_minus_b1b0",
            "norm_a1a0_plus_b0b1",
            "anticomm_a_raw",
            "anticomm_b_raw",
            "norm_xa_minus_bsum",
            "norm_xb_minus_bsum",
        ):
            assert diag[name] <= 1e-10, name

    def test_tilted_within_chain_budgets(self):
        device = tilted_device(math.pi / 8)
        _, eps = chsh_value(device)
        budget = chsh_budget(eps)
        diag = chsh_diagnostics(device, derive_chsh_operators(device))
        assert diag["commutator_product"] >= 4.0 - budget.delta - 1e-9
        for name in (
            "norm_a0a1_plus_b1b0",
            "norm_a0a1_minus_b0b1",
            "norm_a1a0_minus_b1b0",
            "norm_a1a0_plus_b0b1",
        ):
            assert diag[name] <= budget.eps1_exact + 1e-9
        assert diag["anticomm_a_raw"] <= 2.0 * budget.eps1_exact + 1e-9
        assert diag["anticomm_b_raw"] <= 2.0 * budget.eps1_exact + 1e-9
        assert diag["xa_bsum_overlap"] >= SQRT2 * (1.0 - budget.eps_prime_exact) - 1e-9
        half_diff = math.sqrt(budget.eps1_exact + 2.0 * budget.eps_prime_exact)
        assert diag["norm_xa_minus_bsum"] <= half_diff + 1e-9
        assert diag["norm_xb_minus_bsum"] <= half_diff + 1e-9


class TestMyDiagnostics:
    def test_canonical_exact(self, my_device):
        diag = my_diagnostics(my_device)
        assert diag["sum_xz_norm"] == pytest.approx(1.0, abs=1e-10)
        assert diag["db_vs_sum_xz"] <= 1e-10
        for name in ("anticomm_alice", "anticomm_bob", "cross_za_xa", "cross_xa_za"):
            assert diag[name] <= 1e-10, name

    def test_perturbed_within_chain_budgets(self, my_device):
        state = math.sqrt(0.99) * PHI_PLUS + 0.1 * np.array(
            [0.0, 1.0, 0.0, 0.0], dtype=complex
        )
        device = make_device(
            (2, 2), state, dict(my_device.alice_obs), dict(my_device.bob_obs)
        )
        _, eps = my_deviation(device)
        budget = my_budget(eps)
        diag = my_diagnostics(device)
        assert diag["sum_xz_norm"] <= math.sqrt(1.0 + eps + math.sqrt(2 * eps)) + 1e-9
        assert diag["db_vs_sum_xz"] <= budget.eps_prime + 1e-9
        assert diag["anticomm_alice"] <= 2.0 * (1.0 + SQRT2) * budget.eps_prime + 1e-9
        assert diag["cross_za_xa"] <= 2.0 * math.sqrt(2.0 * eps) + 1e-9
        assert diag["cross_xa_za"] <= 2.0 * math.sqrt(2.0 * eps) + 1e-9
        assert diag["anticomm_bob"] <= 2.0 * budget.eps1_exact + 1e-9

    def test_db_ideal_realization(self, my_device):
        # DB acts as (X+Z)/sqrt(2) on the maximally entangled pair
        diag = my_diagnostics(my_device)
        assert diag["db_vs_sum_xz"] <= 1e-10
        assert np.allclose(my_device.bob_obs["DB"], DIAG_XZ)
