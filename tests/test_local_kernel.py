"""The state-matrix kernels against their reference formulas.

Residuals, chain diagnostics, Z expectations and correlations are computed by
the library as A Psi B^T on the (dA, dB) state matrix Psi.  Here they are
compared with the literal embedded products kept in ``embedded_oracle`` on
Haar-random states and complex Hermitian observables (so B^T != B), over
non-square dims, where a transposed Bob operator or a swapped reshape order
gives different numbers.  The extraction distances, computed by the library
in one stacked circuit pass against constant ancilla targets, are compared in
the same way with the per-pair formulas in ``isometry_oracle``.
"""

from __future__ import annotations

import numpy as np
import pytest

import embedded_oracle as oracle
import isometry_oracle
from conftest import random_unitary
from singlet_selftest import bounds, device as device_module
from singlet_selftest.derive import (
    DerivedOperators,
    chsh_diagnostics,
    condition_residuals,
    derive_chsh_operators,
    my_diagnostics,
    my_operators,
)
from singlet_selftest.device import (
    CHSH_PAIRS,
    MY_PAIRS,
    correlation,
    correlations,
    make_device,
    validate,
)
from singlet_selftest.isometry import (
    OPERATOR_PAIRS,
    b_measured_errors,
    extraction_error,
    junk_candidate,
)

TOL = 1e-12
DIMS = [(2, 3), (3, 5), (4, 2), (6, 4), (3, 3)]


def random_observable(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-rotated +/-1 observable with both eigenvalues present (dim >= 2)."""
    signs = rng.choice([-1.0, 1.0], size=dim)
    signs[:2] = (1.0, -1.0)
    u = random_unitary(rng, dim)
    return (u * signs) @ u.conj().T


def random_device(rng: np.random.Generator, dims, alice_names, bob_names):
    da, db = dims
    state = rng.normal(size=da * db) + 1j * rng.normal(size=da * db)
    state /= np.linalg.norm(state)
    device = make_device(
        dims,
        state,
        {name: random_observable(rng, da) for name in alice_names},
        {name: random_observable(rng, db) for name in bob_names},
    )
    assert validate(device) == []
    return device


def chsh_device(seed: int, dims):
    return random_device(np.random.default_rng(seed), dims, ("A0", "A1"), ("B0", "B1"))


def my_device(seed: int, dims):
    return random_device(
        np.random.default_rng(seed), dims, ("XA", "ZA"), ("XB", "ZB", "DB")
    )


def assert_close(got: dict, want: dict) -> None:
    assert got.keys() == want.keys()
    for key in want:
        assert got[key] == pytest.approx(want[key], abs=TOL), key


@pytest.mark.parametrize("dims", DIMS)
@pytest.mark.parametrize("seed", [1, 2])
class TestAgainstEmbeddedOracle:
    def test_observables_are_not_real_symmetric(self, dims, seed):
        device = chsh_device(seed, dims)
        for obs in (device.alice_obs["A0"], device.bob_obs["B0"]):
            assert np.max(np.abs(obs - obs.T)) > 1e-3

    def test_condition_residuals_chsh(self, dims, seed):
        device = chsh_device(seed, dims)
        ops = derive_chsh_operators(device)
        got = vars(condition_residuals(device.state, ops))
        assert_close(got, oracle.condition_residuals(device.state, ops))

    def test_condition_residuals_general_matrices(self, dims, seed):
        # non-Hermitian operators: neither B^T nor B^dagger equals B
        rng = np.random.default_rng(100 + seed)
        da, db = dims

        def cmat(d):
            return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))

        ops = DerivedOperators(xa=cmat(da), za=cmat(da), xb=cmat(db), zb=cmat(db))
        state = rng.normal(size=da * db) + 1j * rng.normal(size=da * db)
        got = vars(condition_residuals(state, ops))
        assert_close(got, oracle.condition_residuals(state, ops))

    def test_condition_residuals_my(self, dims, seed):
        device = my_device(seed, dims)
        ops = my_operators(device)
        got = vars(condition_residuals(device.state, ops))
        assert_close(got, oracle.condition_residuals(device.state, ops))

    def test_chsh_diagnostics(self, dims, seed):
        device = chsh_device(seed, dims)
        ops = derive_chsh_operators(device)
        assert_close(chsh_diagnostics(device, ops), oracle.chsh_diagnostics(device, ops))

    def test_my_diagnostics(self, dims, seed):
        device = my_device(seed, dims)
        assert_close(my_diagnostics(device), oracle.my_diagnostics(device))

    def test_z_expectations(self, dims, seed):
        for device, derive in ((chsh_device(seed, dims), derive_chsh_operators),
                               (my_device(seed, dims), my_operators)):
            ops = derive(device)
            got = bounds._z_expectations(device, ops)
            assert got == pytest.approx(oracle.z_expectations(device, ops), abs=TOL)

    def test_correlations(self, dims, seed):
        for device, pairs in ((chsh_device(seed, dims), CHSH_PAIRS),
                              (my_device(seed, dims), MY_PAIRS)):
            table = correlations(device, pairs)
            assert list(table) == list(pairs)
            for pair in pairs:
                assert table[pair] == pytest.approx(
                    oracle.correlation(device, *pair), abs=TOL
                )
                # one code path: the single-pair call is the batched one
                assert correlation(device, *pair) == table[pair]


class TestCorrelationsBatch:
    def test_each_observable_embedded_once(self, monkeypatch):
        device = my_device(7, (3, 4))
        calls = []
        real_embed = device_module.tensor_embed

        def counting_embed(op, party, dims):
            calls.append(party)
            return real_embed(op, party, dims)

        monkeypatch.setattr(device_module, "tensor_embed", counting_embed)
        correlations(device, MY_PAIRS)
        assert sorted(calls) == ["A", "A", "B", "B", "B"]

    def test_unknown_name_raises(self):
        device = chsh_device(3, (2, 3))
        with pytest.raises(KeyError):
            correlations(device, (("A0", "B0"), ("A0", "B9")))


@pytest.mark.parametrize("dims", [(2, 2), (3, 5), (4, 2), (6, 4), (3, 3)])
@pytest.mark.parametrize("seed", [1, 2])
class TestAgainstIsometryOracle:
    def test_pair_errors(self, dims, seed):
        device = chsh_device(seed, dims)
        ops = derive_chsh_operators(device)
        result = extraction_error(device, ops)
        assert list(result.errors_by_pair) == list(OPERATOR_PAIRS)
        want = {(m, n): isometry_oracle.pair_error(device, ops, result.junk, m, n)
                for m, n in OPERATOR_PAIRS}
        assert_close(result.errors_by_pair, want)

    def test_b_errors(self, dims, seed):
        device = chsh_device(seed, dims)
        ops = derive_chsh_operators(device)
        junk, _ = junk_candidate(device, ops)
        got = b_measured_errors(device, ops, junk)
        want = {(m, which): isometry_oracle.b_error(device, ops, junk, m, which)
                for m in ("I", "X", "Z") for which in ("B0", "B1")}
        assert list(got) == list(want)
        assert_close(got, want)

    def test_state_rows(self, dims, seed):
        device = chsh_device(seed, dims)
        ops = derive_chsh_operators(device)
        result = extraction_error(device, ops)
        pre, post = isometry_oracle.state_errors(
            device, ops, result.junk, result.junk_norm_raw
        )
        assert result.state_error_pre_normalization == pytest.approx(pre, abs=TOL)
        assert result.errors_by_pair[("I", "I")] == pytest.approx(post, abs=TOL)
        rows = {row.name: row.measured for row in bounds.certify(device, "chsh").rows}
        assert rows["state_error_pre_normalization"] == pytest.approx(pre, abs=TOL)
        assert rows["state_error_normalized"] == pytest.approx(post, abs=TOL)


def test_certify_b_rows_match_public_b_measured_error():
    device = chsh_device(5, (3, 4))
    report = bounds.certify(device, "chsh")
    ops = derive_chsh_operators(device)
    junk, _ = junk_candidate(device, ops)
    errors = b_measured_errors(device, ops, junk)
    rows = {row.name: row.measured for row in report.rows_by_category("b_operator")}
    assert len(rows) == len(errors) == 6
    for (m, which), error in errors.items():
        assert rows[f"b_operator_{m}_{which}"] == error
