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

import tracemalloc

import numpy as np
import pytest

import embedded_oracle as oracle
import isometry_oracle
from conftest import random_unitary
from helpers import (
    correlation,
    device_diagnostics,
    first_operators,
    rows_by_category,
    save_device,
    spawn_cli,
    stack_devices,
)
from singlet_selftest import bounds, explorer
from singlet_selftest.derive import (
    DerivedOperators,
    chsh_diagnostics,
    derive_chsh_operators,
    my_diagnostics,
    my_operators,
    residual_stack,
)
from singlet_selftest.device import (
    CHSH_PAIRS,
    CHUNK_ELEMENTS,
    MY_PAIRS,
    correlation_stack,
    make_device,
    validate_stack,
)
from singlet_selftest.explorer import FamilySpec, family_chunks
from singlet_selftest.isometry import (
    B_ROWS,
    OPERATOR_PAIRS,
    b_operator_stack,
    extraction_stack,
)
from singlet_selftest.linalg import PAULI_X, PHI_PLUS

TOL = 1e-12
DIMS = [(2, 3), (3, 5), (4, 2), (6, 4), (3, 3)]


def random_observable(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-rotated +/-1 observable, with both eigenvalues present if dim >= 2."""
    signs = rng.choice([-1.0, 1.0], size=dim)
    signs[:2] = (1.0, -1.0)[:dim]
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
    assert validate_stack(device) == [[]]
    return device


def chsh_device(seed: int, dims):
    return random_device(np.random.default_rng(seed), dims, ("A0", "A1"), ("B0", "B1"))


def my_device(seed: int, dims):
    return random_device(
        np.random.default_rng(seed), dims, ("XA", "ZA"), ("XB", "ZB", "DB")
    )


def without_z(rows: dict) -> dict:
    """The chain rows of a diagnostics result, without its two Z expectations."""
    return {name: value for name, value in rows.items()
            if name not in ("za_expectation_abs", "zb_expectation_abs")}


def assert_close(got: dict, want: dict) -> None:
    assert got.keys() == want.keys()
    for key in want:
        assert got[key] == pytest.approx(want[key], abs=TOL), key


@pytest.mark.parametrize("dims", DIMS)
@pytest.mark.parametrize("seed", [1, 2])
class TestAgainstEmbeddedOracle:
    def test_observables_are_not_real_symmetric(self, dims, seed):
        device = chsh_device(seed, dims)
        for obs in (device.alice_obs["A0"][0], device.bob_obs["B0"][0]):
            assert np.max(np.abs(obs - obs.T)) > 1e-3

    def test_condition_residuals_chsh(self, dims, seed):
        device = chsh_device(seed, dims)
        ops = derive_chsh_operators(device)
        (got,) = residual_stack(device.state.reshape(1, *dims), ops)
        assert_close(vars(got), oracle.condition_residuals(device.state, first_operators(ops)))

    def test_condition_residuals_general_matrices(self, dims, seed):
        # non-Hermitian operators: neither B^T nor B^dagger equals B
        rng = np.random.default_rng(100 + seed)
        da, db = dims

        def cmat(d):
            return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))

        ops = DerivedOperators(xa=cmat(da), za=cmat(da), xb=cmat(db), zb=cmat(db))
        state = rng.normal(size=da * db) + 1j * rng.normal(size=da * db)
        (got,) = residual_stack(state.reshape(1, da, db), ops)
        assert_close(vars(got), oracle.condition_residuals(state, ops))

    def test_condition_residuals_my(self, dims, seed):
        device = my_device(seed, dims)
        ops = my_operators(device)
        (got,) = residual_stack(device.state.reshape(1, *dims), ops)
        assert_close(vars(got), oracle.condition_residuals(device.state, first_operators(ops)))

    def test_chsh_diagnostics(self, dims, seed):
        device = chsh_device(seed, dims)
        ops = derive_chsh_operators(device)
        got = device_diagnostics(device, chsh_diagnostics, derive_chsh_operators)
        assert_close(without_z(got), oracle.chsh_diagnostics(device, first_operators(ops)))

    def test_my_diagnostics(self, dims, seed):
        device = my_device(seed, dims)
        got = device_diagnostics(device, my_diagnostics, my_operators)
        assert_close(without_z(got), oracle.my_diagnostics(device))

    def test_z_expectations(self, dims, seed):
        for device, diagnostics, derive in (
            (chsh_device(seed, dims), chsh_diagnostics, derive_chsh_operators),
            (my_device(seed, dims), my_diagnostics, my_operators),
        ):
            rows = device_diagnostics(device, diagnostics, derive)
            got = (rows["za_expectation_abs"], rows["zb_expectation_abs"])
            want = oracle.z_expectations(device, first_operators(derive(device)))
            assert got == pytest.approx(want, abs=TOL)

    def test_correlations(self, dims, seed):
        for device, pairs in ((chsh_device(seed, dims), CHSH_PAIRS),
                              (my_device(seed, dims), MY_PAIRS)):
            values = correlation_stack(device, pairs)
            assert values.shape == (1, len(pairs))
            table = dict(zip(pairs, values[0].tolist()))
            for pair in pairs:
                assert table[pair] == pytest.approx(
                    oracle.correlation(device, *pair), abs=TOL
                )
                # one code path: the single-pair call is the batched one
                assert correlation(device, *pair) == table[pair]


def degenerate_device(device, za_name: str):
    """``device`` with its state moved to v (x) w, v a -1 eigenvector of Z'_A
    (the observable ``za_name``): (I + Z'_A) removes it, so the junk
    candidate is zero."""
    db = device.dims[1]
    v = np.linalg.eigh(device.alice_obs[za_name][0])[1][:, 0]
    w = np.full(db, db**-0.5)
    return make_device(device.dims, np.kron(v, w),
                       {name: m[0] for name, m in device.alice_obs.items()},
                       {name: m[0] for name, m in device.bob_obs.items()})


@pytest.mark.parametrize("dims", [(3, 5), (2, 2)])
@pytest.mark.parametrize("mode", ["chsh", "my"])
def test_diagnostics_stack_rows_bit_identical_to_each_device(mode, dims):
    # each device's columns of one stack of different devices, a degenerate
    # one among them, are those of its own n = 1 stack, bit for bit
    selftest = bounds.get_mode(mode)
    build = chsh_device if mode == "chsh" else my_device
    devices = [build(seed, dims) for seed in range(40, 44)]
    devices.insert(2, degenerate_device(devices[0], "A1" if mode == "chsh" else "ZA"))
    stack = stack_devices(devices)
    psi = stack.state.reshape(len(stack), *dims)
    ops = selftest.derive(stack)
    assert extraction_stack(psi, ops).degenerate.tolist() == [False, False, True, False, False]
    columns = selftest.diagnostics(stack, psi, ops)
    chain = [spec.name for spec in selftest.rows
             if spec.category == "chain" and not spec.name.startswith("junk_rawnorm")]
    assert sorted(columns) == sorted(chain)
    for i, device in enumerate(devices):
        alone = selftest.diagnostics(device, device.state.reshape(1, *dims),
                                     selftest.derive(device))
        assert {name: column.shape for name, column in alone.items()} == dict.fromkeys(chain, (1,))
        assert {name: column[i] for name, column in columns.items()} == {
            name: column[0] for name, column in alone.items()}, i


def kron_correlation(device, a: str, b: str) -> float:
    """<psi| (M x I)(I x N) |psi> with both factors built by ``np.kron``."""
    da, db = device.dims
    ma = np.kron(device.alice_obs[a][0], np.eye(db, dtype=complex))
    nb = np.kron(np.eye(da, dtype=complex), device.bob_obs[b][0])
    return float(np.vdot(device.state[0], ma @ (nb @ device.state[0])).real)


# Bytes of the largest block buffer of correlation_stack, CHUNK_ELEMENTS
# complex entries.
BLOCK_BYTES = 16 * CHUNK_ELEMENTS


def traced_peak(stack, pairs) -> int:
    """Peak bytes that tracemalloc traces during one correlation_stack call."""
    tracemalloc.start()
    try:
        correlation_stack(stack, pairs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def search_stack(mode: str, dims, count: int, seed: int):
    """``count`` search proposals as the search builds them: each party's
    observables are non-contiguous views into one rotated array."""
    rng = np.random.default_rng(seed)
    base = bounds.get_mode(mode).canonical()
    qubit_state = np.zeros(dims, dtype=complex)
    qubit_state[:2, :2] = PHI_PLUS.reshape(2, 2)
    qubit_state = qubit_state.reshape(-1)
    state_dirs = np.stack([explorer._orthogonal_noise(rng, qubit_state) for _ in range(2)])
    table = explorer._rotation_table(base, dims, rng)
    params = rng.normal(scale=0.3, size=(count, 2 + len(base.alice_obs) + len(base.bob_obs)))
    return explorer._search_proposals(dims, qubit_state, state_dirs, table, params)


class TestCorrelationsBatch:
    @pytest.mark.parametrize("dims", [(1, 1), (1, 3), (3, 1), (2, 2), (3, 5), (6, 4), (16, 16),
                                      (20, 20), (32, 32)])
    def test_bit_identical_to_kron_form(self, dims):
        # the reused buffer holds exactly np.kron's nonzero entries, so every
        # value equals the embedded form with no tolerance at all; up to
        # 16 x 16 one block holds all of Alice's indices, 20 x 20 takes blocks
        # of 8, 8 and 4, and 32 x 32 sixteen blocks of 2
        for device, pairs in ((chsh_device(11, dims), CHSH_PAIRS),
                              (my_device(12, dims), MY_PAIRS)):
            values = correlation_stack(device, pairs)[0]
            for (a, b), value in zip(pairs, values.tolist()):
                assert value == kron_correlation(device, a, b), (a, b)

    @pytest.mark.parametrize("kind,dims", [
        ("mixed", (2, 2)), ("mixed", (3, 5)), ("mixed", (16, 16)),
        ("junk-embedded", (4, 4)), ("measurement-noise", (2, 2)),
        ("search", (4, 4)), ("search", (5, 3)),
        ("mixed", (22, 12)), ("search", (12, 12)), ("empty", (32, 32)),
    ])
    @pytest.mark.parametrize("mode", ["chsh", "my"])
    def test_stack_rows_bit_identical_to_kron_form(self, kind, dims, mode):
        # each row of a stack is its device's value alone: for stacks of
        # different devices, for observables or states shared by
        # broadcasting, and for the search's non-contiguous observable views;
        # the blocks split Alice's indices for the four 16 x 16 devices (4
        # blocks of 4), the four 22 x 12 ones (5, 5, 5, 5 and 2) and the six
        # 12 x 12 proposals (2 blocks of 6), and an empty stack gives no rows
        pairs = bounds.get_mode(mode).pairs
        if kind == "empty":
            stack = chsh_device(11, dims) if mode == "chsh" else my_device(12, dims)
            stack = stack.select(slice(0, 0))
        elif kind == "mixed":
            build = chsh_device if mode == "chsh" else my_device
            stack = stack_devices([build(seed, dims) for seed in range(20, 24)])
        elif kind == "search":
            stack = search_stack(mode, dims, 6, 31)
            assert not stack.alice_obs[pairs[0][0]].flags.c_contiguous
        else:
            parameters = {"count": 5} if kind == "junk-embedded" else {"eta": [0.0, 0.4, 5]}
            (_, stack), = family_chunks(FamilySpec(kind, parameters, dims, 3, mode))
            shared = stack.alice_obs if kind == "junk-embedded" else {"state": stack.state}
            assert all(m.strides[0] == 0 for m in shared.values())
        values = correlation_stack(stack, pairs)
        assert values.shape == (len(stack), len(pairs))
        for i in range(len(stack)):
            device = stack.select(slice(i, i + 1))
            want = [kron_correlation(device, a, b) for a, b in pairs]
            assert values[i].tolist() == want, i
            assert correlation_stack(device, pairs)[0].tolist() == want, i

    def test_stack_imaginary_part_names_the_first_device(self):
        # devices 1 and 2 both fail; the error names device 1, its first
        # failing pair and its own value, as a call on device 1 alone would
        pairs = (("A", "B"), ("A2", "B"))
        devices = [make_device((2, 2), PHI_PLUS, {"A": PAULI_X, "A2": a2 * PAULI_X},
                               {"B": PAULI_X})
                   for a2 in (1.0, 0.5j)]
        devices.append(make_device((2, 2), PHI_PLUS,
                                   {"A": 0.25j * PAULI_X, "A2": 0.75j * PAULI_X},
                                   {"B": PAULI_X}))
        message = "correlation <A2 B> has imaginary part 5.000e-01 above tolerance"
        with pytest.raises(ValueError, match=f"^{message}$"):
            correlation_stack(stack_devices(devices), pairs)
        with pytest.raises(ValueError, match=f"^{message}$"):
            correlation_stack(devices[1], pairs)
        with pytest.raises(ValueError, match="^correlation <A B> has imaginary part 2.500e-01"):
            correlation_stack(stack_devices(devices[2:]), pairs)

    def test_peak_memory_is_one_embedded_buffer(self):
        # the embedded rows go through one block buffer of at most
        # CHUNK_ELEMENTS entries, not the whole (dA dB)^2 matrix (16 MiB at
        # 32 x 32); the rest is a few (dA dB,) vectors per pair
        for dims in ((16, 16), (32, 32)):
            for device, pairs in ((chsh_device(13, dims), CHSH_PAIRS),
                                  (my_device(14, dims), MY_PAIRS)):
                peak = traced_peak(device, pairs)
                assert peak < 1.25 * BLOCK_BYTES, (dims, peak / BLOCK_BYTES)

    def test_stack_peak_memory_is_one_block_buffer(self):
        # three 16 x 16 devices, 3 MiB of embedded matrices, share one block
        # buffer too: each block holds fewer of Alice's indices
        dims, n = (16, 16), 3
        for build, pairs in ((chsh_device, CHSH_PAIRS), (my_device, MY_PAIRS)):
            stack = stack_devices([build(seed, dims) for seed in range(n)])
            peak = traced_peak(stack, pairs)
            assert peak < 1.25 * BLOCK_BYTES, peak / BLOCK_BYTES

    def test_64x64_certify_child_peaks_under_150_mb(self, tmp_path):
        # certify on a 64 x 64 device peaks near 50 MB in all; the whole
        # 64^2 x 64^2 embedded matrix alone would take 268 MB
        (_, device), = explorer.family_chunks(
            explorer.FamilySpec("random", {"count": 1}, (64, 64), 5, "chsh"))
        save_device(tmp_path / "d64.json", device)
        code, _, stderr, peak_mb = spawn_cli(["certify", "--device", str(tmp_path / "d64.json"),
                                              "--mode", "chsh", "--out", str(tmp_path / "r.json")])
        assert code in (0, 1), stderr
        assert peak_mb < 150

    def test_unknown_name_raises(self):
        device = chsh_device(3, (2, 3))
        with pytest.raises(KeyError):
            correlation_stack(device, (("A0", "B0"), ("A0", "B9")))


def extraction_of(device):
    """The device's operators, its state as the n = 1 stack, and its extraction."""
    ops = derive_chsh_operators(device)
    psi = device.state.reshape(1, *device.dims)
    return ops, psi, extraction_stack(psi, ops)


def b_operator_errors(device, ops, psi, junk) -> dict:
    bob = (device.bob_obs["B0"], device.bob_obs["B1"])
    return dict(zip(B_ROWS, b_operator_stack(psi, ops, bob, junk)[0].tolist()))


@pytest.mark.parametrize("dims", [(2, 2), (3, 5), (4, 2), (6, 4), (3, 3)])
@pytest.mark.parametrize("seed", [1, 2])
class TestAgainstIsometryOracle:
    def test_pair_errors(self, dims, seed):
        device = chsh_device(seed, dims)
        ops, _, result = extraction_of(device)
        got = dict(zip(OPERATOR_PAIRS, result.distances[0].tolist()))
        want = {(m, n): isometry_oracle.pair_error(device, first_operators(ops), result.junk[0],
                                                       m, n)
                for m, n in OPERATOR_PAIRS}
        assert_close(got, want)

    def test_b_errors(self, dims, seed):
        device = chsh_device(seed, dims)
        ops, psi, result = extraction_of(device)
        junk = result.junk[0]
        got = b_operator_errors(device, ops, psi, result.junk)
        want = {(m, which): isometry_oracle.b_error(device, first_operators(ops), junk, m, which)
                for m in ("I", "X", "Z") for which in ("B0", "B1")}
        assert list(got) == list(want)
        assert_close(got, want)

    def test_state_rows(self, dims, seed):
        device = chsh_device(seed, dims)
        ops, _, result = extraction_of(device)
        pre, post = isometry_oracle.state_errors(
            device, first_operators(ops), result.junk[0], float(result.junk_norm_raw[0])
        )
        # ("I", "I") is the first pair.
        assert result.pre_normalization[0] == pytest.approx(pre, abs=TOL)
        assert result.distances[0, 0] == pytest.approx(post, abs=TOL)
        rows = {row.name: row.measured for row in bounds.certify(device, "chsh").rows}
        assert rows["state_error_pre_normalization"] == pytest.approx(pre, abs=TOL)
        assert rows["state_error_normalized"] == pytest.approx(post, abs=TOL)


def test_certify_b_rows_match_public_b_measured_error():
    device = chsh_device(5, (3, 4))
    report = bounds.certify(device, "chsh")
    ops, psi, result = extraction_of(device)
    errors = b_operator_errors(device, ops, psi, result.junk)
    rows = {row.name: row.measured for row in rows_by_category(report, "b_operator")}
    assert len(rows) == len(errors) == 6
    for (m, which), error in errors.items():
        assert rows[f"b_operator_{m}_{which}"] == error
