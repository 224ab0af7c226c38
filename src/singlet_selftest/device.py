"""Bipartite device abstraction and the correlation functionals computed from it.

A device is an (unknown, finite-dimensional) pure state plus named +/-1-valued
observables per party.  The two correlation experiments supported are the CHSH
combination (canonical observable names A0, A1, B0, B1) and the Mayers-Yao set
(XA, ZA on Alice against XB, ZB, DB on Bob).  Observable naming is the contract
between modules.  The canonical devices reach each experiment's ideal
correlations on the maximally entangled pair.  There is one device type,
``DeviceStack``, n devices of one dims: validation and correlations take a
stack, and one device, as ``make_device`` and the canonical devices build
it, is the n = 1 stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    DIAG_XZ,
    PAULI_X,
    PAULI_Z,
    PHI_PLUS,
    hermiticity_deviation,
)

CHSH_ALICE = ("A0", "A1")
CHSH_BOB = ("B0", "B1")
MY_ALICE = ("XA", "ZA")
MY_BOB = ("XB", "ZB", "DB")
CHSH_PAIRS = tuple((a, b) for a in CHSH_ALICE for b in CHSH_BOB)
MY_PAIRS = tuple((a, b) for a in MY_ALICE for b in MY_BOB)

TSIRELSON = 2.0 * np.sqrt(2.0)

STATE_NORM_ATOL = 1e-12
OBSERVABLE_ATOL = 1e-10
IMAG_ATOL = 1e-10

# Budget, in complex entries (1 MiB), on the largest array stacked over
# devices: the row-block buffer of ``correlation_stack`` and, through
# ``explorer``, a sweep chunk's largest array.
CHUNK_ELEMENTS = 65_536


class DeviceValidationError(ValueError):
    """Raised when a pipeline entry point receives an invalid device."""

    def __init__(self, violations: list[str]):
        self.violations = violations
        super().__init__("invalid device: " + "; ".join(violations))


@dataclass(frozen=True)
class DeviceStack:
    """n devices of one ``dims``: a bipartite pure state and named local
    observables per device, each field with a leading device axis.

    ``state`` is (n, dA*dB), Alice's index major (component (i, j) of device
    k at ``state[k, i * dB + j]``), and each observable (n, d, d); index k of
    every array belongs to device k, and all devices name the same
    observables.  The pipeline stages take stacks, and a single device is
    the n = 1 stack.  The library's stacks hold read-only arrays
    (``frozen_stack``), safe to share across threads.
    """

    dims: tuple[int, int]
    state: np.ndarray
    alice_obs: dict[str, np.ndarray] = field(default_factory=dict)
    bob_obs: dict[str, np.ndarray] = field(default_factory=dict)

    def __len__(self) -> int:
        return self.state.shape[0]

    def select(self, rows) -> DeviceStack:
        """The stack of the devices ``rows``, read-only: a slice gives views,
        a sequence of indices copies."""
        return frozen_stack(
            self.dims,
            self.state[rows],
            {name: m[rows] for name, m in self.alice_obs.items()},
            {name: m[rows] for name, m in self.bob_obs.items()},
        )


def frozen_stack(dims: tuple[int, int], state: np.ndarray,
                 alice_obs: dict, bob_obs: dict) -> DeviceStack:
    """The stack of these arrays, each made read-only in place."""
    for array in (state, *alice_obs.values(), *bob_obs.values()):
        array.flags.writeable = False
    return DeviceStack(dims, state, alice_obs, bob_obs)


def make_device(
    dims: tuple[int, int],
    state: np.ndarray,
    alice_obs: dict[str, np.ndarray],
    bob_obs: dict[str, np.ndarray],
) -> DeviceStack:
    """One device, from a (dA*dB,) state and (d, d) observables, as the
    n = 1 stack of read-only copies.

    A state that is not one vector, or an observable that is not one square
    matrix, raises ``ValueError`` naming the argument, since a stack of them
    would broadcast through the correlations; whether the lengths match
    ``dims`` is left to ``validate_stack``.  Device documents never reach
    this check: ``documents`` parses vectors and square matrices only.
    """
    state = np.array(state, dtype=complex)
    if state.ndim != 1:
        raise ValueError(f"state: expected one vector, got shape {state.shape}")

    def rows(argument: str, obs: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        arrays = {name: np.array(m, dtype=complex) for name, m in obs.items()}
        for name, m in arrays.items():
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise ValueError(f"{argument}[{name!r}]: expected one square matrix, "
                                 f"got shape {m.shape}")
        return {name: m[None] for name, m in arrays.items()}

    return frozen_stack((int(dims[0]), int(dims[1])), state[None],
                        rows("alice_obs", alice_obs), rows("bob_obs", bob_obs))


def canonical_chsh_device() -> DeviceStack:
    """Maximally entangled pair with the CHSH-saturating measurement settings."""
    return make_device(
        (2, 2),
        PHI_PLUS,
        {"A0": PAULI_X, "A1": PAULI_Z},
        {"B0": DIAG_XZ, "B1": (PAULI_X - PAULI_Z) / math.sqrt(2.0)},
    )


def canonical_my_device() -> DeviceStack:
    """Maximally entangled pair with the ideal Mayers-Yao observables."""
    return make_device(
        (2, 2),
        PHI_PLUS,
        {"XA": PAULI_X, "ZA": PAULI_Z},
        {"XB": PAULI_X, "ZB": PAULI_Z, "DB": DIAG_XZ},
    )


def validate_stack(stack: DeviceStack) -> list[list[str]]:
    """Check all device invariants of every device of a stack: one list of
    violation messages per device, empty for a valid device.

    A valid device has every entry finite, its state normalized within
    1e-12, every observable Hermitian and squaring to the identity within
    1e-10, and all dimensions consistent.  Diagnostics are returned, never
    raised.  Each check runs once over the whole stack; only the devices that
    fail one are looked at one by one, to name what failed.
    """
    violations: list[list[str]] = [[] for _ in range(len(stack))]

    def every_device(message: str) -> None:
        for found in violations:
            found.append(message)

    da, db = stack.dims
    if da < 1 or db < 1:
        every_device(f"dims: must be positive, got {stack.dims}")
        return violations

    # Non-finite entries make the norms and deviations below NaN or inf
    # (inf - inf on an infinite diagonal entry gives NaN); such a device is
    # reported as non-finite, so the arithmetic warnings are not wanted.
    with np.errstate(invalid="ignore", over="ignore"):
        state = stack.state
        if state.shape[1:] != (da * db,):
            every_device(f"state: dimension {state.shape[1:]} != (dA*dB,) = ({da * db},)")
        else:
            # NaN fails every comparison, so a non-finite norm is a failure too.
            norms = np.linalg.norm(state, axis=1)
            for i in np.flatnonzero(~(np.abs(norms - 1.0) <= STATE_NORM_ATOL)):
                if not np.isfinite(state[i]).all():
                    violations[i].append("state: non-finite entry")
                else:
                    violations[i].append(f"state: norm {norms[i]:.12g} != 1")

        parties = (("A", stack.alice_obs, da), ("B", stack.bob_obs, db))
        # The well-shaped observables of one dim, both parties' when dA = dB,
        # are checked in one stacked pass; rows[party, name] holds the
        # observable's deviations and failures, one entry per device.
        rows = {}
        clean = True
        for dim in dict.fromkeys((da, db)):
            shaped = [(party, name, m) for party, obs, d in parties if d == dim
                      for name, m in obs.items() if m.shape[1:] == (dim, dim)]
            if shaped:
                ms = np.stack([m for _, _, m in shaped])
                herm = hermiticity_deviation(ms)
                square = np.abs(ms @ ms - np.eye(dim)).max(axis=(2, 3))
                failed = ~(np.maximum(herm, square) <= OBSERVABLE_ATOL)
                clean = clean and not failed.any()
                rows.update(zip([(party, name) for party, name, _ in shaped],
                                zip(herm, square, failed)))
        if clean and len(rows) == len(stack.alice_obs) + len(stack.bob_obs):
            return violations
        for party, obs, dim in parties:
            for name, m in obs.items():
                if (party, name) not in rows:
                    every_device(
                        f"{name}: shape {m.shape[1:]} does not match party {party} dim {dim}"
                    )
                    continue
                herm, square, failed = rows[party, name]
                for i in np.flatnonzero(failed):
                    if not np.isfinite(m[i]).all():
                        violations[i].append(f"{name}: non-finite entry")
                        continue
                    if herm[i] > OBSERVABLE_ATOL:
                        violations[i].append(f"{name}: not Hermitian, max deviation {herm[i]:.3g}")
                    if square[i] > OBSERVABLE_ATOL:
                        violations[i].append(f"{name}: O^2 != I, deviation {square[i]:.3g}")
    return violations


def require_observables(stack: DeviceStack, pairs: tuple[tuple[str, str], ...]) -> None:
    """Raise ``KeyError`` naming the first observable of ``pairs`` the stack's
    devices lack.

    Alice's names are checked before Bob's, each in the order of ``pairs``.
    """
    for party, side, obs in (("Alice", 0, stack.alice_obs), ("Bob", 1, stack.bob_obs)):
        for pair in pairs:
            if pair[side] not in obs:
                raise KeyError(f"device has no {party} observable {pair[side]!r}")


def correlation_stack(
    stack: DeviceStack, pairs: tuple[tuple[str, str], ...]
) -> np.ndarray:
    """The correlations of ``pairs`` for every device of a stack, as an
    (n, len(pairs)) real array in the order of ``pairs``.

    The names are checked first (``require_observables``); the devices'
    validity is not: ``bounds.certify`` and the ``explorer`` sweep and search
    check it once per device.  The value of a product of commuting Hermitian
    observables must be real; an imaginary part above 1e-10 raises a
    numerical-consistency error naming the first such device's first such
    pair, and that device's value.

    The epsilon^(1/4) budgets amplify a last-bit change in a correlation far
    beyond the change itself at small deviation, so these values keep the
    embedded form ``vdot(psi, (M x I) @ ((I x N) @ psi))`` rather than the
    state-matrix kernel used elsewhere.  Each entry (i, j) of (I x N) psi
    and of (M x I)(I x N) psi is one dot product of row (i, j) of the
    embedded matrix with a column, so the rows are computed a block at a
    time: g of Alice's indices i, all dB rows (i, j) of each, for every
    device, with g = CHUNK_ELEMENTS // (n dB dA dB), at least one and at most
    dA.  Every block reuses one zeroed (n, g*dB, dA*dB) buffer, at most
    CHUNK_ELEMENTS entries unless a single index exceeds them, and it is
    one block when the whole matrices fit, as in every sweep chunk.  Each
    observable is written straight into the entries its embedding occupies
    in the block's rows (I x N first, for every Bob name, zeroed after the
    block; then M x I, rewritten when the Alice name changes).  Every
    nonzero entry is the one ``np.kron`` gives, since x * (1 + 0j) is exact;
    only the sign of some zero entries differs, which no sum with a nonzero
    term can see.  numpy runs a stacked product with one column as one
    matrix-vector product per device, whose every entry is that row's dot
    product whatever the rows around it, and a row times a column as a dot
    product, so every correlation is bit-identical to the ``np.kron`` form
    of that device alone.
    """
    require_observables(stack, pairs)
    da, db = stack.dims
    n, entries = len(stack), da * db
    psi = stack.state[..., None]
    g = min(da, max(1, CHUNK_ELEMENTS // max(1, n * db * entries)))
    buf = np.zeros((n, g * db, entries), dtype=complex)
    # blocks[:, r, j, k, l] is the entry at block row r*dB + j, column k*dB + l.
    blocks = buf.reshape(n, g, db, da, db)
    alice_diag, bob_diag = np.arange(da), np.arange(db)
    # The blocks' Alice indices; block rows r*dB + j are rows (start + r)*dB + j.
    spans = [(start, min(start + g, da)) for start in range(0, da, g)]
    # (I x N) psi for each Bob name, then (M x I)(I x N) psi for each pair.
    bob_names = dict.fromkeys(bob_name for _, bob_name in pairs)
    products = np.empty((len(bob_names) + len(pairs), n, entries, 1), dtype=complex)
    applied_b = dict(zip(bob_names, products))
    applied_ab = products[len(bob_names):]
    for start, stop in spans:
        block, rows = buf[:, :(stop - start) * db], slice(start * db, stop * db)
        diag = (slice(None), alice_diag[:stop - start], slice(None), alice_diag[start:stop])
        for bob_name, applied in applied_b.items():
            blocks[diag] = stack.bob_obs[bob_name]
            np.matmul(block, psi, out=applied[:, rows])
        blocks[diag] = 0.0
    for start, stop in spans:
        block, rows = buf[:, :(stop - start) * db], slice(start * db, stop * db)
        written_a = None
        for j, (alice_name, bob_name) in enumerate(pairs):
            if alice_name != written_a:
                blocks[:, :stop - start, bob_diag, :, bob_diag] = (
                    stack.alice_obs[alice_name][:, start:stop])
                written_a = alice_name
            np.matmul(block, applied_b[bob_name], out=applied_ab[j, :, rows])
    values = (np.conj(stack.state)[:, None, :] @ applied_ab)[..., 0, 0].T
    failed = np.abs(values.imag) > IMAG_ATOL
    if failed.any():
        i, j = np.argwhere(failed)[0]
        alice_name, bob_name = pairs[j]
        raise ValueError(
            f"correlation <{alice_name} {bob_name}> has imaginary part "
            f"{values[i, j].imag:.3e} above tolerance"
        )
    return values.real


def chsh_epsilon(values: dict[tuple[str, str], float]) -> tuple[float, float]:
    """CHSH combination <A0B0> + <A0B1> + <A1B0> - <A1B1> and its deficit.

    Returns ``(value, epsilon)`` with ``epsilon = max(0, 2*sqrt(2) - value)``;
    the deficit is clamped at 0 when numerical noise pushes the value above
    the quantum maximum.
    """
    value = (
        values[("A0", "B0")]
        + values[("A0", "B1")]
        + values[("A1", "B0")]
        - values[("A1", "B1")]
    )
    return value, max(0.0, float(TSIRELSON - value))


def _ideal_pair_value(alice_name: str, bob_name: str) -> float:
    ops = {"XA": PAULI_X, "ZA": PAULI_Z, "XB": PAULI_X, "ZB": PAULI_Z, "DB": DIAG_XZ}
    full = np.kron(ops[alice_name], ops[bob_name])
    return float(np.vdot(PHI_PLUS, full @ PHI_PLUS).real)


MY_IDEAL = {pair: _ideal_pair_value(*pair) for pair in MY_PAIRS}


def my_epsilon(values: dict[tuple[str, str], float]) -> tuple[None, float]:
    """Worst deviation of the six Mayers-Yao correlations from ideal.

    Returns ``(None, epsilon)``, ``epsilon`` being the maximum of
    ``|measured - ideal|`` over the six pairs, the ideal being the
    maximally-entangled-pair value for the corresponding qubit operators.
    The ``None`` stands for the CHSH value, which this test has no use for.
    """
    epsilon = 0.0
    for pair in MY_PAIRS:
        epsilon = max(epsilon, abs(values[pair] - MY_IDEAL[pair]))
    return None, epsilon
