"""Bipartite device abstraction and the correlation functionals computed from it.

A device is an (unknown, finite-dimensional) pure state plus named +/-1-valued
observables per party.  The two correlation experiments supported are the CHSH
combination (canonical observable names A0, A1, B0, B1) and the Mayers-Yao set
(XA, ZA on Alice against XB, ZB, DB on Bob).  Observable naming is the contract
between modules.  The canonical devices reach each experiment's ideal
correlations on the maximally entangled pair.  Validation and correlations
take a ``DeviceStack`` of same-dims devices; one device is the n = 1 stack.
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


class DeviceValidationError(ValueError):
    """Raised when a pipeline entry point receives an invalid device."""

    def __init__(self, violations: list[str]):
        self.violations = violations
        super().__init__("invalid device: " + "; ".join(violations))


@dataclass(frozen=True)
class DeviceModel:
    """Bipartite pure state with named local observables.

    ``state`` has dimension ``dims[0] * dims[1]`` with Alice's index major
    (component (i, j) at flat index ``i * dims[1] + j``).  Values are treated
    as immutable after construction and are safe to share across threads.
    """

    dims: tuple[int, int]
    state: np.ndarray
    alice_obs: dict[str, np.ndarray] = field(default_factory=dict)
    bob_obs: dict[str, np.ndarray] = field(default_factory=dict)


def make_device(
    dims: tuple[int, int],
    state: np.ndarray,
    alice_obs: dict[str, np.ndarray],
    bob_obs: dict[str, np.ndarray],
) -> DeviceModel:
    """Build a DeviceModel with defensive copies frozen against mutation."""
    da, db = int(dims[0]), int(dims[1])
    vec = np.array(state, dtype=complex).reshape(-1)
    vec.setflags(write=False)

    def freeze(obs: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        out = {}
        for name, m in obs.items():
            arr = np.array(m, dtype=complex)
            arr.setflags(write=False)
            out[name] = arr
        return out

    return DeviceModel((da, db), vec, freeze(alice_obs), freeze(bob_obs))


def canonical_chsh_device() -> DeviceModel:
    """Maximally entangled pair with the CHSH-saturating measurement settings."""
    return make_device(
        (2, 2),
        PHI_PLUS,
        {"A0": PAULI_X, "A1": PAULI_Z},
        {"B0": DIAG_XZ, "B1": (PAULI_X - PAULI_Z) / math.sqrt(2.0)},
    )


def canonical_my_device() -> DeviceModel:
    """Maximally entangled pair with the ideal Mayers-Yao observables."""
    return make_device(
        (2, 2),
        PHI_PLUS,
        {"XA": PAULI_X, "ZA": PAULI_Z},
        {"XB": PAULI_X, "ZB": PAULI_Z, "DB": DIAG_XZ},
    )


@dataclass(frozen=True)
class DeviceStack:
    """n devices of one ``dims``: the fields of ``DeviceModel`` with a leading axis.

    ``state`` is (n, dA*dB) and each observable (n, d, d); index i of every
    array belongs to device i, and all devices name the same observables.
    The pipeline stages take stacks, and a single device is the n = 1 stack
    ``DeviceStack.of(device)``.  Arrays are read-only, as in ``DeviceModel``.
    """

    dims: tuple[int, int]
    state: np.ndarray
    alice_obs: dict[str, np.ndarray] = field(default_factory=dict)
    bob_obs: dict[str, np.ndarray] = field(default_factory=dict)

    @classmethod
    def of(cls, device: DeviceModel) -> DeviceStack:
        """The n = 1 stack of one device, as views of its arrays."""
        return cls(
            device.dims,
            device.state[None],
            {name: m[None] for name, m in device.alice_obs.items()},
            {name: m[None] for name, m in device.bob_obs.items()},
        )

    def __len__(self) -> int:
        return self.state.shape[0]

    def select(self, rows) -> DeviceStack:
        """The stack of the devices ``rows``, read-only: a slice gives views,
        a sequence of indices copies."""

        def pick(array: np.ndarray) -> np.ndarray:
            array = array[rows]
            array.flags.writeable = False
            return array

        return DeviceStack(
            self.dims,
            pick(self.state),
            {name: pick(m) for name, m in self.alice_obs.items()},
            {name: pick(m) for name, m in self.bob_obs.items()},
        )

    def device(self, index: int) -> DeviceModel:
        """Device ``index`` of the stack, as views of the stacked arrays."""
        return DeviceModel(
            self.dims,
            self.state[index],
            {name: m[index] for name, m in self.alice_obs.items()},
            {name: m[index] for name, m in self.bob_obs.items()},
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

        for party, obs, dim in (("A", stack.alice_obs, da), ("B", stack.bob_obs, db)):
            # The party's well-shaped observables are checked in one stacked pass.
            shaped = [name for name, m in obs.items() if m.shape[1:] == (dim, dim)]
            if shaped:
                ms = np.stack([obs[name] for name in shaped])
                herm = hermiticity_deviation(ms)
                square = np.abs(ms @ ms - np.eye(dim)).max(axis=(2, 3))
                failed = ~(np.maximum(herm, square) <= OBSERVABLE_ATOL)
                if len(shaped) == len(obs) and not failed.any():
                    continue
            for name, m in obs.items():
                if name not in shaped:
                    every_device(
                        f"{name}: shape {m.shape[1:]} does not match party {party} dim {dim}"
                    )
                    continue
                j = shaped.index(name)
                for i in np.flatnonzero(failed[j]):
                    if not np.isfinite(m[i]).all():
                        violations[i].append(f"{name}: non-finite entry")
                        continue
                    if herm[j, i] > OBSERVABLE_ATOL:
                        violations[i].append(
                            f"{name}: not Hermitian, max deviation {herm[j, i]:.3g}"
                        )
                    if square[j, i] > OBSERVABLE_ATOL:
                        violations[i].append(f"{name}: O^2 != I, deviation {square[j, i]:.3g}")
    return violations


def require_observables(
    device: DeviceModel | DeviceStack, pairs: tuple[tuple[str, str], ...]
) -> None:
    """Raise ``KeyError`` naming the first observable of ``pairs`` the device
    (or stack) lacks.

    Alice's names are checked before Bob's, each in the order of ``pairs``.
    """
    for party, side, obs in (("Alice", 0, device.alice_obs), ("Bob", 1, device.bob_obs)):
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
    state-matrix kernel used elsewhere.  The embedded matrices of all n
    devices share one zeroed (n, dA*dB, dA*dB) buffer: each observable is
    written straight into the entries its embedding occupies (I x N first,
    for every Bob name, then M x I, rewritten when the Alice name changes).
    Every nonzero entry is the one ``np.kron`` gives, since x * (1 + 0j) is
    exact; only the sign of some zero entries differs, which no sum with a
    nonzero term can see.  numpy runs a stacked product with one column as
    one matrix-vector product per device, and a row times a column as a dot
    product, so every correlation is bit-identical to the ``np.kron`` form
    of that device alone.
    """
    require_observables(stack, pairs)
    da, db = stack.dims
    n = len(stack)
    psi = stack.state[..., None]
    buf = np.zeros((n, da * db, da * db), dtype=complex)
    # blocks[:, i, j, k, l] is the entry at row i*dB + j, column k*dB + l.
    blocks = buf.reshape(n, da, db, da, db)
    alice_diag, bob_diag = np.arange(da), np.arange(db)
    applied_b: dict[str, np.ndarray] = {}
    for _, bob_name in pairs:
        if bob_name not in applied_b:
            blocks[:, alice_diag, :, alice_diag, :] = stack.bob_obs[bob_name]
            applied_b[bob_name] = buf @ psi
    blocks[:, alice_diag, :, alice_diag, :] = 0.0
    bra = np.conj(stack.state)[:, None, :]
    values = np.empty((n, len(pairs)), dtype=complex)
    written_a = None
    for j, (alice_name, bob_name) in enumerate(pairs):
        if alice_name != written_a:
            blocks[:, :, bob_diag, :, bob_diag] = stack.alice_obs[alice_name]
            written_a = alice_name
        values[:, j] = (bra @ (buf @ applied_b[bob_name]))[:, 0, 0]
    failed = np.argwhere(np.abs(values.imag) > IMAG_ATOL)
    if len(failed):
        i, j = failed[0]
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
