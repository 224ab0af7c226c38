"""Bipartite device abstraction and the correlation functionals computed from it.

A device is an (unknown, finite-dimensional) pure state plus named +/-1-valued
observables per party.  The two correlation experiments supported are the CHSH
combination (canonical observable names A0, A1, B0, B1) and the Mayers-Yao set
(XA, ZA on Alice against XB, ZB, DB on Bob).  Observable naming is the contract
between modules.  The canonical devices reach each experiment's ideal
correlations on the maximally entangled pair.
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
    tensor_embed,
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


def validate(device: DeviceModel) -> list[str]:
    """Check all device invariants, returning one message per violation.

    An empty list means the device is valid: every entry finite, state
    normalized within 1e-12, every observable Hermitian and squaring to the
    identity within 1e-10, and all dimensions consistent.  Diagnostics are
    returned, never raised.
    """
    violations: list[str] = []
    da, db = device.dims
    if da < 1 or db < 1:
        violations.append(f"dims: must be positive, got {device.dims}")
        return violations

    if device.state.shape != (da * db,):
        violations.append(
            f"state: dimension {device.state.shape} != (dA*dB,) = ({da * db},)"
        )
    else:
        # NaN fails every comparison, so non-finite entries are named first;
        # they make the norm non-finite, which is cheap to test.
        nrm = float(np.linalg.norm(device.state))
        if not math.isfinite(nrm) and not np.isfinite(device.state).all():
            violations.append("state: non-finite entry")
        elif abs(nrm - 1.0) > STATE_NORM_ATOL:
            violations.append(f"state: norm {nrm:.12g} != 1")

    # inf - inf on an infinite diagonal entry gives NaN, reported as non-finite.
    with np.errstate(invalid="ignore"):
        for party, obs, dim in (("A", device.alice_obs, da), ("B", device.bob_obs, db)):
            for name, m in obs.items():
                if m.shape != (dim, dim):
                    violations.append(
                        f"{name}: shape {m.shape} does not match party {party} dim {dim}"
                    )
                    continue
                herm = hermiticity_deviation(m)
                if not math.isfinite(herm) and not np.isfinite(m).all():
                    violations.append(f"{name}: non-finite entry")
                    continue
                if herm > OBSERVABLE_ATOL:
                    violations.append(f"{name}: not Hermitian, max deviation {herm:.3g}")
                sq = float(np.max(np.abs(m @ m - np.eye(dim))))
                if sq > OBSERVABLE_ATOL:
                    violations.append(f"{name}: O^2 != I, deviation {sq:.3g}")
    return violations


def require_valid(device: DeviceModel) -> None:
    violations = validate(device)
    if violations:
        raise DeviceValidationError(violations)


def correlations(
    device: DeviceModel, pairs: tuple[tuple[str, str], ...]
) -> dict[tuple[str, str], float]:
    """Expectation values <psi| (M_A x I)(I x N_B) |psi> for named observable pairs.

    Each named observable is embedded once and each (I x N_B)|psi> computed
    once, then reused across the pairs.  The value of a product of commuting
    Hermitian observables must be real; an imaginary part above 1e-10 raises
    a numerical-consistency error.

    The epsilon^(1/4) budgets amplify a last-bit change in a correlation far
    beyond the change itself at small deviation, so these values keep the
    embedded form ``vdot(psi, M @ (N @ psi))`` rather than the
    state-matrix kernel used elsewhere.
    """
    for alice_name, bob_name in pairs:
        if alice_name not in device.alice_obs:
            raise KeyError(f"unknown Alice observable {alice_name!r}")
        if bob_name not in device.bob_obs:
            raise KeyError(f"unknown Bob observable {bob_name!r}")
    embedded_a: dict[str, np.ndarray] = {}
    applied_b: dict[str, np.ndarray] = {}
    values: dict[tuple[str, str], float] = {}
    for alice_name, bob_name in pairs:
        if alice_name not in embedded_a:
            embedded_a[alice_name] = tensor_embed(
                device.alice_obs[alice_name], "A", device.dims
            )
        if bob_name not in applied_b:
            nb = tensor_embed(device.bob_obs[bob_name], "B", device.dims)
            applied_b[bob_name] = nb @ device.state
        value = complex(np.vdot(device.state, embedded_a[alice_name] @ applied_b[bob_name]))
        if abs(value.imag) > IMAG_ATOL:
            raise ValueError(
                f"correlation <{alice_name} {bob_name}> has imaginary part "
                f"{value.imag:.3e} above tolerance"
            )
        values[(alice_name, bob_name)] = float(value.real)
    return values


def correlation(device: DeviceModel, alice_name: str, bob_name: str) -> float:
    """Expectation value <psi| (M_A x I)(I x N_B) |psi> for one named pair."""
    return correlations(device, ((alice_name, bob_name),))[(alice_name, bob_name)]


def require_observables(device: DeviceModel, pairs: tuple[tuple[str, str], ...]) -> None:
    """Raise ``KeyError`` naming the first observable of ``pairs`` the device lacks.

    Alice's names are checked before Bob's, each in the order of ``pairs``.
    """
    for party, side, obs in (("Alice", 0, device.alice_obs), ("Bob", 1, device.bob_obs)):
        for pair in pairs:
            if pair[side] not in obs:
                raise KeyError(f"device has no {party} observable {pair[side]!r}")


def pair_correlations(
    device: DeviceModel, pairs: tuple[tuple[str, str], ...]
) -> dict[tuple[str, str], float]:
    """``correlations`` of the pairs, after ``require_observables`` on them."""
    require_observables(device, pairs)
    return correlations(device, pairs)


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
    return value, max(0.0, TSIRELSON - value)


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


def chsh_value(device: DeviceModel) -> tuple[float, float]:
    """CHSH value of a device and its deficit from 2*sqrt(2); see ``chsh_epsilon``."""
    return chsh_epsilon(pair_correlations(device, CHSH_PAIRS))


def my_deviation(device: DeviceModel) -> tuple[dict[tuple[str, str], float], float]:
    """All six Mayers-Yao correlations of a device and the worst deviation from ideal.

    Returns ``(table, epsilon)`` where the table maps (Alice, Bob) observable
    name pairs to measured expectations; ``epsilon`` is as in ``my_epsilon``.
    """
    table = pair_correlations(device, MY_PAIRS)
    return table, my_epsilon(table)[1]
