"""Verdicts that a transformation preserving the self-test's premises cannot change.

The paper's claim is that local bases exist in which the state is close to an
EPR pair; its premises and its conclusion are unchanged by complex
conjugation of the state and of every observable.  Every report value is
real, and conjugating the inputs only flips the sign of each imaginary part
the arithmetic meets, which IEEE rounding mirrors exactly, so the conjugate
device's report must equal the device's byte for byte, with no tolerance.
No oracle is needed.

Local unitaries, U_A (x) U_B on the state and U A U^dagger on each party's
observables, padding a party with an unused 2-dimensional block (state 0
there, observables +I), and tensoring a junk state onto a 2-dimensional
factor of each party (observables M (x) I) leave the premises and the claim
unchanged too, but move the arithmetic: every row's measured value and the
report's epsilon must stay within ``LOCAL_TOL``, NaN where the device's is
NaN, and every pass flag must be equal.  The strict verdict, slack >= 0 with
no ``CERT_TOL``, may flip by rounding where a bound is rounding-sized; away
from epsilon = 0 only the two Mayers-Yao rows that an identity makes tight,
``condition_diff_x`` and ``condition_diff_z``, may flip.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from helpers import family_points
from singlet_selftest.bounds import certify, get_mode
from singlet_selftest.device import make_device
from singlet_selftest.documents import json_text, report_to_document
from singlet_selftest.explorer import FamilySpec
from test_report_pins import FAMILIES, degenerate_device


def conjugate(device):
    """The n = 1 stack of the complex conjugate state and observables."""
    return make_device(device.dims, np.conj(device.state[0]),
                       {name: np.conj(m[0]) for name, m in device.alice_obs.items()},
                       {name: np.conj(m[0]) for name, m in device.bob_obs.items()})


def report_text(device, mode: str) -> str:
    # One fixed digest: the conjugate's document, and so its digest, differ.
    return json_text(report_to_document(certify(device, mode), "sha256:0"))


@pytest.mark.parametrize("mode", ["chsh", "my"])
def test_conjugation_leaves_every_report_byte_unchanged(mode):
    # Every report-pin device of the mode, the degenerate one included.
    devices = [device for kind, parameters, dims, seed in FAMILIES
               for _, device in family_points(FamilySpec(kind, parameters, dims, seed, mode))]
    devices.append(degenerate_device(mode))
    assert len(devices) == 44
    changed = [index for index, device in enumerate(devices)
               if report_text(conjugate(device), mode) != report_text(device, mode)]
    assert changed == []


# With seed 16, local unitaries move a value by at most 1.1e-14, padding by
# 1.6e-15 and a junk factor by 1.8e-15.
LOCAL_TOL = 1e-12

# The rows whose strict verdict rounding may flip on a device with epsilon
# above ``TIGHT_EPSILON``: with seed 16, 341 strict flips in all, 9 of them
# above it, every one on these rows.
IDENTITY_TIGHT = {("my", "condition_diff_x"), ("my", "condition_diff_z")}
TIGHT_EPSILON = 1e-10


def haar_unitary(rng, d: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def rotated(device, rng):
    """The device under seeded Haar-random local unitaries U_A (x) U_B."""
    da, db = device.dims
    ua, ub = haar_unitary(rng, da), haar_unitary(rng, db)
    state = ua @ device.state[0].reshape(da, db) @ ub.T
    return make_device(device.dims, state.reshape(-1),
                       {name: ua @ m[0] @ ua.conj().T for name, m in device.alice_obs.items()},
                       {name: ub @ m[0] @ ub.conj().T for name, m in device.bob_obs.items()})


def padded(device, party: str):
    """The device with ``party``'s space extended by a 2-dimensional block that
    the state does not reach and on which every observable of ``party`` is +I."""
    da, db = device.dims
    grow = (2, 0) if party == "alice" else (0, 2)
    state = np.pad(device.state[0].reshape(da, db), ((0, grow[0]), (0, grow[1])))

    def extended(named: dict, extra: int) -> dict:
        out = {}
        for name, m in named.items():
            d = m.shape[1]
            out[name] = np.eye(d + extra, dtype=complex)
            out[name][:d, :d] = m[0]
        return out

    return make_device((da + grow[0], db + grow[1]), state.reshape(-1),
                       extended(device.alice_obs, grow[0]), extended(device.bob_obs, grow[1]))


def with_junk(device, rng):
    """The device tensored with a seeded random junk state on a 2-dimensional
    factor of each party, Alice's (i, i') at i * 2 + i' and Bob's likewise,
    on which every observable acts as the identity: M (x) I."""
    da, db = device.dims
    junk = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    junk /= np.linalg.norm(junk)
    state = np.einsum("ij,kl->ikjl", device.state[0].reshape(da, db), junk)

    def extended(named: dict) -> dict:
        return {name: np.kron(m[0], np.eye(2)) for name, m in named.items()}

    return make_device((2 * da, 2 * db), state.reshape(-1),
                       extended(device.alice_obs), extended(device.bob_obs))


def verdict(device, mode: str) -> tuple[list[float], list[bool], list[bool]]:
    """epsilon and every row's measured value, every row's pass flag, and
    every row's strict verdict, slack >= 0."""
    report = certify(device, mode)
    return ([report.epsilon] + [row.measured for row in report.rows],
            [row.passed for row in report.rows],
            [row.slack >= 0.0 for row in report.rows])


def moved(a: float, b: float) -> float:
    """|a - b|, 0 when both are NaN, inf when only one is."""
    if math.isnan(a) or math.isnan(b):
        return 0.0 if math.isnan(a) and math.isnan(b) else math.inf
    return abs(a - b)


@pytest.mark.parametrize("transform", ["unitaries", "pad-alice", "pad-bob", "junk"])
@pytest.mark.parametrize("mode", ["chsh", "my"])
def test_local_unitaries_and_padding_leave_every_row_in_place(mode, transform):
    # Every 2x2, 3x5 and 8x8 report-pin device of the mode, the degenerate one
    # included, and 4-point 4x4 random and junk-embedded families.
    families = [family for family in FAMILIES if family[2] in ((2, 2), (3, 5), (8, 8))] + [
        (kind, {"count": 4}, (4, 4), 3) for kind in ("random", "junk-embedded")]
    devices = [device for kind, parameters, dims, seed in families
               for _, device in family_points(FamilySpec(kind, parameters, dims, seed, mode))]
    devices.append(degenerate_device(mode))
    assert len(devices) == 47
    rng = np.random.default_rng(16)
    names = [spec.name for spec in get_mode(mode).rows]
    worst = 0.0
    for index, device in enumerate(devices):
        changed = (rotated(device, rng) if transform == "unitaries"
                   else with_junk(device, rng) if transform == "junk"
                   else padded(device, transform[4:]))
        values, flags, strict = verdict(device, mode)
        changed_values, changed_flags, changed_strict = verdict(changed, mode)
        assert changed_flags == flags, index
        worst = max([worst] + [moved(a, b) for a, b in zip(values, changed_values)])
        if values[0] > TIGHT_EPSILON:
            flipped = {(mode, name) for name, a, b in zip(names, strict, changed_strict)
                       if a != b}
            assert flipped <= IDENTITY_TIGHT, (index, flipped)
    assert worst <= LOCAL_TOL
