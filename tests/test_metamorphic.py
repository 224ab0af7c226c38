"""Verdicts that a transformation preserving the self-test's premises cannot change.

The paper's claim is that local bases exist in which the state is close to an
EPR pair; its premises and its conclusion are unchanged by complex
conjugation of the state and of every observable.  Every report value is
real, and conjugating the inputs only flips the sign of each imaginary part
the arithmetic meets, which IEEE rounding mirrors exactly, so the conjugate
device's report must equal the device's byte for byte, with no tolerance.
No oracle is needed.
"""

from __future__ import annotations

import numpy as np
import pytest

from helpers import family_points
from singlet_selftest.bounds import certify
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
