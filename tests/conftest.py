from __future__ import annotations

import math

import numpy as np
import pytest

from singlet_selftest.device import canonical_chsh_device, canonical_my_device, make_device
from singlet_selftest.linalg import DIAG_XZ, PAULI_X, PAULI_Z


@pytest.fixture
def chsh_device():
    return canonical_chsh_device()


@pytest.fixture
def my_device():
    return canonical_my_device()


def tilted_device(theta: float):
    """cos(theta)|00> + sin(theta)|11> with the canonical CHSH measurements."""
    state = np.zeros(4, dtype=complex)
    state[0] = math.cos(theta)
    state[3] = math.sin(theta)
    return make_device(
        (2, 2),
        state,
        {"A0": PAULI_X, "A1": PAULI_Z},
        {"B0": DIAG_XZ, "B1": (PAULI_X - PAULI_Z) / math.sqrt(2.0)},
    )


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases
