"""Closed-form expansion of the extraction circuit, the oracle for ``apply_isometry``.

The library runs the circuit gate by gate; this four-term sum is the same map
written algebraically, and the tests compare the two.
"""

from __future__ import annotations

import numpy as np

from singlet_selftest.derive import DerivedOperators
from singlet_selftest.device import DeviceModel
from singlet_selftest.isometry import _input_matrix


def isometry_expansion(device: DeviceModel, ops: DerivedOperators) -> np.ndarray:
    """Closed-form four-term expansion of the circuit output on |psi'>.

    Computes (1/4) * sum over ancilla bits (c, d) of
    X'_A^c X'_B^d (I + (-1)^c Z'_A)(I + (-1)^d Z'_B)|psi'> placed at |cd>,
    independently of the gate-by-gate circuit path; used as the algebraic
    cross-check of ``apply_isometry``.
    """
    da, db = device.dims
    psi = _input_matrix(device, ops, "I", "I")
    ia = np.eye(da, dtype=complex)
    ib = np.eye(db, dtype=complex)
    out = np.zeros((da, db, 2, 2), dtype=complex)
    for c in (0, 1):
        for d in (0, 1):
            term = (ia + (-1) ** c * ops.za) @ psi @ (ib + (-1) ** d * ops.zb).T
            if c:
                term = ops.xa @ term
            if d:
                term = term @ ops.xb.T
            out[:, :, c, d] = term / 4.0
    return out.reshape(da * db * 4)
