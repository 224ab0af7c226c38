"""Reference formulas on kron-embedded d^2 x d^2 operators.

Each quantity is written literally as a product of ``tensor_embed`` matrices
(``np.kron`` with an identity) acting on the flat state vector, O(d^6) for
local dims d.  The library computes the same quantities on the (dA, dB) state
matrix, and the correlations in one reused embedding buffer; these slow,
direct forms are the oracle the tests compare it against.
"""

from __future__ import annotations

import numpy as np

from helpers import require_square
from singlet_selftest.derive import DerivedOperators
from singlet_selftest.device import DeviceStack

SQRT2 = float(np.sqrt(2.0))


def tensor_embed(op: np.ndarray, party: str, dims: tuple[int, int]) -> np.ndarray:
    """Embed a single-party operator into the bipartite space.

    ``party`` is ``"A"`` (giving op (x) I) or ``"B"`` (giving I (x) op), with
    Alice's factor first.  Embeddings for opposite parties commute exactly,
    which is what realizes commuting local measurements.
    """
    op = require_square(op)
    da, db = int(dims[0]), int(dims[1])
    if da < 1 or db < 1:
        raise ValueError(f"dims must be positive, got {dims}")
    if party == "A":
        if op.shape[0] != da:
            raise ValueError(f"operator dim {op.shape[0]} does not match dA={da}")
        return np.kron(op, np.eye(db, dtype=complex))
    if party == "B":
        if op.shape[0] != db:
            raise ValueError(f"operator dim {op.shape[0]} does not match dB={db}")
        return np.kron(np.eye(da, dtype=complex), op)
    raise ValueError(f"party must be 'A' or 'B', got {party!r}")


def _vnorm(op: np.ndarray, psi: np.ndarray) -> float:
    return float(np.linalg.norm(op @ psi))


def condition_residuals(state: np.ndarray, ops: DerivedOperators) -> dict[str, float]:
    dims = (ops.xa.shape[-1], ops.xb.shape[-1])
    psi = np.asarray(state, dtype=complex).reshape(-1)
    xa = tensor_embed(ops.xa, "A", dims)
    za = tensor_embed(ops.za, "A", dims)
    xb = tensor_embed(ops.xb, "B", dims)
    zb = tensor_embed(ops.zb, "B", dims)
    return {
        "anticomm_a": _vnorm(xa @ za + za @ xa, psi),
        "anticomm_b": _vnorm(xb @ zb + zb @ xb, psi),
        "diff_x": _vnorm(xa - xb, psi),
        "diff_z": _vnorm(za - zb, psi),
    }


def chsh_diagnostics(device: DeviceStack, ops: DerivedOperators) -> dict[str, float]:
    dims = device.dims
    psi = device.state[0]
    a0 = tensor_embed(device.alice_obs["A0"][0], "A", dims)
    a1 = tensor_embed(device.alice_obs["A1"][0], "A", dims)
    b0 = tensor_embed(device.bob_obs["B0"][0], "B", dims)
    b1 = tensor_embed(device.bob_obs["B1"][0], "B", dims)
    xb = tensor_embed(ops.xb, "B", dims)
    comm_a = a0 @ a1 - a1 @ a0
    comm_b = b1 @ b0 - b0 @ b1
    bsum = (b0 + b1) / SQRT2
    return {
        "commutator_product": float(np.vdot(psi, comm_a @ (comm_b @ psi)).real),
        "norm_a0a1_plus_b1b0": _vnorm(a0 @ a1 + b1 @ b0, psi),
        "norm_a0a1_minus_b0b1": _vnorm(a0 @ a1 - b0 @ b1, psi),
        "norm_a1a0_minus_b1b0": _vnorm(a1 @ a0 - b1 @ b0, psi),
        "norm_a1a0_plus_b0b1": _vnorm(a1 @ a0 + b0 @ b1, psi),
        "anticomm_a_raw": _vnorm(a0 @ a1 + a1 @ a0, psi),
        "anticomm_b_raw": _vnorm(b0 @ b1 + b1 @ b0, psi),
        "xa_bsum_overlap": float(np.vdot(psi, a0 @ ((b0 + b1) @ psi)).real),
        "norm_xa_minus_bsum": _vnorm(a0 - bsum, psi),
        "norm_xb_minus_bsum": _vnorm(xb - bsum, psi),
    }


def my_diagnostics(device: DeviceStack) -> dict[str, float]:
    dims = device.dims
    psi = device.state[0]
    xa = tensor_embed(device.alice_obs["XA"][0], "A", dims)
    za = tensor_embed(device.alice_obs["ZA"][0], "A", dims)
    xb = tensor_embed(device.bob_obs["XB"][0], "B", dims)
    zb = tensor_embed(device.bob_obs["ZB"][0], "B", dims)
    db = tensor_embed(device.bob_obs["DB"][0], "B", dims)
    sum_xz = (xa + za) / SQRT2
    return {
        "sum_xz_norm": _vnorm(sum_xz, psi),
        "db_vs_sum_xz": _vnorm(db - sum_xz, psi),
        "anticomm_alice": _vnorm(xa @ za + za @ xa, psi),
        "cross_za_xa": _vnorm(za @ xa - xb @ zb, psi),
        "cross_xa_za": _vnorm(xa @ za - zb @ xb, psi),
        "anticomm_bob": _vnorm(xb @ zb + zb @ xb, psi),
    }


def z_expectations(device: DeviceStack, ops: DerivedOperators) -> tuple[float, float]:
    za = tensor_embed(ops.za, "A", device.dims)
    zb = tensor_embed(ops.zb, "B", device.dims)
    return (
        abs(float(np.vdot(device.state[0], za @ device.state[0]).real)),
        abs(float(np.vdot(device.state[0], zb @ device.state[0]).real)),
    )


def correlation(device: DeviceStack, alice_name: str, bob_name: str) -> float:
    ma = tensor_embed(device.alice_obs[alice_name][0], "A", device.dims)
    nb = tensor_embed(device.bob_obs[bob_name][0], "B", device.dims)
    return float(np.vdot(device.state[0], ma @ (nb @ device.state[0])).real)
