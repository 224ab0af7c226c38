"""Seeded input generator for the benchmark workloads.

Every input is built here with the benchmark's own numpy code, never with the
library's device families, so the library under test receives only files:
device documents (schema version 1) and family specs.  The same seed gives
byte-identical files; floats are written with ``json``'s shortest round-trip
repr, so a loaded document holds exactly the generated values.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SQRT2 = np.sqrt(2.0)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
DIAG_PLUS = (PAULI_X + PAULI_Z) / SQRT2
DIAG_MINUS = (PAULI_X - PAULI_Z) / SQRT2
PHI_PLUS = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex) / SQRT2

# Ideal qubit observables per mode: (Alice's, Bob's).
MODE_OBSERVABLES = {
    "chsh": ({"A0": PAULI_X, "A1": PAULI_Z}, {"B0": DIAG_PLUS, "B1": DIAG_MINUS}),
    "my": (
        {"XA": PAULI_X, "ZA": PAULI_Z},
        {"XB": PAULI_X, "ZB": PAULI_Z, "DB": DIAG_PLUS},
    ),
}
MODES = tuple(MODE_OBSERVABLES)

SEARCH_EPSILON_CEILING = 0.05
SEARCH_DIMS = "4,4"
SEARCH_BUDGET = 500
SWEEP_POINTS = 200


def workload_rng(seed: int, workload: str) -> np.random.Generator:
    """One independent stream per (seed, workload)."""
    tag = int.from_bytes(workload.encode("utf-8"), "little") % (1 << 63)
    return np.random.default_rng((int(seed) & 0xFFFFFFFFFFFFFFFF, tag))


def _hermitize(m: np.ndarray) -> np.ndarray:
    return (m + m.conj().T) / 2.0


def _haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    phases = np.diag(r) / np.abs(np.diag(r))
    return q * phases


def _unit_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def _random_observable(rng: np.random.Generator, dim: int) -> np.ndarray:
    """U diag(+/-1) U^dagger with both signs present."""
    signs = np.ones(dim)
    signs[: int(rng.integers(1, dim))] = -1.0
    u = _haar_unitary(rng, dim)
    return _hermitize((u * rng.permutation(signs)) @ u.conj().T)


def _rotated(rng: np.random.Generator, obs: np.ndarray, eta: float) -> np.ndarray:
    """obs conjugated by exp(i*eta*H) for a random unit-radius Hermitian H."""
    dim = obs.shape[0]
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    w, v = np.linalg.eigh(_hermitize(g))
    w = w / np.max(np.abs(w))
    u = (v * np.exp(1j * eta * w)) @ v.conj().T
    return _hermitize(u @ obs @ u.conj().T)


def junk_embedded(rng, dims, noise=0.0):
    """Singlet on the qubit factors tensored with random ancilla junk.

    Each party's register is (qubit, ancilla) with the qubit major, so an
    observable is qubit_op (x) I.  ``noise`` > 0 rotates every observable by
    a random angle of at most ``noise`` and tilts the state by ``noise``
    along a random direction, which keeps the device near-ideal.
    """
    da, db = dims
    anc_a = _unit_vector(rng, da // 2)
    anc_b = _unit_vector(rng, db // 2)
    state = np.einsum("ik,a,b->iakb", PHI_PLUS, anc_a, anc_b).reshape(-1)
    if noise:
        state = state + noise * _unit_vector(rng, da * db)
        state /= np.linalg.norm(state)

    def embed(qubit_op, anc_dim):
        op = np.kron(qubit_op, np.eye(anc_dim, dtype=complex))
        return _rotated(rng, op, noise * rng.random()) if noise else op

    observables = {}
    for mode, (alice, bob) in MODE_OBSERVABLES.items():
        observables[mode] = (
            {k: embed(v, da // 2) for k, v in alice.items()},
            {k: embed(v, db // 2) for k, v in bob.items()},
        )
    return state, observables


def haar_random(rng, dims):
    """Haar-random state with independent random +/-1 observables."""
    da, db = dims
    state = _unit_vector(rng, da * db)
    observables = {}
    for mode, (alice, bob) in MODE_OBSERVABLES.items():
        observables[mode] = (
            {k: _random_observable(rng, da) for k in alice},
            {k: _random_observable(rng, db) for k in bob},
        )
    return state, observables


def _pairs(values) -> list:
    return [[float(z.real), float(z.imag)] for z in np.asarray(values).reshape(-1)]


def device_document(dims, state, alice, bob, metadata) -> dict:
    def matrix(m):
        return [_pairs(row) for row in m]

    return {
        "schemaVersion": "1",
        "dims": [int(dims[0]), int(dims[1])],
        "state": _pairs(state),
        "observables": {
            "alice": {k: matrix(v) for k, v in alice.items()},
            "bob": {k: matrix(v) for k, v in bob.items()},
        },
        "metadata": metadata,
    }


def _write(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
    return path


def write_devices(directory: Path, rng, devices) -> list[tuple[Path, str]]:
    """One document per (device, mode); returns (path, mode) in call order."""
    out = []
    for label, dims, build in devices:
        state, observables = build(rng, dims)
        for mode in MODES:
            alice, bob = observables[mode]
            doc = device_document(dims, state, alice, bob, {"generator": label, "mode": mode})
            name = f"{label}-{dims[0]}x{dims[1]}-{mode}.json"
            out.append((_write(directory / name, doc), mode))
    return out


def certify_d32_devices():
    return [
        ("junk-embedded", (32, 32), junk_embedded),
        ("haar", (32, 32), haar_random),
    ]


def degenerate(rng, dims):
    """Ideal observables on a product state with Alice's qubit in |1>.

    |1> is the -1 eigenvector of Z, so (I + Z'_A)|psi'> = 0: the junk
    candidate has norm 0 and certify takes its degenerate branch.
    """
    da, db = dims
    alice = np.kron(np.array([0.0, 1.0], dtype=complex), _unit_vector(rng, da // 2))
    state = np.kron(alice, _unit_vector(rng, db))
    return state, junk_embedded(rng, dims)[1]


def certify_small_devices():
    devices = []
    for d in (2, 4, 8):
        for i in range(2):
            devices.append((f"near-ideal{i}", (d, d), _near_ideal))
            devices.append((f"haar{i}", (d, d), haar_random))
        devices.append(("degenerate", (d, d), degenerate))
    return devices


def _near_ideal(rng, dims):
    return junk_embedded(rng, dims, noise=10.0 ** rng.uniform(-4.0, -2.0))


def sweep_specs(rng) -> list[dict]:
    seeds = rng.integers(0, 1 << 31, size=2)
    return [
        {"kind": "measurement-noise", "parameters": {"eta": [0.0, 0.5, SWEEP_POINTS]},
         "dims": [2, 2], "seed": int(seeds[0]), "mode": "chsh"},
        {"kind": "random", "parameters": {"count": SWEEP_POINTS},
         "dims": [8, 8], "seed": int(seeds[1]), "mode": "my"},
    ]


def search_seeds(rng) -> list[int]:
    return [int(s) for s in rng.integers(0, 1 << 31, size=len(MODES))]


@dataclass(frozen=True)
class Call:
    """One CLI call of a pass: ``argv`` plus ``--out <dir>/<out>``.

    ``outputs`` names every file the call writes, relative to the output
    directory; ``units`` is the work it completes in the workload's unit.
    """

    argv: tuple[str, ...]
    out: str
    outputs: tuple[str, ...]
    units: int

    def command(self, out_dir: Path) -> list[str]:
        return [*self.argv, "--out", str(Path(out_dir) / self.out)]


def generate(workload: str, seed: int, directory: Path) -> list[Call]:
    """Write the workload's input files into ``directory``; return one pass."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    rng = workload_rng(seed, workload)
    calls = []
    if workload in ("certify-d32", "certify-small"):
        devices = certify_d32_devices() if workload == "certify-d32" else certify_small_devices()
        for path, mode in write_devices(directory, rng, devices):
            out = path.stem + ".report.json"
            calls.append(Call(("certify", "--device", str(path), "--mode", mode),
                              out, (out,), 1))
    elif workload == "search-d4":
        for mode, search_seed in zip(MODES, search_seeds(rng)):
            out = f"search-{mode}.json"
            calls.append(Call(("search", "--mode", mode,
                               "--epsilon-ceiling", str(SEARCH_EPSILON_CEILING),
                               "--dims", SEARCH_DIMS, "--budget", str(SEARCH_BUDGET),
                               "--seed", str(search_seed)),
                              out, (out, out + ".report.json"), SEARCH_BUDGET))
    elif workload == "sweep-threads":
        for spec in sweep_specs(rng):
            path = _write(directory / f"family-{spec['kind']}.json", spec)
            out = path.stem + ".csv"
            calls.append(Call(("sweep", "--family", str(path)), out, (out,), SWEEP_POINTS))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return calls
