"""Conveniences the tests use and the certify, sweep and search pipeline does not.

Each is a thin wrapper over the library: a single-pair correlation, the CHSH
value and Mayers-Yao deviation of a device, the former by-name deviations
and kron-form Mayers-Yao ideal that the stacked ones must equal bit for bit,
the first device's observables and derived operators out of a stack's, a
Hermiticity-checked eigendecomposition, the operator absolute value and
unitarity deviation, a family's points and device list, a stack of given devices, writing a device
document, a device's chain diagnostics as the n = 1 stack, a report's rows of
one category, a device's sweep record read off its certify report, a
``random`` family point built alone, drawing and normalizing one number at a
time, which the family's chunks must reproduce bit for bit, the
one-observable-at-a-time search proposal that the search's rotation table
must reproduce bit for bit, a spy on the stacks of proposals a search
checks, and the two ways the tests run the command line: ``cli.main`` in
this process, and a child interpreter as the installed ``singlet-selftest``
script runs it.
"""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
import tempfile
import threading
from collections.abc import Callable, Iterator
from pathlib import Path

import numpy as np

from singlet_selftest.bounds import (
    CertificationReport,
    ReportRow,
    certify,
    extraction_bound,
    get_mode,
)
from singlet_selftest.device import (
    CHSH_PAIRS,
    MY_PAIRS,
    TSIRELSON,
    DeviceStack,
    chsh_epsilon,
    correlation_stack,
    make_device,
    my_epsilon,
)
from singlet_selftest import bounds, explorer
from singlet_selftest.cli import main
from singlet_selftest.derive import DerivedOperators
from singlet_selftest.documents import device_to_document, write_json_atomic
from singlet_selftest.explorer import FamilySpec, SweepRecord, family_axis, family_chunks
from singlet_selftest.linalg import (
    DIAG_XZ,
    PAULI_X,
    PAULI_Z,
    PHI_PLUS,
    dagger,
    hermiticity_deviation,
)

HERMITIAN_ATOL = 1e-10
SRC = Path(__file__).resolve().parent.parent / "src"
CHILD_TIMEOUT_S = 120.0


def run_in_process(argv: list[str]) -> tuple[int, str, str]:
    """``cli.main(argv)`` in this process: its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def spawn_cli(argv: list[str]) -> tuple[int, str, str, float]:
    """``python -m singlet_selftest.cli *argv`` in a child process, as the installed
    ``singlet-selftest`` script runs ``cli.main``, killed after ``CHILD_TIMEOUT_S``:
    its exit code, stdout, stderr and peak RSS in MB.  The peak is this child's,
    from ``os.wait4``; ``RUSAGE_CHILDREN`` is the largest of every child reaped."""
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        child = subprocess.Popen([sys.executable, "-m", "singlet_selftest.cli", *argv],
                                 stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                 env={**os.environ, "PYTHONPATH": path})
        timer = threading.Timer(CHILD_TIMEOUT_S, child.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(child.pid, 0)
        finally:
            timer.cancel()
        # Popen must not wait on the pid wait4 reaped.
        child.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return child.returncode, out.read().decode(), err.read().decode(), usage.ru_maxrss / 1024


# The two ways to run the command line, each giving exit code, stdout and stderr.
RUNNERS = {"in-process": run_in_process, "child": lambda argv: spawn_cli(argv)[:3]}


def each_runner(tmp_path: Path) -> Iterator[tuple[Callable, Path]]:
    """Each of ``RUNNERS`` with a new directory of its own under ``tmp_path``, so
    no run's checks read the files another run wrote."""
    for name, run in RUNNERS.items():
        (tmp_path / name).mkdir()
        yield run, tmp_path / name


def require_square(m: np.ndarray) -> np.ndarray:
    """``m`` as a complex array; ``ValueError`` unless it is a nonempty square matrix."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def correlation(device: DeviceStack, alice_name: str, bob_name: str) -> float:
    """Expectation value <psi| (M_A x I)(I x N_B) |psi> for one named pair."""
    return float(correlation_stack(device, ((alice_name, bob_name),))[0, 0])


def chsh_value(device: DeviceStack) -> tuple[float, float]:
    """CHSH value of a device and its deficit from 2*sqrt(2); see ``chsh_epsilon``."""
    value, eps = chsh_epsilon(correlation_stack(device, CHSH_PAIRS))
    return float(value[0]), float(eps[0])


def my_deviation(device: DeviceStack) -> tuple[dict[tuple[str, str], float], float]:
    """All six Mayers-Yao correlations of a device and the worst deviation from ideal."""
    values = correlation_stack(device, MY_PAIRS)
    return dict(zip(MY_PAIRS, values[0].tolist())), float(my_epsilon(values)[1][0])


def ideal_pair_value(alice_name: str, bob_name: str) -> float:
    """The maximally entangled pair's correlation of two named qubit operators,
    <phi+| kron(M, N) |phi+>, the library's definition of the Mayers-Yao ideal
    before ``device.MY_IDEAL`` became the canonical device's own correlations."""
    ops = {"XA": PAULI_X, "ZA": PAULI_Z, "XB": PAULI_X, "ZB": PAULI_Z, "DB": DIAG_XZ}
    full = np.kron(ops[alice_name], ops[bob_name])
    return float(np.vdot(PHI_PLUS, full @ PHI_PLUS).real)


MY_IDEAL_BY_PAIR = {pair: ideal_pair_value(*pair) for pair in MY_PAIRS}


def chsh_deviation_by_name(values: dict[tuple[str, str], float]) -> tuple[float, float]:
    """The library's former CHSH deviation of one device, read by pair name:
    ``(value, max(0, 2*sqrt(2) - value))``, the reference ``chsh_epsilon`` on
    an array must equal bit for bit."""
    value = (
        values[("A0", "B0")]
        + values[("A0", "B1")]
        + values[("A1", "B0")]
        - values[("A1", "B1")]
    )
    return value, max(0.0, float(TSIRELSON - value))


def my_deviation_by_name(values: dict[tuple[str, str], float]) -> tuple[None, float]:
    """The library's former Mayers-Yao deviation of one device, read by pair
    name against the kron-form ideal: ``(None, max |measured - ideal|)``."""
    epsilon = 0.0
    for pair in MY_PAIRS:
        epsilon = max(epsilon, abs(values[pair] - MY_IDEAL_BY_PAIR[pair]))
    return None, epsilon


def first_observables(observables: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """The (d, d) observables of the first device of a stack's, by name."""
    return {name: m[0] for name, m in observables.items()}


def first_operators(ops: DerivedOperators) -> DerivedOperators:
    """The (d, d) operators of the first device of a stack's operators."""
    return DerivedOperators(ops.xa[0], ops.za[0], ops.xb[0], ops.zb[0])


def hermitian_eig(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(eigenvalues, eigenvectors)`` with eigenvalues real and ascending
    and eigenvectors as the columns of a unitary matrix, so that
    ``M = V diag(w) V^dagger``.  Raises ``ValueError`` (naming the deviation)
    for input further than ``HERMITIAN_ATOL`` from Hermitian.
    """
    m = require_square(m)
    dev = hermiticity_deviation(m)
    if dev > HERMITIAN_ATOL:
        raise ValueError(
            f"matrix is not Hermitian: max deviation {dev:.3e} > {HERMITIAN_ATOL:.1e}"
        )
    return np.linalg.eigh(m)


def operator_abs(m: np.ndarray) -> np.ndarray:
    """Operator absolute value |M| = V diag(|w|) V^dagger of a Hermitian matrix."""
    w, v = hermitian_eig(m)
    return (v * np.abs(w)) @ dagger(v)


def unitarity_deviation(m: np.ndarray) -> float:
    """Largest entrywise deviation of M M^dagger from the identity."""
    return float(np.max(np.abs(m @ dagger(m) - np.eye(m.shape[0]))))


def family_points(spec: FamilySpec) -> Iterator[tuple[dict, DeviceStack]]:
    """The family's (parameters, device) points in sweep order, built a chunk at a
    time; each device is the n = 1 stack."""
    name, _ = family_axis(spec)
    for values, stack in family_chunks(spec):
        for index, value in enumerate(values):
            yield {name: value}, stack.select(slice(index, index + 1))


def stack_devices(devices: list[DeviceStack]) -> DeviceStack:
    """n = 1 stacks of one dims, naming the same observables, as one stack."""
    first = devices[0]

    def stacked(party: str) -> dict[str, np.ndarray]:
        return {name: np.concatenate([getattr(device, party)[name] for device in devices])
                for name in getattr(first, party)}

    return DeviceStack(first.dims, np.concatenate([device.state for device in devices]),
                       stacked("alice_obs"), stacked("bob_obs"))


def make_family(spec: FamilySpec) -> list[DeviceStack]:
    """The family's device sequence; deterministic for identical specs."""
    return [device for _, device in family_points(spec)]


def save_device(path: str | Path, device: DeviceStack, metadata: dict | None = None) -> None:
    write_json_atomic(path, device_to_document(device, metadata))


def device_diagnostics(device: DeviceStack, diagnostics, derive) -> dict[str, float]:
    """``diagnostics`` (``chsh_diagnostics`` or ``my_diagnostics``) of one
    device, run as the n = 1 stack with the operators ``derive`` gives it."""
    columns = diagnostics(device, device.state.reshape(1, *device.dims), derive(device))
    return {name: float(column[0]) for name, column in columns.items()}


def rows_by_category(report: CertificationReport, category: str) -> list[ReportRow]:
    return [row for row in report.rows if row.category == category]


def certified_record(device: DeviceStack, mode: str) -> SweepRecord:
    """The sweep record of one device, read off its ``certify`` report: the
    deviation, the measured residual budgets, and the largest of the nine
    extraction errors (NaN when the junk candidate is degenerate)."""
    report = certify(device, mode)
    residuals = report.residuals
    bound = extraction_bound(residuals.eps1, residuals.eps2)
    max_error = (float("nan") if report.degenerate else
                 max(row.measured for row in rows_by_category(report, "extraction")))
    return SweepRecord(report.epsilon, residuals.eps1, residuals.eps2, max_error, bound,
                       bound - max_error, report.degenerate)


def random_point_oracle(spec: FamilySpec, index: int) -> DeviceStack:
    """Point ``index`` of a ``random`` family, built alone from its own
    generator, seeded with ``(spec.seed, index)``: a complex Gaussian state,
    normalized by ``np.linalg.norm``, then per observable, Alice's then
    Bob's in name order, signs redrawn until both occur (for a dim above 1)
    and a complex Gaussian matrix, real parts before imaginary ones in each
    draw."""
    rng = np.random.default_rng((spec.seed, index))
    da, db = spec.dims
    real, imag = rng.normal(size=(2, da * db))
    state = real + 1j * imag
    state = state / np.linalg.norm(state)
    base = get_mode(spec.mode).canonical()
    parties = []
    for names, dim in ((base.alice_obs, da), (base.bob_obs, db)):
        observables = {}
        for name in names:
            while True:
                signs = np.where(rng.random(dim) < 0.5, 1.0, -1.0)
                if signs.min() < signs.max() or dim == 1:
                    break
            real, imag = rng.normal(size=(2, dim, dim))
            observables[name] = explorer._random_observables(signs, real + 1j * imag)
        parties.append(observables)
    return make_device(spec.dims, state, *parties)


def search_proposal_oracle(
    base: DeviceStack,
    dims: tuple[int, int],
    qubit_state: np.ndarray,
    state_dirs: np.ndarray,
    generators: dict[str, np.ndarray],
    params: np.ndarray,
) -> DeviceStack:
    """A search proposal built one observable at a time, each generator
    decomposed per call: two state-noise coordinates, then one rotation
    angle per observable, Alice's then Bob's."""
    da, db = dims

    def extend(obs: np.ndarray, dim: int) -> np.ndarray:
        out = np.eye(dim, dtype=complex)
        out[:2, :2] = obs
        return out

    def rotate(obs: np.ndarray, h: np.ndarray, eta: float) -> np.ndarray:
        w, v = np.linalg.eigh(h)
        u = (v * np.exp(1j * eta * w)[..., None, :]) @ dagger(v)
        rotated = u @ obs @ dagger(u)
        return (rotated + dagger(rotated)) / 2.0

    state = qubit_state + params[0] * state_dirs[0] + params[1] * state_dirs[1]
    state /= np.linalg.norm(state)
    alice, bob = {}, {}
    for i, name in enumerate(list(base.alice_obs) + list(base.bob_obs)):
        angle = float(params[2 + i])
        if name in base.alice_obs:
            alice[name] = rotate(extend(base.alice_obs[name][0], da), generators[name], angle)
        else:
            bob[name] = rotate(extend(base.bob_obs[name][0], db), generators[name], angle)
    return make_device(dims, state, alice, bob)


class SearchSpy:
    """What ``worst_case_search`` checks, stack by stack of proposals.

    Each call of ``explorer.validate_stack`` opens a batch holding the
    stack's states (as bytes) and violations; the states that
    ``bounds.correlation_stack`` then sees, and the rows that reach
    ``explorer._evaluate_stack`` with whether each was degenerate, go to the
    open batch.  Install it after any other patch of those names, so it sees
    what the search sees.
    """

    def __init__(self, monkeypatch):
        self.batches: list[dict] = []
        validate_stack = explorer.validate_stack
        correlation_stack = bounds.correlation_stack
        evaluate_stack = explorer._evaluate_stack

        def validating(stack):
            violations = validate_stack(stack)
            self.batches.append({"states": [row.tobytes() for row in stack.state],
                                 "violations": violations, "correlated": [], "staged": []})
            return violations

        def correlating(stack, pairs):
            self.batches[-1]["correlated"] += [row.tobytes() for row in stack.state]
            return correlation_stack(stack, pairs)

        def evaluating(stack, mode, epsilons):
            records = evaluate_stack(stack, mode, epsilons)
            self.batches[-1]["staged"].append((stack.state[0].tobytes(), records[0].degenerate))
            return records

        monkeypatch.setattr(explorer, "validate_stack", validating)
        monkeypatch.setattr(bounds, "correlation_stack", correlating)
        monkeypatch.setattr(explorer, "_evaluate_stack", evaluating)

    def reached(self) -> Iterator[tuple[dict, int]]:
        """Each batch with the number of its rows the chain checked: those up
        to its first row that reached the stages and was not degenerate, or
        all of them."""
        for batch in self.batches:
            feasible = [state for state, degenerate in batch["staged"] if not degenerate]
            yield batch, (batch["states"].index(feasible[0]) + 1 if feasible
                          else len(batch["states"]))
