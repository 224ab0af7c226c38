"""Device-family generators, parameter sweeps, and worst-case search.

Families perturb the canonical devices in controlled ways (state tilt, state
noise, measurement rotation, junk embedding, or fully random construction) so
that bound tightness can be charted empirically.  Generation is deterministic:
every family point owns an RNG stream keyed by (seed, point index), so a point
does not depend on which points were generated before it.

A sweep builds and evaluates its points in chunks of at most
``CHUNK_ELEMENTS`` // (40 dA dB) devices, which share dims.  Each point still
draws its own numbers, in its own order; the linear algebra after the draws
(QR, eigendecompositions, matrix products), validation, the correlations,
operator derivation, residuals and the extraction circuit run once per chunk
on the stacked devices.  The epsilon^(1/4) budgets amplify a last-bit change
in the deviation epsilon, so ``device.correlation_stack`` keeps each
device's embedded floating-point form, bit for bit.  Sweep and search share
one path: epsilon from the correlations first, then the stages on the stack.
A search builds, validates and takes epsilon of its proposals as speculative
stacks, and runs the stages on one proposal at a time, as the n = 1 stack,
and only if its epsilon is within the ceiling; its rotation generators are
decomposed once per search, and a stack of proposals rotates each party's
observables in one pass.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .bounds import extraction_bound, get_mode
from .derive import residual_stack
from .device import (
    DeviceModel,
    DeviceStack,
    correlation_stack,
    validate_stack,
)
from .isometry import OPERATOR_PAIRS, extraction_stack
from .linalg import PHI_PLUS, dagger

# Family kind -> the name of its one sweep axis.
FAMILY_AXES = {"tilted": "theta", "state-noise": "p", "measurement-noise": "eta",
               "junk-embedded": "count", "random": "count"}

MEASUREMENT_NOISE_CAP = 0.5  # keeps perturbed devices inside the small-deviation regime

# Most points one sweep may have (a count or range steps): 500 times the
# 200-point sweeps of the benchmark, far below what exhausts memory.
MAX_SWEEP_POINTS = 100_000

# Budget, in complex entries, on the largest array a sweep stacks over a
# chunk: the extraction circuit's state, 4 ancilla amplitudes x 10 inputs x
# dA*dB entries per device.  A chunk holds CHUNK_ELEMENTS // (40 dA dB)
# devices, at least one.
CHUNK_ELEMENTS = 20_480


@dataclass(frozen=True)
class FamilySpec:
    """Deterministic description of a device family.

    ``parameters`` maps the kind's one axis (``FAMILY_AXES``) to a number
    or to a ``(start, stop, steps)`` range (also accepted as a mapping with
    those keys); a "count" axis takes an integer.  ``mode`` selects which
    canonical observable set the family perturbs.
    """

    kind: str
    parameters: dict = field(default_factory=dict)
    dims: tuple[int, int] = (2, 2)
    seed: int = 0
    mode: str = "chsh"


@dataclass(frozen=True)
class SweepRecord:
    """Certification summary for one family point."""

    epsilon: float
    eps1_measured: float
    eps2_measured: float
    max_extraction_error: float
    extraction_bound: float
    slack: float
    degenerate: bool = False


@dataclass(frozen=True)
class SearchResult:
    """The best feasible device of a search, and how its evaluations ended:
    ``feasible``, or rejected as ``invalid`` (failed validation),
    ``over_ceiling`` (epsilon) or ``degenerate`` (extraction), checked in
    that order; the four counts sum to ``evaluations``.  A degenerate
    proposal over the ceiling counts as ``over_ceiling``."""

    found: bool
    device: DeviceModel | None
    record: SweepRecord | None
    evaluations: int
    feasible: int = 0
    invalid: int = 0
    degenerate: int = 0
    over_ceiling: int = 0


def _point_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng((int(seed), int(index)))


def _complex_normal(rng: np.random.Generator, *shape: int) -> np.ndarray:
    """Real parts, then imaginary parts, drawn from ``rng`` in one call."""
    real, imag = rng.normal(size=(2, *shape))
    return real + 1j * imag


def _hermitian_unit(g: np.ndarray) -> np.ndarray:
    """The Hermitian part of each matrix in ``g``, scaled to spectral radius 1."""
    h = (g + dagger(g)) / 2.0
    radius = np.max(np.abs(np.linalg.eigvalsh(h)), axis=-1)[..., None, None]
    return h / np.where(radius > 0, radius, 1.0)


def _haar_unitary(g: np.ndarray) -> np.ndarray:
    """Haar-random unitaries from the complex Gaussian matrices ``g``."""
    q, r = np.linalg.qr(g)
    diagonal = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diagonal / np.abs(diagonal))[..., None, :]


def _rotate(obs: np.ndarray, decomposition, eta) -> np.ndarray:
    """Conjugate each observable by exp(i*eta*h), re-hermitianized.

    ``decomposition`` is ``np.linalg.eigh(h)``, computed once by a caller that
    rotates by the same h many times.  ``eta`` is a number, or an array that
    broadcasts against the eigenvalue axis (shape (..., 1)).
    """
    w, v = decomposition
    u = (v * np.exp(1j * eta * w)[..., None, :]) @ dagger(v)
    rotated = u @ obs @ dagger(u)
    return (rotated + dagger(rotated)) / 2.0


def _orthogonal_noise(rng: np.random.Generator, base: np.ndarray) -> np.ndarray:
    """Seeded random unit vector orthogonal to ``base``."""
    dim = base.shape[0]
    for _ in range(16):
        e = _complex_normal(rng, dim)
        e -= np.vdot(base, e) * base
        nrm = float(np.linalg.norm(e))
        if nrm > 1e-8:
            return e / nrm
    raise RuntimeError("failed to draw a noise direction")  # pragma: no cover


def _observable_draws(rng: np.random.Generator, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Signs with at least one +1 and one -1 (for dim > 1), then a Gaussian matrix."""
    while True:
        signs = np.where(rng.random(dim) < 0.5, 1.0, -1.0)
        if len(set(signs)) == 2 or dim == 1:
            break
    return signs, _complex_normal(rng, dim, dim)


def _random_observables(signs: np.ndarray, g: np.ndarray) -> np.ndarray:
    """U diag(signs) U^dagger with U the Haar unitary of ``g``, re-hermitianized."""
    u = _haar_unitary(g)
    obs = (u * signs[..., None, :]) @ dagger(u)
    return (obs + dagger(obs)) / 2.0


def _embed_party(qubit_obs: np.ndarray, anc_dim: int) -> np.ndarray:
    return np.kron(qubit_obs, np.eye(anc_dim, dtype=complex))


def _embedded_state(anc_a: np.ndarray, anc_b: np.ndarray) -> np.ndarray:
    """phi+ on the qubit pair tensored with per-party ancilla states.

    Party ordering is (qubit, ancilla) inside each side, Alice major overall.
    """
    phi = PHI_PLUS.reshape(2, 2)
    state = np.einsum("ik,a,b->iakb", phi, anc_a, anc_b)
    return state.reshape(-1)


def _finite(name: str, number: int | float) -> float:
    value = float(number)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return value


def _param_values(name: str, value) -> list[float]:
    # type(), not isinstance(): JSON true/false load as bool, an int subclass.
    if isinstance(value, dict) and set(value) == {"start", "stop", "steps"}:
        value = (value["start"], value["stop"], value["steps"])
    if type(value) in (int, float):
        return [_finite(name, value)]
    if not (isinstance(value, (tuple, list)) and len(value) == 3
            and {type(value[0]), type(value[1])} <= {int, float} and type(value[2]) is int):
        raise ValueError(f"{name} must be a number or a [start, stop, steps] range of two "
                         f"numbers and an integer, got {value!r}")
    start, stop, steps = _finite(name, value[0]), _finite(name, value[1]), value[2]
    if steps < 0:
        raise ValueError(f"range steps must be nonnegative, got {steps}")
    if steps > MAX_SWEEP_POINTS:
        raise ValueError(f"{name} range steps must be at most {MAX_SWEEP_POINTS}, got {steps}")
    if steps == 0:
        return []
    if steps == 1:
        return [start]
    return [float(x) for x in np.linspace(start, stop, steps)]


def family_axis(spec: FamilySpec) -> tuple[str, list[float]]:
    """The single sweep axis of a family: its name and point values.

    Checks the spec first: a known kind, two integer dims >= 1, a nonnegative
    integer seed, parameters naming only the kind's axis, and at most
    ``MAX_SWEEP_POINTS`` points.  Each violation raises ``ValueError`` naming
    the field, before any point value is built.
    """
    try:
        name = FAMILY_AXES[spec.kind]
    except (KeyError, TypeError):
        raise ValueError(
            f"unknown family kind {spec.kind!r}; expected one of {tuple(FAMILY_AXES)}"
        ) from None
    if len(spec.dims) != 2 or not all(type(d) is int and d >= 1 for d in spec.dims):
        raise ValueError(f"family dims must be two integers >= 1, got {spec.dims!r}")
    if type(spec.seed) is not int or spec.seed < 0:
        raise ValueError(f"family seed must be a nonnegative integer, got {spec.seed!r}")
    params = spec.parameters
    if not isinstance(params, dict) or set(params) - {name}:
        raise ValueError(f"family {spec.kind!r} parameters must be an object naming only "
                         f"{name!r}, got {params!r}")
    if name == "count":
        count = params.get(name, 1)
        if type(count) is not int:
            raise ValueError(f"count must be an integer, got {count!r}")
        if count < 0:
            raise ValueError(f"count must be nonnegative, got {count}")
        if count > MAX_SWEEP_POINTS:
            raise ValueError(f"count must be at most {MAX_SWEEP_POINTS}, got {count}")
        return name, [float(i) for i in range(count)]
    if name not in params:
        raise ValueError(f"family {spec.kind!r} requires parameter {name!r}")
    return name, _param_values(name, params[name])


def _check_kind_dims(spec: FamilySpec) -> None:
    if spec.kind in ("tilted", "state-noise", "measurement-noise") and tuple(spec.dims) != (2, 2):
        raise ValueError(f"{spec.kind} family requires dims (2, 2)")
    da, db = spec.dims
    if spec.kind == "junk-embedded" and (da % 2 or db % 2 or da < 2 or db < 2):
        raise ValueError(f"junk-embedded dims must be even and >= 2, got {spec.dims}")


def _check_value(kind: str, value: float) -> None:
    if kind == "state-noise" and not 0.0 <= value <= 1.0:
        raise ValueError(f"state-noise p must lie in [0, 1], got {value}")
    if kind == "measurement-noise" and not 0.0 <= value <= MEASUREMENT_NOISE_CAP:
        raise ValueError(
            f"measurement-noise eta must lie in [0, {MEASUREMENT_NOISE_CAP}], got {value}"
        )


def _frozen_stack(dims, state, alice: dict, bob: dict) -> DeviceStack:
    for array in (state, *alice.values(), *bob.values()):
        array.flags.writeable = False
    return DeviceStack(dims, state, alice, bob)


def _build_chunk(
    spec: FamilySpec, base: DeviceModel, values: list[float], start: int
) -> DeviceStack:
    """The devices of the family points ``start``, ``start + 1``, ... with axis
    ``values``, which ``_check_value`` has passed, as one stack.

    Point i draws from its own ``_point_rng(spec.seed, i)``, the same numbers
    in the same order whatever the chunk; the draws of a chunk then go
    through each linear-algebra step once, stacked.
    """
    n = len(values)
    if spec.kind == "tilted":
        state = np.zeros((n, 4), dtype=complex)
        state[:, 0] = [math.cos(theta) for theta in values]
        state[:, 3] = [math.sin(theta) for theta in values]
        alice, bob = _shared(base.alice_obs, n), _shared(base.bob_obs, n)
        return _frozen_stack((2, 2), state, alice, bob)
    rngs = [_point_rng(spec.seed, start + i) for i in range(n)]
    alice_names, bob_names = list(base.alice_obs), list(base.bob_obs)
    if spec.kind == "state-noise":
        states = []
        for p, rng in zip(values, rngs):
            e = _orthogonal_noise(rng, PHI_PLUS)
            state = math.sqrt(1.0 - p) * PHI_PLUS + math.sqrt(p) * e
            states.append(state / np.linalg.norm(state))
        alice, bob = _shared(base.alice_obs, n), _shared(base.bob_obs, n)
        return _frozen_stack((2, 2), np.array(states), alice, bob)
    if spec.kind == "measurement-noise":
        names = alice_names + bob_names
        # Each point draws in name order; draws[j, i] is observable j of point i.
        draws = np.array([[_complex_normal(rng, 2, 2) for _ in names] for rng in rngs])
        draws = draws.transpose(1, 0, 2, 3)
        base_obs = {**base.alice_obs, **base.bob_obs}
        obs = np.stack([base_obs[name] for name in names])[:, None]
        rotated = _rotate(obs, np.linalg.eigh(_hermitian_unit(draws)),
                          np.array(values)[:, None])
        state = np.broadcast_to(base.state, (n, 4))
        return _frozen_stack(
            (2, 2), state,
            dict(zip(alice_names, rotated[:len(alice_names)])),
            dict(zip(bob_names, rotated[len(alice_names):])),
        )
    da, db = spec.dims
    if spec.kind == "junk-embedded":
        states = []
        for rng in rngs:
            anc_a = _complex_normal(rng, da // 2)
            anc_b = _complex_normal(rng, db // 2)
            anc_a /= np.linalg.norm(anc_a)
            anc_b /= np.linalg.norm(anc_b)
            states.append(_embedded_state(anc_a, anc_b))
        alice = {k: _embed_party(v, da // 2) for k, v in base.alice_obs.items()}
        bob = {k: _embed_party(v, db // 2) for k, v in base.bob_obs.items()}
        return _frozen_stack((da, db), np.array(states), _shared(alice, n), _shared(bob, n))
    # "random", the one kind left: family_axis has checked the kind.
    states, alice_draws, bob_draws = [], [], []
    for rng in rngs:
        state = _complex_normal(rng, da * db)
        states.append(state / np.linalg.norm(state))
        alice_draws.append([_observable_draws(rng, da) for _ in alice_names])
        bob_draws.append([_observable_draws(rng, db) for _ in bob_names])

    def observables(draws, names):
        # Stacked name-major, so each name's (n, d, d) stack is contiguous.
        signs = np.array([[s for s, _ in point] for point in draws]).transpose(1, 0, 2)
        g = np.array([[g for _, g in point] for point in draws]).transpose(1, 0, 2, 3)
        return dict(zip(names, _random_observables(signs, g)))

    return _frozen_stack(
        (da, db), np.array(states),
        observables(alice_draws, alice_names), observables(bob_draws, bob_names),
    )


def _shared(observables: dict[str, np.ndarray], n: int) -> dict[str, np.ndarray]:
    """The same observables for each of n points, as read-only views."""
    return {name: np.broadcast_to(m, (n, *m.shape)) for name, m in observables.items()}


def _chunk_size(dims: tuple[int, int]) -> int:
    return max(1, CHUNK_ELEMENTS // (40 * dims[0] * dims[1]))


def family_chunks(spec: FamilySpec) -> Iterator[tuple[list[float], DeviceStack]]:
    """The family's points in sweep order, one chunk at a time: each chunk's
    axis values and the stack of its devices.

    The spec is checked when the first chunk is requested.  A chunk ends
    before the first value that ``_check_value`` rejects, and the error is
    raised when the chunk after it is requested, so a caller that checks
    each chunk's devices before asking for the next sees errors in point
    order.
    """
    name, values = family_axis(spec)
    base = get_mode(spec.mode).canonical()
    if values:
        _check_kind_dims(spec)
    size = _chunk_size(spec.dims)
    for start in range(0, len(values), size):
        chunk = values[start:start + size]
        error = None
        for i, value in enumerate(chunk):
            try:
                _check_value(spec.kind, value)
            except ValueError as err:
                chunk, error = chunk[:i], err
                break
        if chunk:
            yield chunk, _build_chunk(spec, base, chunk, start)
        if error is not None:
            raise error


def _epsilons(stack: DeviceStack, mode: str) -> list[float]:
    """The deviation epsilon of each device of a stack, from its correlations."""
    selftest = get_mode(mode)
    return [selftest.deviation(dict(zip(selftest.pairs, values)))[1]
            for values in correlation_stack(stack, selftest.pairs).tolist()]


def _evaluate_stack(stack: DeviceStack, mode: str, epsilons: list[float]) -> list[SweepRecord]:
    """The records of a stack's devices, whose deviations are ``epsilons``:
    operator derivation, residuals and the extraction circuit run once each,
    on the whole stack."""
    ops = get_mode(mode).derive(stack)
    psi = stack.state.reshape(len(stack), *stack.dims)
    extraction = extraction_stack(psi, ops)
    max_errors = extraction.distances[:, :len(OPERATOR_PAIRS)].max(axis=1).tolist()
    records = []
    for eps, residuals, max_error, degenerate in zip(
        epsilons, residual_stack(psi, ops), max_errors, extraction.degenerate.tolist()
    ):
        bound = extraction_bound(residuals.eps1, residuals.eps2)
        if degenerate:
            max_error = float("nan")
        records.append(SweepRecord(
            epsilon=eps,
            eps1_measured=residuals.eps1,
            eps2_measured=residuals.eps2,
            max_extraction_error=max_error,
            extraction_bound=bound,
            slack=bound - max_error,
            degenerate=degenerate,
        ))
    return records


def sweep(spec: FamilySpec) -> list[SweepRecord]:
    """One record per family point, running the full pipeline.

    Every generated device is validated here, once, and must pass; a
    degenerate extraction is recorded in-row and the sweep continues.  Points
    are built, validated and evaluated one chunk at a time; the first failing
    point in sweep order, whether its value is rejected or its device is
    invalid, sets the error, after the points before it are evaluated.
    """
    records = []
    for values, stack in family_chunks(spec):
        violations = validate_stack(stack)
        invalid = next((i for i, found in enumerate(violations) if found), None)
        if invalid is not None:
            if invalid:
                # An evaluation error of an earlier point comes first.
                head = stack.select(slice(invalid))
                _evaluate_stack(head, spec.mode, _epsilons(head, spec.mode))
            parameters = {FAMILY_AXES[spec.kind]: values[invalid]}
            raise ValueError(
                f"family {spec.kind!r} produced an invalid device at {parameters}: "
                + "; ".join(violations[invalid])
            )
        records += _evaluate_stack(stack, spec.mode, _epsilons(stack, spec.mode))
    return records


def _rotation_table(base: DeviceModel, dims: tuple[int, int],
                    rng: np.random.Generator) -> list[tuple]:
    """Per party: its observable names, its base observables padded with the
    identity to the party's dim, stacked (k, d, d), and the eigendecomposition
    of a seeded Hermitian generator per observable, drawn in name order,
    Alice's first, and stacked the same way."""
    table = []
    for obs, dim in ((base.alice_obs, dims[0]), (base.bob_obs, dims[1])):
        padded = np.tile(np.eye(dim, dtype=complex), (len(obs), 1, 1))
        padded[:, :2, :2] = list(obs.values())
        draws = np.stack([_complex_normal(rng, dim, dim) for _ in obs])
        table.append((list(obs), padded, np.linalg.eigh(_hermitian_unit(draws))))
    return table


def _search_proposals(dims: tuple[int, int], qubit_state: np.ndarray, state_dirs: np.ndarray,
                      table: list[tuple], params: np.ndarray) -> DeviceStack:
    """The devices generated by search parameter vectors, the rows of
    ``params``, as one stack.

    Parameters: two state-noise coordinates along fixed seeded directions,
    then one rotation angle per observable, Alice's then Bob's, around its
    fixed seeded Hermitian generator; ``table`` is ``_rotation_table``'s.
    The zero vector reproduces the embedded canonical device, whose state is
    ``qubit_state``.  The stack holds the new arrays, read-only, uncopied.
    """
    states = qubit_state + params[:, :1] * state_dirs[0] + params[:, 1:2] * state_dirs[1]
    for state in states:
        # One norm per row: a norm over the stack's axis rounds differently.
        state /= np.linalg.norm(state)
    parties = []
    start = 2
    for names, padded, decomposition in table:
        angles = params[:, start:start + len(names), None]
        rotated = _rotate(padded, decomposition, angles)
        parties.append({name: rotated[:, j] for j, name in enumerate(names)})
        start += len(names)
    return _frozen_stack(dims, states, *parties)


def worst_case_search(
    mode: str,
    epsilon_ceiling: float,
    dims: tuple[int, int],
    budget: int,
    seed: int,
) -> SearchResult:
    """Simulated-annealing search for the worst extraction error at bounded epsilon.

    Maximizes the measured extraction error over seeded device perturbations
    subject to the measured deviation staying at or below ``epsilon_ceiling``.
    The objective involves eigendecompositions and max-compositions, so a
    derivative-free chain is used, cooling geometrically by 0.995 per evaluation.
    The result is the best device found within ``budget`` evaluations — no
    global-optimality claim is made.  The seed proposal is the unperturbed
    canonical embedding.  Each proposal is validated here; an invalid one
    uses up its evaluation and is rejected.  A valid proposal's epsilon comes
    next, from its correlations, and one over the ceiling is rejected before
    operator derivation, residuals or the extraction circuit run; the rest go
    through them with that epsilon.  The result counts how the evaluations
    ended.  The rotation generators are drawn and decomposed once per
    search, into ``_rotation_table``.

    A rejected proposal leaves the chain where it was, so every proposal
    drawn from one chain state, up to the first feasible one, is known in
    advance.  The search draws a batch of them in one call, builds them as
    one stack (``_search_proposals``), validates the stack and takes epsilon
    of its valid rows in one pass, then checks the rows in the order above
    and stops at the first feasible one.  The generator is rewound and
    redrawn for only the rows checked, so the chain, its counts and its
    result are bit-identical to checking one proposal at a time; a row the
    chain does not reach is not counted and raises no error.  A batch holds
    the mean run length so far, ceil(evaluations / (feasible + 1))
    proposals, at most the budget left and ``_chunk_size(dims)``.

    ``budget``, the two ``dims`` (each >= 2) and the nonnegative ``seed``
    must be integers, not bools; a violation raises ``ValueError`` naming
    the argument.
    """
    if not 0.0 < epsilon_ceiling < 1.0:
        raise ValueError(f"epsilon ceiling must lie in (0, 1), got {epsilon_ceiling}")
    # type(), not isinstance(): bool is an int subclass.
    if type(budget) is not int or budget < 1:
        raise ValueError(f"budget must be an integer >= 1, got {budget!r}")
    if len(dims) != 2 or not all(type(d) is int and d >= 2 for d in dims):
        raise ValueError(f"dims must be two integers >= 2, got {dims!r}")
    if type(seed) is not int or seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed!r}")
    da, db = dims = tuple(dims)
    base = get_mode(mode).canonical()
    rng = np.random.default_rng((seed, 0x5EA2C4))

    block = np.zeros((da, db), dtype=complex)
    block[:2, :2] = PHI_PLUS.reshape(2, 2)
    qubit_state = block.reshape(-1)
    state_dirs = np.stack([_orthogonal_noise(rng, qubit_state) for _ in range(2)])
    table = _rotation_table(base, dims, rng)
    outcomes = {"feasible": 0, "invalid": 0, "degenerate": 0, "over_ceiling": 0}

    def first_feasible(params: np.ndarray) -> tuple[int, tuple[DeviceModel, SweepRecord] | None]:
        """Check the proposals, the rows of ``params``, in order up to the
        first feasible one: how many were checked, and that one's device and
        record (None if no row was feasible)."""
        stack = _search_proposals(dims, qubit_state, state_dirs, table, params)
        violations = validate_stack(stack)
        valid = [i for i, found in enumerate(violations) if not found]
        valid_stack = stack if len(valid) == len(stack) else stack.select(valid)
        try:
            epsilons = dict(zip(valid, _epsilons(valid_stack, mode)))
        except ValueError:
            if len(params) == 1:
                raise
            # Only a row the chain reaches may raise: check them one at a time.
            for row in range(len(params)):
                _, outcome = first_feasible(params[row:row + 1])
                if outcome is not None:
                    return row + 1, outcome
            return len(params), None
        for row, found in enumerate(violations):
            if found:
                outcomes["invalid"] += 1
            elif epsilons[row] > epsilon_ceiling:
                outcomes["over_ceiling"] += 1
            else:
                record = _evaluate_stack(stack.select(slice(row, row + 1)), mode,
                                         [epsilons[row]])[0]
                if not record.degenerate:
                    outcomes["feasible"] += 1
                    return row + 1, (stack.device(row), record)
                outcomes["degenerate"] += 1
        return len(params), None

    n_params = 2 + len(base.alice_obs) + len(base.bob_obs)
    current = np.zeros(n_params)
    best: tuple[DeviceModel, SweepRecord] | None = None
    current_objective = -math.inf

    evaluations, outcome = first_feasible(current[None])
    if outcome is not None:
        best = outcome
        current_objective = outcome[1].max_extraction_error

    temperature = 0.05
    step = 0.05
    cooling = 0.995
    chunk = _chunk_size(dims)
    while evaluations < budget:
        # Proposals drawn from one chain state until the first feasible one
        # are independent, so they are built and checked as one stack; the
        # generator is then rewound past the rows left unchecked.
        size = min(math.ceil(evaluations / (outcomes["feasible"] + 1)),
                   budget - evaluations, chunk)
        drawn_from = rng.bit_generator.state
        proposals = current + rng.normal(scale=step, size=(size, n_params))
        checked, outcome = first_feasible(proposals)
        if checked < size:
            rng.bit_generator.state = drawn_from
            rng.normal(scale=step, size=(checked, n_params))
        evaluations += checked
        for _ in range(checked - 1):
            temperature *= cooling
        if outcome is not None:
            objective = outcome[1].max_extraction_error
            if objective > current_objective or rng.random() < math.exp(
                min(0.0, (objective - current_objective) / max(temperature, 1e-12))
            ):
                current = proposals[checked - 1]
                current_objective = objective
            if best is None or objective > best[1].max_extraction_error:
                best = outcome
        temperature *= cooling

    if best is None:
        return SearchResult(False, None, None, budget, **outcomes)
    device, record = best
    return SearchResult(True, device, record, budget, **outcomes)
