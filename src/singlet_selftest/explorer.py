"""Device-family generators, parameter sweeps, and worst-case search.

Families perturb the canonical devices in controlled ways (state tilt, state
noise, measurement rotation, junk embedding, or fully random construction) so
that bound tightness can be charted empirically.  Generation is deterministic:
every family point owns an RNG stream keyed by (seed, point index), so a point
does not depend on which points were generated before it.

A sweep builds and evaluates its points in chunks of at most
``CHUNK_ELEMENTS`` // max(40 dA dB, (dA dB)^2) devices, which share dims.
Per point run its generator calls, in its own order and in as few calls as
that order allows, ``random``'s redraw of a sign draw lacking a sign, and,
for ``state-noise`` and ``junk-embedded``, each state's norms, vdot or einsum.
The rest runs once per chunk, stacked: the other complex numbers and state
norms, the linear algebra (QR, eigendecompositions, matrix products),
validation, correlations, operator derivation, residuals and the extraction
circuit.  The epsilon^(1/4) budgets amplify a last-bit change
in the deviation epsilon, so ``device.correlation_stack`` keeps each
device's embedded floating-point form, bit for bit.  Sweep, search and
``bounds.certify`` share one path: epsilon from ``Mode.deviations`` first,
then ``Mode.stages`` on the stack, which is NaN where a device is degenerate.
A search builds, validates and takes epsilon of its proposals as speculative
stacks, and runs the stages on one proposal at a time, as the n = 1 stack,
and only if its epsilon is within the ceiling; its rotation generators are
decomposed once per search, and a stack of proposals rotates each party's
observables in one pass.

A family spec is checked whole before any of its devices is built.  The
devices a sweep or search generates are valid, with real correlations (a
property test checks both), so neither orders its errors: a sweep raises at
its first invalid device, and a search at the first stack of proposals that
holds an invalid device or whose epsilon raises, whether or not the chain
reaches the failing row.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .bounds import extraction_bound, get_mode
from .device import CHUNK_ELEMENTS, DeviceStack, frozen_stack, validate_stack
from .linalg import PHI_PLUS, dagger, vector_norms

# Family kind -> the name of its one sweep axis.
FAMILY_AXES = {"tilted": "theta", "state-noise": "p", "measurement-noise": "eta",
               "junk-embedded": "count", "random": "count"}

MEASUREMENT_NOISE_CAP = 0.5  # keeps perturbed devices inside the small-deviation regime

# Most points one sweep may have (a count or range steps): 500 times the
# 200-point sweeps of the benchmark, far below what exhausts memory.
MAX_SWEEP_POINTS = 100_000

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
    """The best feasible device of a search, as the n = 1 stack, and how its
    evaluations ended: ``feasible``, or rejected as ``over_ceiling``
    (epsilon) or ``degenerate`` (extraction), checked in that order; the
    three counts sum to ``evaluations``.  A degenerate proposal over the
    ceiling counts as ``over_ceiling``."""

    found: bool
    device: DeviceStack | None
    record: SweepRecord | None
    evaluations: int
    feasible: int = 0
    degenerate: int = 0
    over_ceiling: int = 0


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
    """Seeded random unit vector orthogonal to the unit vector ``base``."""
    e = _complex_normal(rng, base.shape[0])
    e -= np.vdot(base, e) * base
    return e / np.linalg.norm(e)


def _observable_draws(rng: np.random.Generator, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """One observable's draws, as they come from ``rng``: which of its dim
    signs are +1, redrawn until both signs occur (for dim > 1), then the real
    and imaginary parts of a Gaussian matrix, as one (2, dim, dim) draw.

    Only the generator calls and the redraw decision, one count of the +1s,
    run here, per point; the caller turns the booleans into signs and the
    parts into complex numbers once per chunk.
    """
    while True:
        plus = rng.random(dim) < 0.5
        if dim == 1 or 0 < np.count_nonzero(plus) < dim:
            return plus, rng.normal(size=(2, dim, dim))


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
        raise ValueError(f"{name} range steps must be nonnegative, got {steps}")
    if steps > MAX_SWEEP_POINTS:
        raise ValueError(f"{name} range steps must be at most {MAX_SWEEP_POINTS}, got {steps}")
    if steps == 0:
        return []
    if steps == 1:
        return [start]
    if not math.isfinite(stop - start):
        raise ValueError(f"{name} range stop - start must be finite, got {stop - start}")
    return [float(x) for x in np.linspace(start, stop, steps)]


def family_axis(spec: FamilySpec) -> tuple[str, list[float]]:
    """The single sweep axis of a family: its name and point values.

    Checks the spec whole, before any device is built: a known kind, two
    integer dims >= 1, a nonnegative integer seed, parameters naming only
    the kind's axis, and at most ``MAX_SWEEP_POINTS`` points; then the mode;
    then the kind's dims and each axis value in sweep order.  The first
    violation raises ``ValueError`` naming the field.
    """
    try:
        name = FAMILY_AXES[spec.kind]
    except (KeyError, TypeError):
        raise ValueError(
            f"unknown family kind {spec.kind!r}; expected one of {tuple(FAMILY_AXES)}"
        ) from None
    if not (isinstance(spec.dims, (tuple, list)) and len(spec.dims) == 2
            and all(type(d) is int and d >= 1 for d in spec.dims)):
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
        values = [float(i) for i in range(count)]
    elif name not in params:
        raise ValueError(f"family {spec.kind!r} requires parameter {name!r}")
    else:
        values = _param_values(name, params[name])
    get_mode(spec.mode)  # raises on an unknown mode
    da, db = spec.dims
    if spec.kind in ("tilted", "state-noise", "measurement-noise") and (da, db) != (2, 2):
        raise ValueError(f"{spec.kind} family requires dims (2, 2)")
    if spec.kind == "junk-embedded" and (da % 2 or db % 2 or da < 2 or db < 2):
        raise ValueError(f"junk-embedded dims must be even and >= 2, got {spec.dims}")
    upper = {"state-noise": 1, "measurement-noise": MEASUREMENT_NOISE_CAP}.get(spec.kind)
    if upper is not None:
        for value in values:
            if not 0.0 <= value <= upper:
                raise ValueError(f"{spec.kind} {name} must lie in [0, {upper}], got {value}")
    return name, values


def _build_chunk(
    spec: FamilySpec, base: DeviceStack, values: list[float], start: int
) -> DeviceStack:
    """The devices of the family points ``start``, ``start + 1``, ... with axis
    ``values``, which ``family_axis`` has passed, as one stack.

    Point i draws from its own generator, seeded with ``(spec.seed, i)``, the
    same numbers in the same order whatever the chunk.  Per point run those
    generator calls, ``random``'s redraw decision (``_observable_draws``) and
    the states of ``state-noise`` and ``junk-embedded`` (norms, a vdot, an
    einsum).  The rest runs once per chunk, stacked: ``random`` turns its sign
    draws into signs with one ``np.where``, composes its complex numbers and
    normalizes its states with ``linalg.vector_norms``, each norm equal to
    ``np.linalg.norm`` of that state alone, before the linear algebra.
    """
    n = len(values)
    da, db = spec.dims
    # Built only when a kind that draws consumes them.
    rngs = (np.random.default_rng((spec.seed, start + i)) for i in range(n))
    alice_names, bob_names = list(base.alice_obs), list(base.bob_obs)
    if spec.kind == "tilted":
        states = np.zeros((n, 4), dtype=complex)
        states[:, 0] = [math.cos(theta) for theta in values]
        states[:, 3] = [math.sin(theta) for theta in values]
        alice, bob = _shared(base.alice_obs, n), _shared(base.bob_obs, n)
    elif spec.kind == "state-noise":
        states = []
        for p, rng in zip(values, rngs):
            e = _orthogonal_noise(rng, PHI_PLUS)
            state = math.sqrt(1.0 - p) * PHI_PLUS + math.sqrt(p) * e
            states.append(state / np.linalg.norm(state))
        states = np.array(states)
        alice, bob = _shared(base.alice_obs, n), _shared(base.bob_obs, n)
    elif spec.kind == "measurement-noise":
        names = alice_names + bob_names
        # Each point draws its observables' real then imaginary parts in name
        # order, in one call; draws[j, i] is observable j of point i.
        raw = np.array([rng.normal(size=(len(names), 2, 2, 2)) for rng in rngs])
        draws = (raw[:, :, 0] + 1j * raw[:, :, 1]).transpose(1, 0, 2, 3)
        base_obs = {**base.alice_obs, **base.bob_obs}
        obs = np.stack([base_obs[name] for name in names])
        rotated = _rotate(obs, np.linalg.eigh(_hermitian_unit(draws)),
                          np.array(values)[:, None])
        states = np.broadcast_to(base.state, (n, 4))
        alice = dict(zip(alice_names, rotated[:len(alice_names)]))
        bob = dict(zip(bob_names, rotated[len(alice_names):]))
    elif spec.kind == "junk-embedded":
        # Each point draws Alice's ancilla's real then imaginary parts, then
        # Bob's, in one call.
        raw = np.array([rng.normal(size=da + db) for rng in rngs])
        half_a, half_b = da // 2, db // 2
        anc_a = raw[:, :half_a] + 1j * raw[:, half_a:da]
        anc_b = raw[:, da:da + half_b] + 1j * raw[:, da + half_b:]
        states = np.array([_embedded_state(a / np.linalg.norm(a), b / np.linalg.norm(b))
                           for a, b in zip(anc_a, anc_b)])
        alice = _shared({k: _embed_party(v, half_a) for k, v in base.alice_obs.items()}, n)
        bob = _shared({k: _embed_party(v, half_b) for k, v in base.bob_obs.items()}, n)
    else:
        # "random", the one kind left: family_axis has checked the kind.  Each
        # point makes only its generator calls: its state's real then imaginary
        # parts, then each observable's draws, Alice's then Bob's, in name order.
        state_draws, alice_draws, bob_draws = [], [], []
        for rng in rngs:
            state_draws.append(rng.normal(size=(2, da * db)))
            alice_draws += [_observable_draws(rng, da) for _ in alice_names]
            bob_draws += [_observable_draws(rng, db) for _ in bob_names]
        raw = np.array(state_draws)
        states = raw[:, 0] + 1j * raw[:, 1]
        states /= vector_norms(states)[:, None]
        parties = []
        for draws, names in ((alice_draws, alice_names), (bob_draws, bob_names)):
            # The draws come point-major; stacked name-major, row j of each
            # array is observable j of every point.
            plus, g = (np.array(part).reshape(n, len(names), *part[0].shape).swapaxes(0, 1)
                       for part in zip(*draws))
            observables = _random_observables(np.where(plus, 1.0, -1.0),
                                              g[:, :, 0] + 1j * g[:, :, 1])
            parties.append(dict(zip(names, observables)))
        alice, bob = parties
    return frozen_stack((da, db), states, alice, bob)


def _shared(observables: dict[str, np.ndarray], n: int) -> dict[str, np.ndarray]:
    """The observables of an n = 1 stack for each of n points, as read-only views."""
    return {name: np.broadcast_to(m, (n, *m.shape[1:])) for name, m in observables.items()}


def _chunk_size(dims: tuple[int, int]) -> int:
    # CHUNK_ELEMENTS // max(40 dA dB, (dA dB)^2) devices, at least one: the
    # largest array of a chunk is the extraction circuit's state, 4 ancilla
    # amplitudes x 10 inputs x dA*dB entries per device, or, once dA*dB > 40,
    # the (dA*dB)^2 entries of each device's embedded matrices, so a chunk's
    # correlations take one block (device.correlation_stack).
    entries = dims[0] * dims[1]
    return max(1, CHUNK_ELEMENTS // max(40 * entries, entries * entries))


def family_chunks(spec: FamilySpec) -> Iterator[tuple[list[float], DeviceStack]]:
    """The family's points in sweep order, one chunk at a time: each chunk's
    axis values and the stack of its devices.

    The whole spec is checked by ``family_axis`` when the first chunk is
    requested, before any device is built, whatever the number of points.
    """
    _, values = family_axis(spec)
    base = get_mode(spec.mode).canonical()
    size = _chunk_size(spec.dims)
    for start in range(0, len(values), size):
        chunk = values[start:start + size]
        yield chunk, _build_chunk(spec, base, chunk, start)


def _evaluate_stack(stack: DeviceStack, mode: str, epsilons: list[float]) -> list[SweepRecord]:
    """The records of a stack's devices, whose deviations are ``epsilons``,
    from ``Mode.stages``; a degenerate device's errors and slack are NaN."""
    _, _, residual_sets, extraction = get_mode(mode).stages(stack)
    records = []
    for eps, residuals, max_error, degenerate in zip(
        epsilons, residual_sets, extraction.distances.max(axis=1).tolist(),
        extraction.degenerate.tolist(),
    ):
        bound = extraction_bound(residuals.eps1, residuals.eps2)
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


def sweep(spec: FamilySpec) -> list[tuple[float, SweepRecord]]:
    """Each family point's axis value with its record, in sweep order.

    The spec is checked whole, once, before any device is built (``family_chunks``).
    Points are then built, validated and evaluated one chunk at a time.
    Every generated device is validated here, once, and the first invalid one
    raises ``ValueError`` naming its axis value; a degenerate extraction is
    recorded in-row and the sweep continues.
    """
    points = []
    for values, stack in family_chunks(spec):
        for value, violations in zip(values, validate_stack(stack)):
            if violations:
                parameters = {FAMILY_AXES[spec.kind]: value}
                raise ValueError(f"family {spec.kind!r} produced an invalid device at "
                                 f"{parameters}: " + "; ".join(violations))
        _, _, epsilons = get_mode(spec.mode).deviations(stack)
        points += zip(values, _evaluate_stack(stack, spec.mode, epsilons.tolist()))
    return points


def _rotation_table(base: DeviceStack, dims: tuple[int, int],
                    rng: np.random.Generator) -> list[tuple]:
    """Per party: its observable names, its base observables padded with the
    identity to the party's dim, stacked (k, d, d), and the eigendecomposition
    of a seeded Hermitian generator per observable, drawn in name order,
    Alice's first, and stacked the same way."""
    table = []
    for obs, dim in ((base.alice_obs, dims[0]), (base.bob_obs, dims[1])):
        padded = np.tile(np.eye(dim, dtype=complex), (len(obs), 1, 1))
        padded[:, :2, :2] = np.concatenate(list(obs.values()))
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
    states /= vector_norms(states)[:, None]
    parties = []
    start = 2
    for names, padded, decomposition in table:
        angles = params[:, start:start + len(names), None]
        rotated = _rotate(padded, decomposition, angles)
        parties.append({name: rotated[:, j] for j, name in enumerate(names)})
        start += len(names)
    return frozen_stack(dims, states, *parties)


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
    canonical embedding.  Each proposal is validated here; the generator
    makes only valid devices, so an invalid one raises ``ValueError`` naming
    its violations.  A proposal's epsilon comes next, from its
    correlations, and one over the ceiling is rejected before
    operator derivation, residuals or the extraction circuit run; the rest go
    through them with that epsilon.  The result counts how the evaluations
    ended.  The rotation generators are drawn and decomposed once per
    search, into ``_rotation_table``.

    A rejected proposal leaves the chain where it was, so every proposal
    drawn from one chain state, up to the first feasible one, is known in
    advance.  The search draws a batch of them in one call, builds them as
    one stack (``_search_proposals``), validates the stack and takes epsilon
    of its rows in one pass, then checks the rows in the order above
    and stops at the first feasible one.  The generator is rewound and
    redrawn for only the rows checked, so the chain, its counts and its
    result are bit-identical to checking one proposal at a time; a row the
    chain does not reach is not counted.  An invalid row of a batch, or an
    error taking the epsilon of any row, raises.  A batch holds
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
    if not (isinstance(dims, (tuple, list)) and len(dims) == 2
            and all(type(d) is int and d >= 2 for d in dims)):
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
    outcomes = {"feasible": 0, "degenerate": 0, "over_ceiling": 0}

    def first_feasible(params: np.ndarray) -> tuple[int, tuple[DeviceStack, SweepRecord] | None]:
        """Check the proposals, the rows of ``params``, in order up to the
        first feasible one: how many were checked, and that one's device and
        record (None if no row was feasible)."""
        stack = _search_proposals(dims, qubit_state, state_dirs, table, params)
        for violations in validate_stack(stack):
            if violations:
                raise ValueError("search produced an invalid proposal: " + "; ".join(violations))
        _, _, epsilons = get_mode(mode).deviations(stack)
        for row, eps in enumerate(epsilons.tolist()):
            if eps > epsilon_ceiling:
                outcomes["over_ceiling"] += 1
            else:
                proposal = stack.select(slice(row, row + 1))
                record = _evaluate_stack(proposal, mode, [eps])[0]
                if not record.degenerate:
                    outcomes["feasible"] += 1
                    return row + 1, (proposal, record)
                outcomes["degenerate"] += 1
        return len(params), None

    n_params = 2 + len(base.alice_obs) + len(base.bob_obs)
    current = np.zeros(n_params)
    best: tuple[DeviceStack, SweepRecord] | None = None
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
