"""Device-family generators, parameter sweeps, and worst-case search.

Families perturb the canonical devices in controlled ways (state tilt, state
noise, measurement rotation, junk embedding, or fully random construction) so
that bound tightness can be charted empirically.  Generation is deterministic:
every family point owns an RNG stream keyed by (seed, point index), so a point
does not depend on which points were generated before it.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .bounds import extraction_bound, get_mode
from .derive import condition_residuals
from .device import DeviceModel, correlations, make_device, validate
from .isometry import DegenerateExtractionError, extraction_error
from .linalg import PHI_PLUS

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
    found: bool
    device: DeviceModel | None
    record: SweepRecord | None
    evaluations: int


def _point_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng((int(seed) & 0xFFFFFFFFFFFFFFFF, int(index)))


def _random_hermitian_unit(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = (g + g.conj().T) / 2.0
    radius = float(np.max(np.abs(np.linalg.eigvalsh(h))))
    return h / radius if radius > 0 else h


def _haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases


def _rotate(obs: np.ndarray, h: np.ndarray, eta: float) -> np.ndarray:
    """Conjugate an observable by exp(i*eta*h), re-hermitianized."""
    w, v = np.linalg.eigh(h)
    u = (v * np.exp(1j * eta * w)) @ v.conj().T
    rotated = u @ obs @ u.conj().T
    return (rotated + rotated.conj().T) / 2.0


def _orthogonal_noise(rng: np.random.Generator, base: np.ndarray) -> np.ndarray:
    """Seeded random unit vector orthogonal to ``base``."""
    dim = base.shape[0]
    for _ in range(16):
        e = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        e -= np.vdot(base, e) * base
        nrm = float(np.linalg.norm(e))
        if nrm > 1e-8:
            return e / nrm
    raise RuntimeError("failed to draw a noise direction")  # pragma: no cover


def _random_observable(rng: np.random.Generator, dim: int) -> np.ndarray:
    """U diag(+/-1) U^dagger with at least one +1 and one -1 on the diagonal."""
    signs = np.ones(dim)
    while True:
        signs = np.where(rng.random(dim) < 0.5, 1.0, -1.0)
        if len(set(signs)) == 2 or dim == 1:
            break
    u = _haar_unitary(rng, dim)
    obs = (u * signs) @ u.conj().T
    return (obs + obs.conj().T) / 2.0


def _embed_party(qubit_obs: np.ndarray, anc_dim: int) -> np.ndarray:
    return np.kron(qubit_obs, np.eye(anc_dim, dtype=complex))


def _embedded_state(anc_a: np.ndarray, anc_b: np.ndarray) -> np.ndarray:
    """phi+ on the qubit pair tensored with per-party ancilla states.

    Party ordering is (qubit, ancilla) inside each side, Alice major overall.
    """
    phi = PHI_PLUS.reshape(2, 2)
    state = np.einsum("ik,a,b->iakb", phi, anc_a, anc_b)
    return state.reshape(-1)


def _param_values(name: str, value) -> list[float]:
    # type(), not isinstance(): JSON true/false load as bool, an int subclass.
    if isinstance(value, dict) and set(value) == {"start", "stop", "steps"}:
        value = (value["start"], value["stop"], value["steps"])
    if type(value) in (int, float):
        return [float(value)]
    if not (isinstance(value, (tuple, list)) and len(value) == 3
            and {type(value[0]), type(value[1])} <= {int, float} and type(value[2]) is int):
        raise ValueError(f"{name} must be a number or a [start, stop, steps] range of two "
                         f"numbers and an integer, got {value!r}")
    start, stop, steps = value
    if steps < 0:
        raise ValueError(f"range steps must be nonnegative, got {steps}")
    if steps > MAX_SWEEP_POINTS:
        raise ValueError(f"{name} range steps must be at most {MAX_SWEEP_POINTS}, got {steps}")
    if steps == 0:
        return []
    if steps == 1:
        return [float(start)]
    return [float(x) for x in np.linspace(float(start), float(stop), steps)]


def family_axis(spec: FamilySpec) -> tuple[str, list[float]]:
    """The single sweep axis of a family: its name and point values.

    Checks the spec first: a known kind, two integer dims >= 1, an integer
    seed, parameters naming only the kind's axis, and at most
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
    if type(spec.seed) is not int:
        raise ValueError(f"family seed must be an integer, got {spec.seed!r}")
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


def _build_point(
    spec: FamilySpec, base: DeviceModel, value: float, index: int
) -> DeviceModel:
    rng = _point_rng(spec.seed, index)
    if spec.kind in ("tilted", "state-noise", "measurement-noise") and spec.dims != (2, 2):
        raise ValueError(f"{spec.kind} family requires dims (2, 2)")
    if spec.kind == "tilted":
        theta = float(value)
        state = np.zeros(4, dtype=complex)
        state[0] = math.cos(theta)
        state[3] = math.sin(theta)
        return make_device((2, 2), state, dict(base.alice_obs), dict(base.bob_obs))
    if spec.kind == "state-noise":
        p = float(value)
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"state-noise p must lie in [0, 1], got {p}")
        e = _orthogonal_noise(rng, PHI_PLUS)
        state = math.sqrt(1.0 - p) * PHI_PLUS + math.sqrt(p) * e
        state /= np.linalg.norm(state)
        return make_device((2, 2), state, dict(base.alice_obs), dict(base.bob_obs))
    if spec.kind == "measurement-noise":
        eta = float(value)
        if not 0.0 <= eta <= MEASUREMENT_NOISE_CAP:
            raise ValueError(
                f"measurement-noise eta must lie in [0, {MEASUREMENT_NOISE_CAP}], got {eta}"
            )
        alice = {
            k: _rotate(v, _random_hermitian_unit(rng, 2), eta)
            for k, v in base.alice_obs.items()
        }
        bob = {
            k: _rotate(v, _random_hermitian_unit(rng, 2), eta)
            for k, v in base.bob_obs.items()
        }
        return make_device((2, 2), base.state, alice, bob)
    if spec.kind == "junk-embedded":
        da, db = spec.dims
        if da % 2 or db % 2 or da < 2 or db < 2:
            raise ValueError(f"junk-embedded dims must be even and >= 2, got {spec.dims}")
        anc_a = rng.normal(size=da // 2) + 1j * rng.normal(size=da // 2)
        anc_b = rng.normal(size=db // 2) + 1j * rng.normal(size=db // 2)
        anc_a /= np.linalg.norm(anc_a)
        anc_b /= np.linalg.norm(anc_b)
        state = _embedded_state(anc_a, anc_b)
        alice = {k: _embed_party(v, da // 2) for k, v in base.alice_obs.items()}
        bob = {k: _embed_party(v, db // 2) for k, v in base.bob_obs.items()}
        return make_device((da, db), state, alice, bob)
    # "random", the one kind left: family_axis has checked the kind.
    da, db = spec.dims
    state = rng.normal(size=da * db) + 1j * rng.normal(size=da * db)
    state /= np.linalg.norm(state)
    alice = {k: _random_observable(rng, da) for k in base.alice_obs}
    bob = {k: _random_observable(rng, db) for k in base.bob_obs}
    return make_device((da, db), state, alice, bob)


def family_points(spec: FamilySpec) -> Iterator[tuple[dict, DeviceModel]]:
    """The (parameters, device) points of a family, built one at a time in
    sweep order; the spec is checked when the first point is requested."""
    name, values = family_axis(spec)
    base = get_mode(spec.mode).canonical()
    for index, value in enumerate(values):
        yield {name: value}, _build_point(spec, base, value, index)


def evaluate_device(device: DeviceModel, mode: str) -> SweepRecord:
    """Run the residual/extraction pipeline on one device into a record.

    Precondition: ``device`` is valid.  ``sweep`` and ``worst_case_search``
    validate each device they build before calling here, so this function does
    not; the mode's observable names are checked in ``correlations``.
    """
    selftest = get_mode(mode)
    _, eps = selftest.deviation(correlations(device, selftest.pairs))
    ops = selftest.derive(device)
    residuals = condition_residuals(device.state, ops)
    bound = extraction_bound(residuals.eps1, residuals.eps2)
    try:
        result = extraction_error(device, ops)
        max_error = result.max_error
        slack = bound - max_error
        degenerate = False
    except DegenerateExtractionError:
        max_error = float("nan")
        slack = float("nan")
        degenerate = True
    return SweepRecord(
        epsilon=eps,
        eps1_measured=residuals.eps1,
        eps2_measured=residuals.eps2,
        max_extraction_error=max_error,
        extraction_bound=bound,
        slack=slack,
        degenerate=degenerate,
    )


def sweep(spec: FamilySpec) -> list[SweepRecord]:
    """One record per family point, running the full pipeline.

    Every generated device is validated here, once, and must pass; a
    degenerate extraction is recorded in-row and the sweep continues.
    """
    records = []
    for parameters, device in family_points(spec):
        violations = validate(device)
        if violations:
            raise ValueError(
                f"family {spec.kind!r} produced an invalid device at {parameters}: "
                + "; ".join(violations)
            )
        records.append(evaluate_device(device, spec.mode))
    return records


def _search_proposal(
    base: DeviceModel,
    dims: tuple[int, int],
    qubit_state: np.ndarray,
    state_dirs: np.ndarray,
    generators: dict[str, np.ndarray],
    params: np.ndarray,
) -> DeviceModel:
    """Device generated by a search parameter vector.

    Parameters: two state-noise coordinates along fixed seeded directions,
    then one rotation angle per observable around its fixed seeded Hermitian
    generator.  The zero vector reproduces the embedded canonical device,
    whose state is ``qubit_state``.
    """
    da, db = dims

    def extend(obs: np.ndarray, dim: int) -> np.ndarray:
        out = np.eye(dim, dtype=complex)
        out[:2, :2] = obs
        return out

    state = qubit_state + params[0] * state_dirs[0] + params[1] * state_dirs[1]
    state /= np.linalg.norm(state)
    names = list(base.alice_obs) + list(base.bob_obs)
    alice = {}
    bob = {}
    for i, name in enumerate(names):
        angle = float(params[2 + i])
        if name in base.alice_obs:
            obs = extend(base.alice_obs[name], da)
            alice[name] = _rotate(obs, generators[name], angle)
        else:
            obs = extend(base.bob_obs[name], db)
            bob[name] = _rotate(obs, generators[name], angle)
    return make_device(dims, state, alice, bob)


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
    canonical embedding.  Each proposal is validated here, once; an invalid
    one uses up its evaluation and is rejected.
    """
    if not 0.0 < epsilon_ceiling < 1.0:
        raise ValueError(f"epsilon ceiling must lie in (0, 1), got {epsilon_ceiling}")
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    da, db = int(dims[0]), int(dims[1])
    if da < 2 or db < 2:
        raise ValueError(f"dims must be >= 2 per party, got {dims}")
    dims = (da, db)
    base = get_mode(mode).canonical()
    rng = np.random.default_rng((int(seed), 0x5EA2C4))
    n_obs = len(base.alice_obs) + len(base.bob_obs)

    block = np.zeros((da, db), dtype=complex)
    block[:2, :2] = PHI_PLUS.reshape(2, 2)
    qubit_state = block.reshape(-1)
    state_dirs = np.stack(
        [_orthogonal_noise(rng, qubit_state) for _ in range(2)]
    )
    generators = {}
    for name in list(base.alice_obs) + list(base.bob_obs):
        dim = da if name in base.alice_obs else db
        generators[name] = _random_hermitian_unit(rng, dim)

    def assess(params: np.ndarray) -> tuple[DeviceModel, SweepRecord] | None:
        device = _search_proposal(base, dims, qubit_state, state_dirs, generators, params)
        if validate(device):
            return None
        record = evaluate_device(device, mode)
        if record.degenerate or record.epsilon > epsilon_ceiling:
            return None
        return device, record

    n_params = 2 + n_obs
    current = np.zeros(n_params)
    evaluations = 0
    best: tuple[DeviceModel, SweepRecord] | None = None
    current_objective = -math.inf

    outcome = assess(current)
    evaluations += 1
    if outcome is not None:
        best = outcome
        current_objective = outcome[1].max_extraction_error

    temperature = 0.05
    step = 0.05
    cooling = 0.995
    while evaluations < budget:
        proposal = current + rng.normal(scale=step, size=n_params)
        outcome = assess(proposal)
        evaluations += 1
        if outcome is None:
            temperature *= cooling
            continue
        objective = outcome[1].max_extraction_error
        if objective > current_objective or rng.random() < math.exp(
            min(0.0, (objective - current_objective) / max(temperature, 1e-12))
        ):
            current = proposal
            current_objective = objective
        if best is None or objective > best[1].max_extraction_error:
            best = outcome
        temperature *= cooling

    if best is None:
        return SearchResult(found=False, device=None, record=None, evaluations=evaluations)
    device, record = best
    return SearchResult(found=True, device=device, record=record, evaluations=evaluations)
