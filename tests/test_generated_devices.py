"""Every device a sweep or a search generates is valid, with real correlations.

``explorer`` orders no errors: a sweep raises at its first invalid device, and
a search at the first stack of proposals that holds an invalid device or whose
epsilon raises, whether or not its chain reaches the failing row.  That is sound because the library's own
devices never fail; these properties hold it, over family specs of every kind
and mode up to 8x8 and over search proposals with random parameters.  The
imaginary parts are computed here through ``np.kron`` embeddings, not through
``device.correlation_stack``, and must stay far below ``IMAG_ATOL``.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from singlet_selftest import explorer
from singlet_selftest.bounds import get_mode
from singlet_selftest.device import DeviceStack, validate_stack
from singlet_selftest.explorer import FamilySpec, family_chunks
from singlet_selftest.linalg import PHI_PLUS

IMAG_LIMIT = 1e-13
MODES = st.sampled_from(["chsh", "my"])
# Each range kind's axis, and the interval its values are drawn from.
AXIS_RANGES = {"tilted": (-2 * math.pi, 2 * math.pi), "state-noise": (0.0, 1.0),
               "measurement-noise": (0.0, explorer.MEASUREMENT_NOISE_CAP)}


def assert_valid_with_real_correlations(stack: DeviceStack, mode: str) -> None:
    assert validate_stack(stack) == [[]] * len(stack)
    for row in range(len(stack)):
        psi = stack.state[row]
        for a, b in get_mode(mode).pairs:
            value = np.vdot(psi, np.kron(stack.alice_obs[a][row], stack.bob_obs[b][row]) @ psi)
            assert abs(value.imag) <= IMAG_LIMIT, (a, b, value)


@st.composite
def family_specs(draw):
    kind = draw(st.sampled_from(sorted(explorer.FAMILY_AXES)))
    if kind in AXIS_RANGES:
        dims = (2, 2)
        lo, hi = AXIS_RANGES[kind]
        ends = st.floats(lo, hi, allow_nan=False)
        parameters = {explorer.FAMILY_AXES[kind]: [draw(ends), draw(ends),
                                                    draw(st.integers(1, 4))]}
    else:
        sides = st.integers(1, 4).map(lambda k: 2 * k) if kind == "junk-embedded" \
            else st.integers(1, 8)
        dims = (draw(sides), draw(sides))
        parameters = {"count": draw(st.integers(1, 3))}
    return FamilySpec(kind, parameters, dims, draw(st.integers(0, 2**32)), draw(MODES))


@settings(max_examples=100, deadline=None)
@given(spec=family_specs())
def test_family_devices_are_valid_with_real_correlations(spec):
    chunks = list(family_chunks(spec))
    assert chunks
    for _, stack in chunks:
        assert_valid_with_real_correlations(stack, spec.mode)


@settings(max_examples=60, deadline=None)
@given(mode=MODES, da=st.integers(2, 8), db=st.integers(2, 8), seed=st.integers(0, 2**32),
       scale=st.floats(0.0, 3.0), count=st.integers(1, 4))
def test_search_proposals_are_valid_with_real_correlations(mode, da, db, seed, scale, count):
    # The search's fixed data, built as worst_case_search builds it.
    base = get_mode(mode).canonical()
    rng = np.random.default_rng(seed)
    block = np.zeros((da, db), dtype=complex)
    block[:2, :2] = PHI_PLUS.reshape(2, 2)
    qubit_state = block.reshape(-1)
    state_dirs = np.stack([explorer._orthogonal_noise(rng, qubit_state) for _ in range(2)])
    table = explorer._rotation_table(base, (da, db), rng)
    params = rng.normal(scale=scale, size=(count, 2 + len(base.alice_obs) + len(base.bob_obs)))
    stack = explorer._search_proposals((da, db), qubit_state, state_dirs, table, params)
    assert_valid_with_real_correlations(stack, mode)
