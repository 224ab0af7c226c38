"""A sweep builds and evaluates its points in stacked chunks of one dims.

Every record must agree, within 1e-12 and in its ``degenerate`` flag, with
the point built alone (a chunk of one, at its own index) and certified alone
through ``certify``; the first failing point in sweep order sets a
sweep's error; and the memory a sweep holds at once is bounded by the chunk
budget, not by the number of points.
"""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import certified_record, stack_devices
from singlet_selftest import explorer
from singlet_selftest.bounds import get_mode
from singlet_selftest.device import canonical_chsh_device, make_device
from singlet_selftest.explorer import (
    CHUNK_ELEMENTS,
    FamilySpec,
    family_axis,
    sweep,
)
from singlet_selftest.isometry import extraction_stack

TOL = 1e-12

# (kind, dims) pairs that build; the three 2x2-only kinds build nothing else.
KIND_DIMS = [
    ("tilted", (2, 2)),
    ("state-noise", (2, 2)),
    ("measurement-noise", (2, 2)),
    ("junk-embedded", (2, 2)),
    ("junk-embedded", (4, 6)),
    ("random", (2, 2)),
    ("random", (3, 2)),
    ("random", (4, 6)),
]
# The range each range kind's axis is drawn from.
AXIS_RANGES = {"tilted": (0.0, math.pi), "state-noise": (0.0, 1.0),
               "measurement-noise": (0.0, explorer.MEASUREMENT_NOISE_CAP)}


def assert_records_match(record, alone):
    assert record.degenerate == alone.degenerate
    for name in ("epsilon", "eps1_measured", "eps2_measured", "max_extraction_error",
                 "extraction_bound", "slack"):
        got, want = getattr(record, name), getattr(alone, name)
        if alone.degenerate and name in ("max_extraction_error", "slack"):
            assert math.isnan(got) and math.isnan(want)
        else:
            assert abs(got - want) <= TOL, name


@st.composite
def family_specs(draw):
    kind, dims = draw(st.sampled_from(KIND_DIMS))
    chunk = explorer._chunk_size(dims)
    count = draw(st.sampled_from([0, 1, chunk - 1, chunk, chunk + 1]))
    if kind in AXIS_RANGES:
        lo, hi = AXIS_RANGES[kind]
        ends = st.floats(lo, hi, allow_nan=False)
        parameters = {explorer.FAMILY_AXES[kind]: [draw(ends), draw(ends), count]}
    else:
        parameters = {"count": count}
    return FamilySpec(kind, parameters, dims, draw(st.integers(0, 2**32)),
                      draw(st.sampled_from(["chsh", "my"])))


class TestStackedSweepEqualsPerDevice:
    @settings(max_examples=40, deadline=None)
    @given(spec=family_specs())
    def test_each_record_matches_the_point_alone(self, spec):
        records = sweep(spec)
        _, values = family_axis(spec)
        assert len(records) == len(values)
        base = get_mode(spec.mode).canonical()
        for index, (value, record) in enumerate(zip(values, records)):
            alone = explorer._build_chunk(spec, base, [value], index).device(0)
            assert_records_match(record, certified_record(alone, spec.mode))

    def test_chunk_sizes_span_the_counts(self):
        # One chunk +/- 1 above really is one chunk +/- 1 for these dims.
        assert [explorer._chunk_size(dims) for dims in ((2, 2), (3, 2), (4, 6))] == [
            CHUNK_ELEMENTS // (40 * 4), CHUNK_ELEMENTS // (40 * 6), CHUNK_ELEMENTS // (40 * 24)]

    def test_degenerate_device_between_valid_ones(self):
        valid = canonical_chsh_device()
        # Alice's qubit in |1>: (I + Z'_A) removes it, so the junk candidate is zero.
        product = make_device((2, 2), [0.0, 0.0, 1.0, 0.0], dict(valid.alice_obs),
                              dict(valid.bob_obs))
        tilted = make_device((2, 2), [math.cos(0.3), 0.0, 0.0, math.sin(0.3)],
                             dict(valid.alice_obs), dict(valid.bob_obs))
        devices = [valid, product, tilted]
        stack = stack_devices(devices)
        mode = get_mode("chsh")
        psi = stack.state.reshape(3, 2, 2)
        assert extraction_stack(psi, mode.derive(stack)).degenerate.tolist() == [
            False, True, False]
        records = explorer._evaluate_stack(stack, "chsh", explorer._epsilons(stack, "chsh"))
        assert [record.degenerate for record in records] == [False, True, False]
        for device, record in zip(devices, records):
            assert_records_match(record, certified_record(device, "chsh"))


class TestErrorOrder:
    # eta in 0.05 steps: index 11 (0.55) is the first value above the 0.5 cap,
    # and all 13 points fit in one 2x2 chunk.
    SPEC = FamilySpec("measurement-noise", {"eta": [0.0, 0.6, 13]}, seed=3)

    def breaking_builder(self, monkeypatch, invalid_index):
        requested = []
        build = explorer._build_chunk

        def builder(spec, base, values, start):
            requested.append((start, len(values)))
            stack = build(spec, base, values, start)
            if start <= invalid_index < start + len(values):
                alice = dict(stack.alice_obs)
                a0 = alice["A0"].copy()
                a0[invalid_index - start] *= 0.5  # squares to I / 4
                alice["A0"] = a0
                stack = explorer.DeviceStack(stack.dims, stack.state, alice, stack.bob_obs)
            return stack

        monkeypatch.setattr(explorer, "_build_chunk", builder)
        return requested

    def test_spec_puts_both_errors_in_one_chunk(self):
        values = family_axis(self.SPEC)[1]
        assert explorer._chunk_size((2, 2)) > len(values)
        assert max(values[:11]) <= 0.5 < values[11]

    def test_invalid_device_before_the_build_error_sets_the_error(self, monkeypatch):
        requested = self.breaking_builder(monkeypatch, 5)
        parameters = {"eta": family_axis(self.SPEC)[1][5]}
        expected = (f"family 'measurement-noise' produced an invalid device at "
                    f"{parameters}: A0: O^2 != I, deviation 0.75")
        with pytest.raises(ValueError) as err:
            sweep(self.SPEC)
        assert str(err.value) == expected
        # The chunk stops before the value that cannot be built.
        assert requested == [(0, 11)]

    def test_build_error_before_the_invalid_device_sets_the_error(self, monkeypatch):
        self.breaking_builder(monkeypatch, 12)
        eta = family_axis(self.SPEC)[1][11]
        with pytest.raises(ValueError) as err:
            sweep(self.SPEC)
        assert str(err.value) == f"measurement-noise eta must lie in [0, 0.5], got {eta}"

    def test_invalid_device_in_a_later_chunk(self, monkeypatch):
        spec = FamilySpec("random", {"count": 3 * explorer._chunk_size((3, 2))}, (3, 2), seed=1)
        index = explorer._chunk_size((3, 2)) + 4
        self.breaking_builder(monkeypatch, index)
        with pytest.raises(ValueError, match=rf"^family 'random' produced an invalid device at "
                           rf"\{{'count': {float(index)}\}}: A0: "):
            sweep(spec)


def test_peak_memory_is_bounded_by_the_chunk_budget():
    # A whole-family stack of these 200 points would take about 60 budgets;
    # chunked, a sweep holds about 3.4.
    spec = FamilySpec("random", {"count": 200}, (8, 8), seed=5, mode="my")
    sweep(FamilySpec("random", {"count": 1}, (8, 8), seed=5, mode="my"))
    tracemalloc.start()
    try:
        records = sweep(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(records) == 200
    assert peak < 5 * 16 * CHUNK_ELEMENTS


def test_stack_views_are_read_only():
    stack = next(explorer.family_chunks(FamilySpec("random", {"count": 3}, (2, 3), seed=2)))[1]
    device = stack.device(1)
    for array in (stack.state, *stack.alice_obs.values(), *stack.bob_obs.values(),
                  device.state, *device.bob_obs.values()):
        assert not array.flags.writeable
    np.testing.assert_array_equal(device.state, stack.state[1])
