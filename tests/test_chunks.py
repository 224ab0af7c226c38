"""A sweep builds and evaluates its points in stacked chunks of one dims.

Every record must agree, within 1e-12 and in its ``degenerate`` flag, with
the point built alone (a chunk of one, at its own index) and certified alone
through ``certify``; a spec error raises before any device is built, and an
invalid device raises at once, with no point evaluated; and the memory a
sweep holds at once is bounded by the chunk budget, not by the number of
points.
"""

from __future__ import annotations

import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import certified_record, first_observables, random_point_oracle, stack_devices
from singlet_selftest import explorer
from singlet_selftest.bounds import get_mode
from singlet_selftest.cli import sweep_csv
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
            alone = explorer._build_chunk(spec, base, [value], index)
            assert_records_match(record, certified_record(alone, spec.mode))

    def test_chunk_sizes_span_the_counts(self):
        # One chunk +/- 1 above really is one chunk +/- 1 for these dims, where
        # the extraction state's 40 dA dB entries per device are the largest
        # array; from 8x8 on, the correlations' (dA dB)^2 buffer is.
        dims = ((2, 2), (3, 2), (4, 6), (8, 8), (16, 16), (32, 32))
        assert [explorer._chunk_size(d) for d in dims] == [
            CHUNK_ELEMENTS // (40 * 4), CHUNK_ELEMENTS // (40 * 6), CHUNK_ELEMENTS // (40 * 24),
            CHUNK_ELEMENTS // 64**2, 1, 1]
        assert [explorer._chunk_size(d) for d in dims[:1] + dims[3:]] == [409, 16, 1, 1]

    def test_degenerate_device_between_valid_ones(self):
        valid = canonical_chsh_device()
        # Alice's qubit in |1>: (I + Z'_A) removes it, so the junk candidate is zero.
        product = make_device((2, 2), [0.0, 0.0, 1.0, 0.0],
                              first_observables(valid.alice_obs),
                              first_observables(valid.bob_obs))
        tilted = make_device((2, 2), [math.cos(0.3), 0.0, 0.0, math.sin(0.3)],
                             first_observables(valid.alice_obs), first_observables(valid.bob_obs))
        devices = [valid, product, tilted]
        stack = stack_devices(devices)
        mode = get_mode("chsh")
        psi = stack.state.reshape(3, 2, 2)
        assert extraction_stack(psi, mode.derive(stack)).degenerate.tolist() == [
            False, True, False]
        _, _, epsilons = mode.deviations(stack)
        records = explorer._evaluate_stack(stack, "chsh", epsilons.tolist())
        assert [record.degenerate for record in records] == [False, True, False]
        for device, record in zip(devices, records):
            assert_records_match(record, certified_record(device, "chsh"))


@pytest.mark.parametrize("dims", [(2, 2), (3, 5), (8, 8)], ids=["2x2", "3x5", "8x8"])
@pytest.mark.parametrize("mode", ["chsh", "my"])
def test_random_devices_equal_the_point_built_alone(dims, mode):
    # One chunk and three more points, so the second chunk starts mid-family.
    spec = FamilySpec("random", {"count": explorer._chunk_size(dims) + 3}, dims, 2**64 + 9, mode)
    index = 0
    for _, stack in explorer.family_chunks(spec):
        for row in range(len(stack)):
            device, alone = stack.select(slice(row, row + 1)), random_point_oracle(spec, index)
            assert device.state.tobytes() == alone.state.tobytes()
            for party in ("alice_obs", "bob_obs"):
                built, want = getattr(device, party), getattr(alone, party)
                assert list(built) == list(want)
                for name in want:
                    assert built[name].tobytes() == want[name].tobytes(), (index, name)
            index += 1
    assert index == explorer._chunk_size(dims) + 3


class TestErrorOrder:
    # eta in 0.05 steps: all 13 points fit in one 2x2 chunk.
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

    @pytest.mark.parametrize("spec,index,message", [
        # Index 11 (0.55) is the first eta above the 0.5 cap, in the first chunk.
        (SPEC, 11, "measurement-noise eta must lie in [0, 0.5], got {}"),
        # Index 200 is the first p above 1.
        (FamilySpec("state-noise", {"p": [0.0, 1.5, 300]}, seed=3), 200,
         "state-noise p must lie in [0, 1], got {}"),
    ], ids=["first-chunk", "later-chunk"])
    def test_value_error_raises_before_any_device_is_built(self, monkeypatch, spec, index,
                                                            message):
        # The device at index 5 would be invalid, but the spec is checked first.
        requested = self.breaking_builder(monkeypatch, 5)
        value = family_axis(spec)[1][index]
        with pytest.raises(ValueError) as err:
            sweep(spec)
        assert str(err.value) == message.format(value)
        assert requested == []

    def test_invalid_device_raises_at_once(self, monkeypatch):
        spec = FamilySpec("measurement-noise", {"eta": [0.0, 0.5, 11]}, seed=3)
        evaluated = []
        monkeypatch.setattr(explorer, "_evaluate_stack",
                            lambda *args: evaluated.append(args) or [])
        requested = self.breaking_builder(monkeypatch, 5)
        parameters = {"eta": family_axis(spec)[1][5]}
        expected = (f"family 'measurement-noise' produced an invalid device at "
                    f"{parameters}: A0: O^2 != I, deviation 0.75")
        with pytest.raises(ValueError) as err:
            sweep(spec)
        assert str(err.value) == expected
        # No point of the chunk, before the invalid one or after, is evaluated.
        assert requested == [(0, 11)] and evaluated == []

    def test_invalid_device_in_a_later_chunk(self, monkeypatch):
        spec = FamilySpec("random", {"count": 3 * explorer._chunk_size((3, 2))}, (3, 2), seed=1)
        index = explorer._chunk_size((3, 2)) + 4
        self.breaking_builder(monkeypatch, index)
        with pytest.raises(ValueError, match=rf"^family 'random' produced an invalid device at "
                           rf"\{{'count': {float(index)}\}}: A0: "):
            sweep(spec)


# SHA-256 of cli.sweep_csv for every family kind in both modes; the first
# seven were captured with chunks of CHUNK_ELEMENTS = 20,480 // (40 dA dB)
# devices.  Each count crosses a chunk boundary of the budget it was captured
# with and of the current one, so chunking or regrouping the draws must leave
# every byte of every CSV as it was.
SWEEP_PINS = [
    ("tilted", {"theta": [0.0, math.pi / 2, 450]}, (2, 2), 0, {
        "chsh": "73d2c71d735bbd24b6e39fe6210d47449547a4fc0b5c5cda5979d6b5ee029a49",
        "my": "e50064203734a1329a58f0ee596227f7ccb4902267d02b9ccbe8125bb7d04d72"}),
    ("state-noise", {"p": [0.0, 1.0, 450]}, (2, 2), 21, {
        "chsh": "e5b1ebd258dfc7757f88cc59732a56498a0edbba878288a8bf0b83bf3f4e0c8f",
        "my": "7c3687a2da83bceea1f7fec44f0ca8e4a68af0f854a8dbb23919b2290e16e106"}),
    ("measurement-noise", {"eta": [0.0, 0.5, 450]}, (2, 2), 22, {
        "chsh": "1a5c4bb5fd946639ffdec9c9a78e5da42f3f6c9bc96584545ff3b8fb42ee5638",
        "my": "aae8dde0866b270375ae760b30b357ed12d23eefc813537338093eceb7a22a5f"}),
    ("random", {"count": 110}, (4, 4), 23, {
        "chsh": "8364f611a9f406b4b92c1d5f1bb1c363839c6d9ff23970986ed3128c7a73ae04",
        "my": "97dbe3f1d61a480dbd69f2184deebd83443b30307f2d32d858706dc9242ef07d"}),
    ("junk-embedded", {"count": 110}, (4, 4), 24, {
        "chsh": "111838086d59000842f3b5902c088f393417194b1a3de2ca7c72eca64655f5cf",
        "my": "57a1e12976ae71e0602ca85f7c717e25b71f6b45ccf9e5dede2bf184597ebf1d"}),
    ("random", {"count": 40}, (8, 8), 25, {
        "chsh": "cb476b6c5a86fe9d27151ee3c8b8f6a315ce93e79fcd0c65cde463a4b728288b",
        "my": "0d35131621d28e7487109820d4aa9a2b638f277d3a807e3286fda939719a73d6"}),
    ("junk-embedded", {"count": 3}, (16, 16), 26, {
        "chsh": "f5d5e203a0dab0fddd02d6e29639f0f2913e317f8de5e2a10f87e772bc391cb5",
        "my": "ff63344f0b62d2a2a3988332a2e98ed22c2206fd0726adcdf8ab4836c12b5b1a"}),
    # Captured with the current budget, before the random family's signs,
    # complex numbers and norms moved from each point to its chunk.  At 2x2
    # half of all sign draws repeat one sign, so the redraw runs; (3, 5) has
    # dA != dB; a dim of 1 never redraws; a seed above 2**64 is taken whole.
    ("random", {"count": 420}, (2, 2), 27, {
        "chsh": "1302e075f890409d0c9ada8a0cd2e6272ba475f03cecf2cb58172c09e8414995",
        "my": "1cd2ebc63f8855d76f39573bc6ea43ac0f9b244ddef3c307b019ac40f785b6a9"}),
    ("random", {"count": 220}, (3, 5), 28, {
        "chsh": "4b58f7761ec98038bb58e53886d8d727748d68bdc68fac5861596f66fdad99be",
        "my": "bb69ef82bfa7173fae13733cb7f86db3475fb8f6936926abf2a206a442b1df42"}),
    ("random", {"count": 550}, (1, 3), 29, {
        "chsh": "c1a7e9514d2c6256714e117e96f7324ff0715b3cee5e4337a3399e09f10d4303",
        "my": "a26555194762330cfa24600b3ea177895e47e6f9708675952d5f1578a11efebc"}),
    ("random", {"count": 140}, (4, 3), 2**64 + 31, {
        "chsh": "c51ac5a713782df1241ed06b4b83033d4dbea8c1cd4e48a4872e2a6094e72f0e",
        "my": "be45a5ddd054a329bc1d113e478700ab8c87dbf4c197265bdec05c1a09ca0a0e"}),
]


@pytest.mark.parametrize("mode", ["chsh", "my"])
@pytest.mark.parametrize("kind,parameters,dims,seed,digests", SWEEP_PINS,
                         ids=[f"{pin[0]}-{pin[2][0]}x{pin[2][1]}" for pin in SWEEP_PINS])
def test_sweep_csv_reproduces_its_pin(kind, parameters, dims, seed, digests, mode):
    text = sweep_csv(FamilySpec(kind, parameters, dims, seed, mode))
    assert hashlib.sha256(text.encode()).hexdigest() == digests[mode]


@pytest.mark.parametrize("kind,count,dims", [
    # 13 chunks of 16; a whole-family stack would take about 13 budgets, and
    # chunked, a sweep holds about 1.8.
    ("random", 200, (8, 8)),
    # A chunk of one, whose 256 x 256 correlation buffer is one budget; a
    # sweep holds about 1.05.
    ("junk-embedded", 4, (16, 16)),
], ids=["random-8x8", "junk-embedded-16x16"])
def test_peak_memory_is_bounded_by_the_chunk_budget(kind, count, dims):
    spec = FamilySpec(kind, {"count": count}, dims, seed=5, mode="my")
    sweep(FamilySpec(kind, {"count": 1}, dims, seed=5, mode="my"))
    tracemalloc.start()
    try:
        records = sweep(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(records) == count
    assert peak < 3 * 16 * CHUNK_ELEMENTS


def test_stack_views_are_read_only():
    stack = next(explorer.family_chunks(FamilySpec("random", {"count": 3}, (2, 3), seed=2)))[1]
    device = stack.select(slice(1, 2))
    for array in (stack.state, *stack.alice_obs.values(), *stack.bob_obs.values(),
                  device.state, *device.bob_obs.values()):
        assert not array.flags.writeable
    np.testing.assert_array_equal(device.state, stack.state[1:2])
