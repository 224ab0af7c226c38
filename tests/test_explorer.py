from __future__ import annotations

import copy
import dataclasses
import hashlib
import math
import re

import numpy as np
import pytest

from helpers import (
    SearchSpy,
    certified_record,
    chsh_value,
    make_family,
    my_deviation,
    search_proposal_oracle,
)
from singlet_selftest.bounds import certify, get_mode
from singlet_selftest.device import (
    canonical_chsh_device,
    canonical_my_device,
    validate_stack,
)
from singlet_selftest.derive import derive_chsh_operators, residual_stack
from singlet_selftest import bounds, explorer
from singlet_selftest.explorer import (
    MAX_SWEEP_POINTS,
    FamilySpec,
    family_axis,
    family_chunks,
    sweep,
    worst_case_search,
)
from singlet_selftest.isometry import OPERATOR_PAIRS, extraction_stack
from singlet_selftest.linalg import PHI_PLUS

SQRT2 = math.sqrt(2.0)


class TestCanonicalDevices:
    def test_chsh_point(self):
        device = canonical_chsh_device()
        assert validate_stack(device) == [[]]
        value, eps = chsh_value(device)
        assert value == pytest.approx(2.8284271247461903, abs=1e-12)
        result = extraction_stack(device.state.reshape(1, 2, 2), derive_chsh_operators(device))
        assert result.distances.max() <= 1e-9

    def test_my_point(self):
        device = canonical_my_device()
        assert validate_stack(device) == [[]]
        table, eps = my_deviation(device)
        assert eps <= 1e-12
        observed = [
            table[("XA", "XB")], table[("XA", "ZB")], table[("XA", "DB")],
            table[("ZA", "XB")], table[("ZA", "ZB")], table[("ZA", "DB")],
        ]
        expected = [1.0, 0.0, 1 / SQRT2, 0.0, 1.0, 1 / SQRT2]
        assert observed == pytest.approx(expected, abs=1e-12)


class TestFamilies:
    def test_determinism(self):
        spec = FamilySpec("random", {"count": 6}, (3, 2), seed=77)
        first = make_family(spec)
        second = make_family(spec)
        for d1, d2 in zip(first, second):
            assert np.array_equal(d1.state, d2.state)
            for name in d1.alice_obs:
                assert np.array_equal(d1.alice_obs[name], d2.alice_obs[name])
            for name in d1.bob_obs:
                assert np.array_equal(d1.bob_obs[name], d2.bob_obs[name])

    def test_tilted_symmetric_point_is_canonical(self):
        spec = FamilySpec("tilted", {"theta": math.pi / 4}, (2, 2), seed=0)
        (device,) = make_family(spec)
        canonical = canonical_chsh_device()
        assert np.allclose(device.state, canonical.state, atol=1e-15)
        value, _ = chsh_value(device)
        assert value == pytest.approx(2.0 * SQRT2, abs=1e-12)

    def test_tilted_pi_8(self):
        spec = FamilySpec("tilted", {"theta": math.pi / 8}, (2, 2), seed=0)
        (device,) = make_family(spec)
        value, _ = chsh_value(device)
        assert value == pytest.approx(2.4142135623730949, abs=1e-12)

    def test_junk_embedded_invariance(self):
        spec = FamilySpec("junk-embedded", {"count": 3}, (4, 4), seed=3)
        for device in make_family(spec):
            assert device.dims == (4, 4)
            value, _ = chsh_value(device)
            assert value == pytest.approx(2.0 * SQRT2, abs=1e-9)
            ops = derive_chsh_operators(device)
            psi = device.state.reshape(1, *device.dims)
            (res,) = residual_stack(psi, ops)
            assert max(res.anticomm_a, res.anticomm_b, res.diff_x, res.diff_z) <= 1e-9
            assert extraction_stack(psi, ops).distances[0, :len(OPERATOR_PAIRS)].max() <= 1e-9

    def test_junk_embedded_my_mode(self):
        spec = FamilySpec("junk-embedded", {"count": 2}, (4, 6), seed=4, mode="my")
        for device in make_family(spec):
            _, eps = my_deviation(device)
            assert eps <= 1e-9

    def test_every_family_validates(self):
        specs = [
            FamilySpec("tilted", {"theta": {"start": 0.2, "stop": 0.7, "steps": 4}}),
            FamilySpec("state-noise", {"p": {"start": 0.0, "stop": 0.05, "steps": 4}}, seed=8),
            FamilySpec("measurement-noise", {"eta": {"start": 0.0, "stop": 0.3, "steps": 4}}, seed=9),
            FamilySpec("junk-embedded", {"count": 3}, (4, 4), seed=10),
            FamilySpec("random", {"count": 4}, (2, 3), seed=11),
            FamilySpec("state-noise", {"p": 0.02}, seed=12, mode="my"),
            FamilySpec("measurement-noise", {"eta": 0.1}, seed=13, mode="my"),
        ]
        for spec in specs:
            devices = make_family(spec)
            assert devices, spec.kind
            for device in devices:
                assert validate_stack(device) == [[]], spec.kind

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="kind"):
            make_family(FamilySpec("bogus", {"count": 1}))
        with pytest.raises(ValueError, match="requires parameter"):
            make_family(FamilySpec("tilted", {}))
        with pytest.raises(ValueError, match="eta"):
            make_family(FamilySpec("measurement-noise", {"eta": 0.9}))
        with pytest.raises(ValueError, match="dims"):
            make_family(FamilySpec("junk-embedded", {"count": 1}, (3, 4)))
        with pytest.raises(ValueError, match="p must"):
            make_family(FamilySpec("state-noise", {"p": 1.5}))

    @pytest.mark.parametrize("dims", [(2.7, 2), (True, 2), (0, 2), (2, 2, 2), 4, None])
    def test_malformed_dims_rejected(self, dims):
        with pytest.raises(ValueError, match="^family dims must be two integers >= 1, got "):
            family_axis(FamilySpec("random", {"count": 1}, dims))

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be a nonnegative integer, got -1"):
            family_axis(FamilySpec("random", {"count": 2}, seed=-1))

    def test_seeds_are_not_reduced_modulo_two_to_the_64(self):
        # 2**64 and 0 are different seeds, and 2**64 - 1 is a seed of its own.
        states = {seed: [device.state for device in
                         make_family(FamilySpec("random", {"count": 2}, (2, 3), seed=seed))]
                  for seed in (0, 2**64 - 1, 2**64)}
        for a, b in ((0, 2**64), (2**64 - 1, 2**64), (0, 2**64 - 1)):
            assert not any(np.array_equal(x, y) for x, y in zip(states[a], states[b])), (a, b)

    @pytest.mark.parametrize("kind,parameters,dims", [
        ("tilted", {"theta": [0.2, 0.7, 3]}, [2, 2]),
        ("measurement-noise", {"eta": [0.0, 0.2, 3]}, [2, 2]),
        ("junk-embedded", {"count": 3}, [4, 6]),
    ])
    def test_list_dims_build_as_tuple_dims(self, kind, parameters, dims):
        as_list = FamilySpec(kind, parameters, dims, seed=5)
        as_tuple = FamilySpec(kind, parameters, tuple(dims), seed=5)
        assert sweep(as_list) == sweep(as_tuple)
        for device in make_family(as_list):
            assert device.dims == tuple(dims)

    @pytest.mark.parametrize("spec,message", [
        (FamilySpec("tilted", {"theta": [0.0, 1.0, 0]}, (4, 4)),
         "tilted family requires dims (2, 2)"),
        (FamilySpec("junk-embedded", {"count": 0}, (3, 3)),
         "junk-embedded dims must be even and >= 2, got (3, 3)"),
    ], ids=["tilted", "junk-embedded"])
    def test_empty_sweep_checks_the_kinds_dims(self, spec, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            sweep(spec)

    def test_list_dims_of_a_two_by_two_kind_still_checked(self):
        with pytest.raises(ValueError, match=r"tilted family requires dims \(2, 2\)"):
            sweep(FamilySpec("tilted", {"theta": 0.1}, [2, 4]))

    @pytest.mark.parametrize("kind,name,at_cap,over_cap", [
        ("random", "count", MAX_SWEEP_POINTS, MAX_SWEEP_POINTS + 1),
        ("tilted", "theta", [0.0, 1.0, MAX_SWEEP_POINTS], [0.0, 1.0, MAX_SWEEP_POINTS + 1]),
    ])
    def test_point_count_ceiling(self, kind, name, at_cap, over_cap):
        assert len(family_axis(FamilySpec(kind, {name: at_cap}))[1]) == MAX_SWEEP_POINTS
        with pytest.raises(ValueError, match=f"{name}.* at most {MAX_SWEEP_POINTS}"):
            family_axis(FamilySpec(kind, {name: over_cap}))

    def test_points_are_built_one_chunk_at_a_time(self, monkeypatch):
        built = []
        build = explorer._build_chunk

        def counting_build(spec, base, values, start):
            built.append((start, len(values)))
            return build(spec, base, values, start)

        monkeypatch.setattr(explorer, "_build_chunk", counting_build)
        chunks = family_chunks(FamilySpec("random", {"count": MAX_SWEEP_POINTS}, (3, 3)))
        assert built == []
        values, stack = next(chunks)
        size = explorer.CHUNK_ELEMENTS // (40 * 9)
        assert built == [(0, size)] and len(stack) == size < MAX_SWEEP_POINTS
        assert values == [float(i) for i in range(size)]
        assert stack.dims == (3, 3) and stack.state.shape == (size, 9)


class TestSweep:
    def test_tilted_sweep_slack_nonnegative(self):
        spec = FamilySpec(
            "tilted",
            {"theta": {"start": math.pi / 4, "stop": math.pi / 8, "steps": 20}},
        )
        records = sweep(spec)
        assert len(records) == 20
        for record in records:
            assert record.slack >= -1e-9
            assert not record.degenerate

    def test_state_noise_epsilons_recorded(self):
        spec = FamilySpec(
            "state-noise", {"p": {"start": 0.0, "stop": 0.05, "steps": 10}}, seed=21
        )
        records = sweep(spec)
        assert len(records) == 10
        assert all(math.isfinite(r.epsilon) for r in records)
        # trend is reported, not asserted: the first (p = 0) point is exact
        assert records[0].epsilon <= 1e-12

    def test_zero_length_range(self):
        spec = FamilySpec("tilted", {"theta": {"start": 0.1, "stop": 0.2, "steps": 0}})
        assert sweep(spec) == []

    def test_degenerate_point_recorded_in_row(self):
        # theta = pi/2 is the |11> state: the junk candidate vanishes there
        spec = FamilySpec(
            "tilted", {"theta": {"start": math.pi / 4, "stop": math.pi / 2, "steps": 3}}
        )
        records = sweep(spec)
        assert len(records) == 3
        assert not records[0].degenerate
        assert records[-1].degenerate
        assert math.isnan(records[-1].max_extraction_error)
        assert math.isnan(records[-1].slack)

    def test_my_mode_sweep(self):
        spec = FamilySpec(
            "measurement-noise", {"eta": {"start": 0.0, "stop": 0.05, "steps": 5}},
            seed=22, mode="my",
        )
        records = sweep(spec)
        assert len(records) == 5
        for record in records:
            assert record.slack >= -1e-9


class TestEvaluateDevice:
    def test_unknown_mode_raises(self):
        # a mode name that is not registered must not fall through to MY
        message = "mode must be 'chsh' or 'my', got 'CHSH'"
        with pytest.raises(ValueError, match=message):
            certify(canonical_my_device(), "CHSH")
        with pytest.raises(ValueError, match=message):
            sweep(FamilySpec("tilted", {"theta": 0.3}, mode="CHSH"))
        with pytest.raises(ValueError, match=message):
            worst_case_search("CHSH", 0.01, (2, 2), 1, 0)

    def test_unknown_family_mode_raises(self):
        with pytest.raises(ValueError, match="mode must be"):
            make_family(FamilySpec("tilted", {"theta": 0.3}, mode="bell"))

    @pytest.mark.parametrize("mode", ["chsh", "my"])
    def test_epsilon_is_a_python_float(self, mode):
        spec = FamilySpec("measurement-noise", {"eta": [0.0, 0.1, 3]}, seed=1, mode=mode)
        device = get_mode(mode).canonical()
        epsilons = [record.epsilon for record in sweep(spec)]
        epsilons.append(worst_case_search(mode, 0.05, (2, 2), 20, 1).record.epsilon)
        epsilons.append(certify(device, mode).epsilon)
        assert [type(eps) for eps in epsilons] == [float] * 5


class TestWorstCaseSearch:
    def test_budget_one_returns_seed_proposal(self):
        result = worst_case_search("chsh", 0.01, (2, 2), 1, 42)
        assert result.found and result.evaluations == 1
        assert result.record.epsilon <= 1e-12
        assert result.record.max_extraction_error <= 1e-9

    def test_tiny_ceiling_pins_canonical_point(self):
        result = worst_case_search("chsh", 1e-9, (2, 2), 50, 42)
        assert result.found
        assert result.record.epsilon <= 1e-9
        assert result.record.max_extraction_error <= 1e-3

    def test_search_finds_positive_slack(self):
        result = worst_case_search("chsh", 0.01, (2, 2), 2000, 7)
        assert result.found
        record = result.record
        assert 0.0 <= record.epsilon <= 0.01
        assert record.max_extraction_error > 0.01
        assert record.slack > 0.0

    def test_record_reproducible_by_reevaluation(self):
        # The search's record comes from the same floating-point path as
        # certify on its best device, so every field agrees exactly.
        for mode, ceiling in (("chsh", 0.01), ("my", 0.02)):
            result = worst_case_search(mode, ceiling, (2, 2), 300, 3)
            assert certified_record(result.device, mode) == result.record
            assert certify(result.device, mode).all_pass

    def test_deterministic(self):
        a = worst_case_search("my", 0.02, (2, 2), 150, 11)
        b = worst_case_search("my", 0.02, (2, 2), 150, 11)
        assert a.record == b.record

    def test_argument_validation(self):
        with pytest.raises(ValueError, match="budget"):
            worst_case_search("chsh", 0.01, (2, 2), 0, 1)
        with pytest.raises(ValueError, match="ceiling"):
            worst_case_search("chsh", 0.0, (2, 2), 10, 1)
        with pytest.raises(ValueError, match="ceiling"):
            worst_case_search("chsh", 1.0, (2, 2), 10, 1)
        with pytest.raises(ValueError, match="dims"):
            worst_case_search("chsh", 0.01, (1, 2), 10, 1)

    @pytest.mark.parametrize("dims,budget,seed,named", [
        ((2.7, 2), 10, 1, "dims"),
        ((2, 2.0), 10, 1, "dims"),
        ((True, 2), 10, 1, "dims"),
        ((2, 2, 2), 10, 1, "dims"),
        ((2, 2), 2.5, 1, "budget"),
        ((2, 2), True, 1, "budget"),
        ((2, 2), 10, -1, "seed"),
        ((2, 2), 10, 1.5, "seed"),
        ((2, 2), 10, True, "seed"),
        (4, 10, 1, "dims"),
        (None, 10, 1, "dims"),
    ])
    def test_non_integer_arguments_rejected(self, dims, budget, seed, named):
        with pytest.raises(ValueError, match=f"^{named} must be"):
            worst_case_search("chsh", 0.01, dims, budget, seed)

    def test_outcomes_count_every_evaluation(self):
        result = worst_case_search("chsh", 0.01, (2, 2), 200, 7)
        assert result.feasible > 0 and result.over_ceiling > 0
        assert (result.feasible + result.over_ceiling
                + result.degenerate) == result.evaluations == 200

    def test_degenerate_outcomes_count_once(self, monkeypatch):
        # Degeneracy is injected by a rule on the proposal: one that reaches
        # the stages (so is within the ceiling) is degenerate when its last
        # amplitude, in millionths, is 1 mod 4.  Each counts once.
        evaluate_stack = explorer._evaluate_stack

        def degenerate_some(stack, mode, epsilons):
            assert len(stack) == 1 and epsilons[0] <= 0.3
            (record,) = evaluate_stack(stack, mode, epsilons)
            marked = int(abs(stack.state[0][-1]) * 1e6) % 4 == 1
            return [dataclasses.replace(record, degenerate=marked)]

        monkeypatch.setattr(explorer, "_evaluate_stack", degenerate_some)
        spy = SearchSpy(monkeypatch)
        result = worst_case_search("my", 0.3, (3, 2), 80, 5)
        degenerate = sum(flagged for batch in spy.batches for _, flagged in batch["staged"])
        assert result.evaluations == 80
        assert result.degenerate == degenerate
        assert result.feasible + result.over_ceiling + result.degenerate == 80
        assert min(result.feasible, result.over_ceiling, result.degenerate) > 0
        assert max(len(batch["states"]) for batch in spy.batches) > 1

    @pytest.mark.parametrize("reached", [True, False], ids=["reached", "unreached"])
    def test_an_invalid_proposal_raises(self, monkeypatch, reached):
        # The first proposal within the ceiling of a stack, which the chain
        # checks, or the stack's last row past it, which the chain never
        # reaches, is made to fail validation: either raises, naming it.
        validate_stack = explorer.validate_stack
        deviations = get_mode("chsh").deviations

        def invalid_within(stack):
            violations = validate_stack(stack)
            within = [i for i, eps in enumerate(deviations(stack)[2].tolist()) if eps <= 0.01]
            if within and (reached or within[0] < len(stack) - 1):
                violations[within[0] if reached else -1] = ["A0: O^2 != I"]
            return violations

        monkeypatch.setattr(explorer, "validate_stack", invalid_within)
        with pytest.raises(ValueError, match=r"^search produced an invalid proposal: "
                                             r"A0: O\^2 != I$"):
            worst_case_search("chsh", 0.01, (2, 2), 200, 7)

    @pytest.mark.parametrize("mode,seed", [("chsh", 2024), ("my", 7)])
    def test_over_ceiling_proposals_skip_the_stages(self, monkeypatch, mode, seed):
        # Epsilon is computed for every proposal of a stack, once per stack,
        # and only the proposals within the ceiling reach the extraction
        # circuit.
        extractions = []
        extraction_stack = bounds.extraction_stack

        def counted(*args):
            extractions.append(args)
            return extraction_stack(*args)

        monkeypatch.setattr(bounds, "extraction_stack", counted)
        spy = SearchSpy(monkeypatch)
        result = worst_case_search(mode, 0.05, (4, 4), 200, seed)
        assert result.over_ceiling > 0
        checked_rows = 0
        for batch, checked in spy.reached():
            assert batch["correlated"] == batch["states"]
            checked_rows += checked
        assert checked_rows == result.evaluations
        assert len(extractions) == result.feasible + result.degenerate

    def test_unchecked_proposals_raise(self, monkeypatch):
        # A stack whose correlations raise past its first proposal within the
        # ceiling holds a row the chain never reaches: the error still raises.
        correlation_stack = bounds.correlation_stack

        def raise_past_the_first_feasible(stack, pairs):
            values = correlation_stack(stack, pairs)
            _, epsilons = get_mode("chsh").deviation(values)
            within = [i for i, eps in enumerate(epsilons.tolist()) if eps <= 0.01]
            if within and within[0] < len(stack) - 1:
                raise ValueError("correlation <A0 B0> has imaginary part 1e-09 above tolerance")
            return values

        monkeypatch.setattr(bounds, "correlation_stack", raise_past_the_first_feasible)
        with pytest.raises(ValueError, match="imaginary part"):
            worst_case_search("chsh", 0.01, (2, 2), 200, 7)

    def test_a_checked_proposal_raises(self, monkeypatch):
        correlation_stack = bounds.correlation_stack

        def raise_on_a_marked_row(stack, pairs):
            if any(int(abs(state[-1]) * 1e6) % 7 == 0 for state in stack.state):
                raise ValueError("correlation <A0 B0> has imaginary part 1e-09 above tolerance")
            return correlation_stack(stack, pairs)

        monkeypatch.setattr(bounds, "correlation_stack", raise_on_a_marked_row)
        with pytest.raises(ValueError, match="imaginary part"):
            worst_case_search("chsh", 0.01, (2, 2), 200, 7)


# Captured before epsilon was checked ahead of the pipeline: mode, dims, seed,
# the feasible count, a digest of the best device's arrays, and the repr of
# its record (ceiling 0.05, budget 200).  Checking epsilon first must
# reproduce every entry.
SEARCH_PINS = [
    ("chsh", (2, 2), 11, 67, "262cf5f38784d474",
     "SweepRecord(epsilon=0.045361999474531345, eps1_measured=0.255654637785549,"
     " eps2_measured=0.24071313583256757, max_extraction_error=0.30707376523158386,"
     " extraction_bound=2.007883347401938, slack=1.7008095821703542, degenerate=False)"),
    ("chsh", (2, 2), 12, 68, "64984916227fd1e6",
     "SweepRecord(epsilon=0.04028226320085215, eps1_measured=0.21725190367985295,"
     " eps2_measured=0.16201207476493693, max_extraction_error=0.2446499213051235,"
     " extraction_bound=1.5999156571515334, slack=1.35526573584641, degenerate=False)"),
    ("chsh", (3, 2), 11, 55, "69dd0451afb4919d",
     "SweepRecord(epsilon=0.04485311324291397, eps1_measured=0.20556285574357813,"
     " eps2_measured=0.15922145466109372, max_extraction_error=0.24395451793807005,"
     " extraction_bound=1.528649343242414, slack=1.284694825304344, degenerate=False)"),
    ("chsh", (3, 2), 12, 47, "aebf107b29dcc470",
     "SweepRecord(epsilon=0.04960570335456138, eps1_measured=0.29226927535813246,"
     " eps2_measured=0.1874482810775146, max_extraction_error=0.3231760489104417,"
     " extraction_bound=2.0761017171635148, slack=1.7529256682530732, degenerate=False)"),
    ("chsh", (4, 4), 11, 99, "a02d726ce0421220",
     "SweepRecord(epsilon=0.04685473513789429, eps1_measured=0.13784429270674095,"
     " eps2_measured=0.1661204831090408, max_extraction_error=0.23320271146750268,"
     " extraction_bound=1.1734448176596772, slack=0.9402421061921745, degenerate=False)"),
    ("chsh", (4, 4), 12, 87, "a851a0c7e1178822",
     "SweepRecord(epsilon=0.04922641120991189, eps1_measured=0.2399935514574681,"
     " eps2_measured=0.23400138794984895, max_extraction_error=0.3193186931630728,"
     " extraction_bound=1.9049680028906968, slack=1.585649309727624, degenerate=False)"),
    ("my", (2, 2), 11, 31, "50bb4ba94b77f57b",
     "SweepRecord(epsilon=0.04491438816411919, eps1_measured=0.10621552080771665,"
     " eps2_measured=0.2997144913550848, max_extraction_error=0.20362205443355227,"
     " extraction_bound=1.3334715928301537, slack=1.1298495383966014, degenerate=False)"),
    ("my", (2, 2), 12, 16, "ec97a83b975e264a",
     "SweepRecord(epsilon=0.04994404314650785, eps1_measured=0.019459582267722327,"
     " eps2_measured=0.29189888784690354, max_extraction_error=0.25223374542422056,"
     " extraction_bound=0.8367749220897317, slack=0.5845411766655111, degenerate=False)"),
    ("my", (3, 2), 11, 5, "d4b393b50f066a94",
     "SweepRecord(epsilon=0.044526102920254274, eps1_measured=0.0896620788499234,"
     " eps2_measured=0.29841616216369554, max_extraction_error=0.2537463237752277,"
     " extraction_bound=1.2391818390838176, slack=0.9854355153085899, degenerate=False)"),
    ("my", (3, 2), 12, 11, "74df602453023248",
     "SweepRecord(epsilon=0.04367905030622998, eps1_measured=0.160637985512065,"
     " eps2_measured=0.29183714215956064, max_extraction_error=0.3099202770912348,"
     " extraction_bound=1.613101775715259, slack=1.3031814986240242, degenerate=False)"),
    ("my", (4, 4), 11, 63, "c95dc098779e0544",
     "SweepRecord(epsilon=0.049429106730255024, eps1_measured=0.20097066894341298,"
     " eps2_measured=0.3144172601186402, max_extraction_error=0.30445103426507136,"
     " extraction_bound=1.891381829485372, slack=1.5869307952203004, degenerate=False)"),
    ("my", (4, 4), 12, 49, "2c9e91a9b33d511f",
     "SweepRecord(epsilon=0.04771490616427432, eps1_measured=0.19333459875373127,"
     " eps2_measured=0.30891716094860555, max_extraction_error=0.29457003852808966,"
     " extraction_bound=1.835633195517036, slack=1.5410631569889464, degenerate=False)"),
]


def _device_digest(device) -> str:
    h = hashlib.sha256(device.state.tobytes())
    for party in (device.alice_obs, device.bob_obs):
        for name, m in party.items():
            h.update(name.encode())
            h.update(m.tobytes())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("mode,dims,seed,feasible,digest,record", SEARCH_PINS,
                         ids=[f"{pin[0]}-{pin[1][0]}x{pin[1][1]}-{pin[2]}" for pin in SEARCH_PINS])
def test_search_reproduces_its_pin(mode, dims, seed, feasible, digest, record):
    result = worst_case_search(mode, 0.05, dims, 200, seed)
    assert result.feasible == feasible
    assert result.feasible + result.over_ceiling + result.degenerate == result.evaluations
    assert _device_digest(result.device) == digest
    assert repr(result.record) == record


# Captured before proposals were built and checked as speculative stacks:
# mode, dims, ceiling, the feasible and over-ceiling counts, the best
# device's digest and its record's repr (budget 300, seed 13).  At these
# ceilings most proposals are over the ceiling, so the batches grow to the
# chunk cap, and a feasible row in mid-batch rewinds the generator.
SMALL_CEILING_PINS = [
    ("chsh", (2, 2), 0.001, 3, 297, "9484155f563036ea",
     "SweepRecord(epsilon=0.00028542163508760154, eps1_measured=0.008283166677420566,"
     " eps2_measured=0.012595566437679177, max_extraction_error=0.013194284318164872,"
     " extraction_bound=0.07704633282001105, slack=0.06385204850184618, degenerate=False)"),
    ("chsh", (2, 2), 0.01, 42, 258, "b795d4b2092e3acf",
     "SweepRecord(epsilon=0.009446839319975364, eps1_measured=0.09669185094276773,"
     " eps2_measured=0.10980595908668443, max_extraction_error=0.12457283831910575,"
     " extraction_bound=0.8063200779019335, slack=0.6817472395828278, degenerate=False)"),
    ("chsh", (4, 4), 0.001, 1, 299, "d810e99e55f5e3ab",
     "SweepRecord(epsilon=0.0, eps1_measured=7.573404258406632e-16,"
     " eps2_measured=1.169724717459184e-15, max_extraction_error=1.4113101588883694e-15,"
     " extraction_bound=7.0896841357716074e-15, slack=5.678373976883238e-15, degenerate=False)"),
    ("chsh", (4, 4), 0.01, 41, 259, "bab2f4f8ea44027c",
     "SweepRecord(epsilon=0.009453154123524765, eps1_measured=0.08785076706408644,"
     " eps2_measured=0.09461693887675296, max_extraction_error=0.1171609152204021,"
     " extraction_bound=0.7197215660443579, slack=0.6025606508239558, degenerate=False)"),
    ("my", (2, 2), 0.001, 1, 299, "8a467046d2eee6f5",
     "SweepRecord(epsilon=2.4424906541753444e-15, eps1_measured=3.161386885810692e-16,"
     " eps2_measured=3.510833468576701e-16, max_extraction_error=3.2493189146828285e-15,"
     " extraction_bound=2.616471154340056e-15, slack=-6.328477603427727e-16, degenerate=False)"),
    ("my", (2, 2), 0.01, 4, 296, "05da5a564bfc30e7",
     "SweepRecord(epsilon=0.007467131339635502, eps1_measured=0.008252926485582785,"
     " eps2_measured=0.12220582097130848, max_extraction_error=0.06748164786013133,"
     " extraction_bound=0.3509056480989765, slack=0.2834240002388452, degenerate=False)"),
    ("my", (4, 4), 0.001, 1, 299, "cff2845b3cfbacfc",
     "SweepRecord(epsilon=1.1102230246251565e-15, eps1_measured=7.573404258406632e-16,"
     " eps2_measured=1.1224849760106866e-15, max_extraction_error=2.2252257297058496e-15,"
     " extraction_bound=6.971584782150363e-15, slack=4.746359052444514e-15, degenerate=False)"),
    ("my", (4, 4), 0.01, 2, 298, "b0a0fd899f2aa7ed",
     "SweepRecord(epsilon=0.00502308853575284, eps1_measured=0.02053804974816694,"
     " eps2_measured=0.03884085158115109, max_extraction_error=0.0388164146855736,"
     " extraction_bound=0.21006140256779587, slack=0.17124498788222228, degenerate=False)"),
]


@pytest.mark.parametrize(
    "mode,dims,ceiling,feasible,over_ceiling,digest,record", SMALL_CEILING_PINS,
    ids=[f"{pin[0]}-{pin[1][0]}x{pin[1][1]}-{pin[2]:g}" for pin in SMALL_CEILING_PINS])
def test_small_ceiling_search_reproduces_its_pin(mode, dims, ceiling, feasible, over_ceiling,
                                                 digest, record):
    result = worst_case_search(mode, ceiling, dims, 300, 13)
    assert (result.feasible, result.over_ceiling) == (feasible, over_ceiling)
    assert result.feasible + result.over_ceiling + result.degenerate == result.evaluations
    assert _device_digest(result.device) == digest
    assert repr(result.record) == record


class TestSearchProposal:
    """The rotation table's proposals are the per-observable ones, bit for bit."""

    @staticmethod
    def _setup(mode, dims, seed):
        """The search's fixed data, from two copies of one seeded stream: the
        generators the oracle rotates by one at a time, and the table."""
        base = get_mode(mode).canonical()
        rng = np.random.default_rng(seed)
        block = np.zeros(dims, dtype=complex)
        block[:2, :2] = PHI_PLUS.reshape(2, 2)
        qubit_state = block.reshape(-1)
        state_dirs = np.stack([explorer._orthogonal_noise(rng, qubit_state) for _ in range(2)])
        table = explorer._rotation_table(base, dims, copy.deepcopy(rng))
        generators = {}
        for name in list(base.alice_obs) + list(base.bob_obs):
            dim = dims[0] if name in base.alice_obs else dims[1]
            generators[name] = explorer._hermitian_unit(explorer._complex_normal(rng, dim, dim))
        return base, qubit_state, state_dirs, generators, table, rng

    @pytest.mark.parametrize("mode", ["chsh", "my"])
    @pytest.mark.parametrize("dims", [(2, 2), (3, 2), (4, 4), (5, 3)])
    def test_bytes_match_the_oracle(self, mode, dims):
        base, qubit_state, state_dirs, generators, table, rng = self._setup(mode, dims,
                                                                           sum(dims))
        n = 2 + len(generators)
        vectors = [np.zeros(n), -np.zeros(n), np.array([-0.0, 0.0] * n)[:n]]
        vectors += [rng.normal(scale=scale, size=n) for scale in (1e-3, 0.05, 0.5, 3.0)]
        mixed = rng.normal(scale=0.05, size=n)
        mixed[::2] = -0.0
        vectors.append(mixed)
        # Every row of a stack, and the same row alone, equals the oracle.
        for params in [np.array(vectors)] + [vector[None] for vector in vectors]:
            stack = explorer._search_proposals(dims, qubit_state, state_dirs, table, params)
            assert stack.dims == dims and len(stack) == len(params)
            for row, vector in enumerate(params):
                want = search_proposal_oracle(base, dims, qubit_state, state_dirs,
                                              generators, vector)
                got = stack.select(slice(row, row + 1))
                assert got.state.dtype == want.state.dtype
                assert got.state.tobytes() == want.state.tobytes()
                for party in ("alice_obs", "bob_obs"):
                    got_obs, want_obs = getattr(got, party), getattr(want, party)
                    assert list(got_obs) == list(want_obs)
                    for name, m in want_obs.items():
                        assert got_obs[name].shape == m.shape
                        assert got_obs[name].tobytes() == m.tobytes(), (vector, name)

    def test_proposal_arrays_are_read_only(self):
        _, qubit_state, state_dirs, _, table, rng = self._setup("chsh", (3, 2), 1)
        stack = explorer._search_proposals((3, 2), qubit_state, state_dirs, table,
                                           rng.normal(size=(4, 6)))
        for array in (stack.state, *stack.alice_obs.values(), *stack.bob_obs.values()):
            assert not array.flags.writeable
