from __future__ import annotations

import copy
import dataclasses
import hashlib
import math

import numpy as np
import pytest

from helpers import chsh_value, make_family, my_deviation, search_proposal_oracle
from singlet_selftest.bounds import certify, get_mode
from singlet_selftest.device import canonical_chsh_device, canonical_my_device, validate
from singlet_selftest.derive import condition_residuals, derive_chsh_operators
from singlet_selftest import explorer
from singlet_selftest.explorer import (
    MAX_SWEEP_POINTS,
    FamilySpec,
    evaluate_device,
    family_axis,
    family_chunks,
    sweep,
    worst_case_search,
)
from singlet_selftest.isometry import extraction_error
from singlet_selftest.linalg import PHI_PLUS

SQRT2 = math.sqrt(2.0)


class TestCanonicalDevices:
    def test_chsh_point(self):
        device = canonical_chsh_device()
        assert validate(device) == []
        value, eps = chsh_value(device)
        assert value == pytest.approx(2.8284271247461903, abs=1e-12)
        result = extraction_error(device, derive_chsh_operators(device))
        assert result.max_error <= 1e-9

    def test_my_point(self):
        device = canonical_my_device()
        assert validate(device) == []
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
            res = condition_residuals(device.state, ops)
            assert max(res.anticomm_a, res.anticomm_b, res.diff_x, res.diff_z) <= 1e-9
            assert extraction_error(device, ops).max_error <= 1e-9

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
                assert validate(device) == [], spec.kind

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
        with pytest.raises(ValueError, match="mode must be 'chsh' or 'my', got 'CHSH'"):
            evaluate_device(canonical_my_device(), "CHSH")

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
        # The search's epsilon and record come from the same floating-point
        # path as a fresh evaluation, so they agree exactly.
        for mode, ceiling in (("chsh", 0.01), ("my", 0.02)):
            result = worst_case_search(mode, ceiling, (2, 2), 300, 3)
            fresh = evaluate_device(result.device, mode)
            assert fresh.max_extraction_error == result.record.max_extraction_error
            assert fresh.epsilon == result.record.epsilon
            report = certify(result.device, mode)
            assert report.all_pass

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
    ])
    def test_non_integer_arguments_rejected(self, dims, budget, seed, named):
        with pytest.raises(ValueError, match=f"^{named} must be"):
            worst_case_search("chsh", 0.01, dims, budget, seed)

    def test_outcomes_count_every_evaluation(self):
        result = worst_case_search("chsh", 0.01, (2, 2), 200, 7)
        assert result.feasible > 0 and result.over_ceiling > 0
        assert (result.feasible + result.invalid + result.over_ceiling
                + result.degenerate) == result.evaluations == 200

    def test_outcomes_count_each_rejection_once(self, monkeypatch):
        # Every third proposal fails validation, and every fifth one that
        # reaches the stages (so is within the ceiling) is degenerate: 7
        # invalid of 21, and 2 degenerate of the 11 + 2 under the ceiling.
        calls = {"validate": 0, "evaluate": 0}
        evaluate_stack = explorer._evaluate_stack

        def validate_some(device):
            calls["validate"] += 1
            return ["rejected"] if calls["validate"] % 3 == 0 else validate(device)

        def degenerate_some(stack, mode, epsilons):
            assert len(stack) == 1 and epsilons[0] <= 0.3
            calls["evaluate"] += 1
            records = evaluate_stack(stack, mode, epsilons)
            if calls["evaluate"] % 5 == 0:
                return [dataclasses.replace(record, degenerate=True) for record in records]
            return records

        monkeypatch.setattr(explorer, "validate", validate_some)
        monkeypatch.setattr(explorer, "_evaluate_stack", degenerate_some)
        result = worst_case_search("my", 0.3, (3, 2), 21, 5)
        assert result.evaluations == 21
        assert result.invalid == 7 and result.degenerate == 2
        assert result.feasible + result.over_ceiling == 12
        assert result.feasible > 0 and result.over_ceiling > 0

    @pytest.mark.parametrize("mode,seed", [("chsh", 2024), ("my", 7)])
    def test_over_ceiling_proposals_skip_the_stages(self, monkeypatch, mode, seed):
        # Epsilon is computed once per valid proposal, and only the proposals
        # within the ceiling reach the extraction circuit.
        calls = {"correlations": 0, "extraction_stack": 0}

        def counted(name):
            function = getattr(explorer, name)

            def count(*args):
                calls[name] += 1
                return function(*args)
            return count

        for name in calls:
            monkeypatch.setattr(explorer, name, counted(name))
        result = worst_case_search(mode, 0.05, (4, 4), 200, seed)
        assert result.over_ceiling > 0
        assert calls["correlations"] == result.evaluations - result.invalid
        assert calls["extraction_stack"] == result.feasible + result.degenerate


# Captured before epsilon was checked ahead of the pipeline: mode, dims, seed,
# the feasible and invalid counts, a digest of the best device's arrays, and
# the repr of its record (ceiling 0.05, budget 200).  Checking epsilon first
# must reproduce every entry.
SEARCH_PINS = [
    ("chsh", (2, 2), 11, 67, 0, "262cf5f38784d474",
     "SweepRecord(epsilon=0.045361999474531345, eps1_measured=0.255654637785549,"
     " eps2_measured=0.24071313583256757, max_extraction_error=0.30707376523158386,"
     " extraction_bound=2.007883347401938, slack=1.7008095821703542, degenerate=False)"),
    ("chsh", (2, 2), 12, 68, 0, "64984916227fd1e6",
     "SweepRecord(epsilon=0.04028226320085215, eps1_measured=0.21725190367985295,"
     " eps2_measured=0.16201207476493693, max_extraction_error=0.2446499213051235,"
     " extraction_bound=1.5999156571515334, slack=1.35526573584641, degenerate=False)"),
    ("chsh", (3, 2), 11, 55, 0, "69dd0451afb4919d",
     "SweepRecord(epsilon=0.04485311324291397, eps1_measured=0.20556285574357813,"
     " eps2_measured=0.15922145466109372, max_extraction_error=0.24395451793807005,"
     " extraction_bound=1.528649343242414, slack=1.284694825304344, degenerate=False)"),
    ("chsh", (3, 2), 12, 47, 0, "aebf107b29dcc470",
     "SweepRecord(epsilon=0.04960570335456138, eps1_measured=0.29226927535813246,"
     " eps2_measured=0.1874482810775146, max_extraction_error=0.3231760489104417,"
     " extraction_bound=2.0761017171635148, slack=1.7529256682530732, degenerate=False)"),
    ("chsh", (4, 4), 11, 99, 0, "a02d726ce0421220",
     "SweepRecord(epsilon=0.04685473513789429, eps1_measured=0.13784429270674095,"
     " eps2_measured=0.1661204831090408, max_extraction_error=0.23320271146750268,"
     " extraction_bound=1.1734448176596772, slack=0.9402421061921745, degenerate=False)"),
    ("chsh", (4, 4), 12, 87, 0, "a851a0c7e1178822",
     "SweepRecord(epsilon=0.04922641120991189, eps1_measured=0.2399935514574681,"
     " eps2_measured=0.23400138794984895, max_extraction_error=0.3193186931630728,"
     " extraction_bound=1.9049680028906968, slack=1.585649309727624, degenerate=False)"),
    ("my", (2, 2), 11, 31, 0, "50bb4ba94b77f57b",
     "SweepRecord(epsilon=0.04491438816411919, eps1_measured=0.10621552080771665,"
     " eps2_measured=0.2997144913550848, max_extraction_error=0.20362205443355227,"
     " extraction_bound=1.3334715928301537, slack=1.1298495383966014, degenerate=False)"),
    ("my", (2, 2), 12, 16, 0, "ec97a83b975e264a",
     "SweepRecord(epsilon=0.04994404314650785, eps1_measured=0.019459582267722327,"
     " eps2_measured=0.29189888784690354, max_extraction_error=0.25223374542422056,"
     " extraction_bound=0.8367749220897317, slack=0.5845411766655111, degenerate=False)"),
    ("my", (3, 2), 11, 5, 0, "d4b393b50f066a94",
     "SweepRecord(epsilon=0.044526102920254274, eps1_measured=0.0896620788499234,"
     " eps2_measured=0.29841616216369554, max_extraction_error=0.2537463237752277,"
     " extraction_bound=1.2391818390838176, slack=0.9854355153085899, degenerate=False)"),
    ("my", (3, 2), 12, 11, 0, "74df602453023248",
     "SweepRecord(epsilon=0.04367905030622998, eps1_measured=0.160637985512065,"
     " eps2_measured=0.29183714215956064, max_extraction_error=0.3099202770912348,"
     " extraction_bound=1.613101775715259, slack=1.3031814986240242, degenerate=False)"),
    ("my", (4, 4), 11, 63, 0, "c95dc098779e0544",
     "SweepRecord(epsilon=0.049429106730255024, eps1_measured=0.20097066894341298,"
     " eps2_measured=0.3144172601186402, max_extraction_error=0.30445103426507136,"
     " extraction_bound=1.891381829485372, slack=1.5869307952203004, degenerate=False)"),
    ("my", (4, 4), 12, 49, 0, "2c9e91a9b33d511f",
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


@pytest.mark.parametrize("mode,dims,seed,feasible,invalid,digest,record", SEARCH_PINS,
                         ids=[f"{pin[0]}-{pin[1][0]}x{pin[1][1]}-{pin[2]}" for pin in SEARCH_PINS])
def test_search_reproduces_its_pin(mode, dims, seed, feasible, invalid, digest, record):
    result = worst_case_search(mode, 0.05, dims, 200, seed)
    assert (result.feasible, result.invalid) == (feasible, invalid)
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
        for params in vectors:
            want = search_proposal_oracle(base, dims, qubit_state, state_dirs, generators,
                                          params)
            got = explorer._search_proposal(dims, qubit_state, state_dirs, table, params)
            assert got.dims == want.dims
            assert got.state.dtype == want.state.dtype
            assert got.state.tobytes() == want.state.tobytes()
            for party in ("alice_obs", "bob_obs"):
                got_obs, want_obs = getattr(got, party), getattr(want, party)
                assert list(got_obs) == list(want_obs)
                for name, m in want_obs.items():
                    assert got_obs[name].shape == m.shape
                    assert got_obs[name].tobytes() == m.tobytes(), (params, name)

    def test_proposal_arrays_are_read_only(self):
        _, qubit_state, state_dirs, _, table, rng = self._setup("chsh", (3, 2), 1)
        device = explorer._search_proposal((3, 2), qubit_state, state_dirs, table,
                                           rng.normal(size=6))
        for array in (device.state, *device.alice_obs.values(), *device.bob_obs.values()):
            assert not array.flags.writeable
