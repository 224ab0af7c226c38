"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Corpora are generated deterministically from fixed seeds and cached across
criteria, so the whole suite is reproducible run to run.
"""

from __future__ import annotations

import functools
import json
import math
import time

import numpy as np

from embedded_oracle import tensor_embed
from helpers import chsh_value, family_points, my_deviation, save_device
from isometry_oracle import apply_isometry, isometry_expansion
from singlet_selftest.bounds import (
    b_extraction_bound,
    extraction_bound,
    fidelity_block,
    my_fidelity_bound,
)
from singlet_selftest.cli import main
from singlet_selftest.derive import (
    chsh_budget,
    chsh_diagnostics,
    derive_chsh_operators,
    my_budget,
    my_diagnostics,
    my_operators,
    residual_stack,
)
from singlet_selftest.device import (
    DeviceStack,
    canonical_chsh_device,
    canonical_my_device,
    make_device,
    validate_stack,
)
from singlet_selftest.documents import load_device
from singlet_selftest.explorer import FamilySpec
from singlet_selftest.isometry import (
    OPERATOR_PAIRS,
    b_operator_stack,
    extraction_stack,
    junk_stack,
)

SQRT2 = math.sqrt(2.0)


def report_line(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] acceptance criterion {number}: {detail}")
    assert ok, f"criterion {number} failed: {detail}"


@functools.lru_cache(maxsize=None)
def extraction_corpus():
    """200 devices: tilted, state-noise (p<=0.05), measurement-noise (eta<=0.3),
    junk-embedded; 50 each."""
    specs = [
        FamilySpec("tilted", {"theta": {"start": math.pi / 4, "stop": math.pi / 8, "steps": 50}}, (2, 2), 11),
        FamilySpec("state-noise", {"p": {"start": 0.0, "stop": 0.05, "steps": 50}}, (2, 2), 12),
        FamilySpec("measurement-noise", {"eta": {"start": 0.0, "stop": 0.3, "steps": 50}}, (2, 2), 13),
        FamilySpec("junk-embedded", {"count": 50}, (4, 4), 14),
    ]
    devices = []
    for spec in specs:
        for params, device in family_points(spec):
            assert validate_stack(DeviceStack.of(device)) == [[]]
            devices.append((spec.kind, params, device))
    return devices


@functools.lru_cache(maxsize=None)
def chsh_epsilon_corpus():
    """CHSH devices with measured deficit strictly inside (0, 0.2)."""
    specs = [
        FamilySpec("tilted", {"theta": {"start": 0.52, "stop": math.pi / 4 - 0.002, "steps": 70}}, (2, 2), 21),
        FamilySpec("state-noise", {"p": {"start": 0.001, "stop": 0.05, "steps": 70}}, (2, 2), 22),
        FamilySpec("measurement-noise", {"eta": {"start": 0.005, "stop": 0.12, "steps": 70}}, (2, 2), 23),
    ]
    corpus = []
    for spec in specs:
        for params, device in family_points(spec):
            _, eps = chsh_value(device)
            if 0.0 < eps < 0.2:
                corpus.append((device, eps))
    return corpus


@functools.lru_cache(maxsize=None)
def my_epsilon_corpus():
    """Mayers-Yao devices with measured deviation strictly inside (0, 0.1)."""
    specs = [
        FamilySpec("state-noise", {"p": {"start": 0.0005, "stop": 0.03, "steps": 140}}, (2, 2), 31, mode="my"),
        FamilySpec("measurement-noise", {"eta": {"start": 0.002, "stop": 0.08, "steps": 140}}, (2, 2), 32, mode="my"),
    ]
    corpus = []
    for spec in specs:
        for params, device in family_points(spec):
            _, eps = my_deviation(device)
            if 0.0 < eps < 0.1:
                corpus.append((device, eps))
    return corpus


def test_criterion_01_exact_chsh_point():
    start = time.monotonic()
    device = canonical_chsh_device()
    value, _ = chsh_value(device)
    ops = derive_chsh_operators(device)
    psi = device.state.reshape(1, *device.dims)
    res = residual_stack(psi, ops)[0]
    extraction = extraction_stack(psi, ops)
    max_error = float(extraction.distances[0, :len(OPERATOR_PAIRS)].max())
    junk_target = np.zeros(4, dtype=complex)
    junk_target[0] = 1.0
    ok = (
        abs(value - 2.0 * SQRT2) <= 1e-9
        and max(res.anticomm_a, res.anticomm_b, res.diff_x, res.diff_z) <= 1e-9
        and max_error <= 1e-8
        and float(np.linalg.norm(extraction.junk[0] - junk_target)) <= 1e-9
    )
    elapsed = time.monotonic() - start
    report_line(
        1,
        ok and elapsed < 1.0,
        f"exact CHSH point: value={value:.12f}, max residual "
        f"{max(res.anticomm_a, res.anticomm_b, res.diff_x, res.diff_z):.2e}, "
        f"max extraction error {max_error:.2e}, junk=|00>, {elapsed:.2f}s",
    )


def test_criterion_02_exact_my_point():
    start = time.monotonic()
    device = canonical_my_device()
    table, eps = my_deviation(device)
    targets = {
        ("XA", "XB"): 1.0, ("XA", "ZB"): 0.0, ("XA", "DB"): 1 / SQRT2,
        ("ZA", "XB"): 0.0, ("ZA", "ZB"): 1.0, ("ZA", "DB"): 1 / SQRT2,
    }
    per_pair_ok = all(
        abs(table[pair] - target) <= 1e-12 for pair, target in targets.items()
    )
    extraction = extraction_stack(device.state.reshape(1, *device.dims), my_operators(device))
    max_error = float(extraction.distances[0, :len(OPERATOR_PAIRS)].max())
    ok = eps <= 1e-12 and per_pair_ok and max_error <= 1e-8
    elapsed = time.monotonic() - start
    report_line(
        2,
        ok and elapsed < 1.0,
        f"exact MY point: epsilon={eps:.2e}, six correlations on target, "
        f"max extraction error {max_error:.2e}, {elapsed:.2f}s",
    )


def test_criterion_03_circuit_vs_closed_form():
    start = time.monotonic()
    devices = []
    dims_options = [(da, db) for da in (2, 3, 4) for db in (2, 3, 4)]
    for i, dims in enumerate(dims_options):
        spec = FamilySpec("random", {"count": 12}, dims, seed=4000 + i)
        devices.extend(d for _, d in family_points(spec))
    assert len(devices) >= 100
    worst_gap = 0.0
    worst_norm = 0.0
    for device in devices:
        ops = derive_chsh_operators(device)
        circuit = apply_isometry(device, ops)
        expansion = isometry_expansion(device, ops)
        worst_gap = max(worst_gap, float(np.linalg.norm(circuit - expansion)))
        for m, n in OPERATOR_PAIRS:
            out_norm = float(np.linalg.norm(apply_isometry(device, ops, m, n)))
            worst_norm = max(worst_norm, abs(out_norm - 1.0))
    elapsed = time.monotonic() - start
    ok = worst_gap <= 1e-12 and worst_norm <= 1e-12 and elapsed < 30.0
    report_line(
        3,
        ok,
        f"circuit vs closed form on {len(devices)} random devices: "
        f"max gap {worst_gap:.2e}, max norm drift {worst_norm:.2e}, {elapsed:.1f}s",
    )


def test_criterion_04_isometry_certification():
    start = time.monotonic()
    corpus = extraction_corpus()
    assert len(corpus) >= 200
    failures = 0
    worst_margin = -math.inf
    for kind, params, device in corpus:
        ops = derive_chsh_operators(device)
        psi = device.state.reshape(1, *device.dims)
        res = residual_stack(psi, ops)[0]
        bound = extraction_bound(res.eps1, res.eps2)
        max_error = float(extraction_stack(psi, ops).distances[0, :len(OPERATOR_PAIRS)].max())
        margin = max_error - bound
        worst_margin = max(worst_margin, margin)
        if margin > 1e-9:
            failures += 1
            print(f"    violation: {kind} {params} error {max_error} > {bound}")
    elapsed = time.monotonic() - start
    ok = failures == 0 and elapsed < 120.0
    report_line(
        4,
        ok,
        f"extraction error <= (11*eps1+5*eps2)/2 from measured residuals on "
        f"{len(corpus)} devices: {failures} failures, worst margin "
        f"{worst_margin:.2e}, {elapsed:.1f}s",
    )


def test_criterion_05_chsh_budget_certification():
    corpus = chsh_epsilon_corpus()
    assert len(corpus) >= 200
    failures = 0
    for device, eps in corpus:
        ops = derive_chsh_operators(device)
        res = residual_stack(device.state.reshape(1, *device.dims), ops)[0]
        eps1 = 2.0 * (eps * SQRT2) ** 0.5
        eps2 = 4.0 * (eps * SQRT2) ** 0.25
        if not (
            res.anticomm_a <= 2.0 * eps1 + 1e-9
            and res.anticomm_b <= 1e-9
            and res.diff_x <= eps2 + 1e-9
            and res.diff_z <= eps2 + 1e-9
        ):
            failures += 1
            print(f"    violation at eps={eps}: {res}")
    report_line(
        5,
        failures == 0,
        f"CHSH residual budgets (anticommB exact) on {len(corpus)} devices "
        f"with eps in (0, 0.2): {failures} failures",
    )


def test_criterion_06_my_budget_certification():
    corpus = my_epsilon_corpus()
    assert len(corpus) >= 200
    failures = 0
    for device, eps in corpus:
        ops = my_operators(device)
        res = residual_stack(device.state.reshape(1, *device.dims), ops)[0]
        eps1 = (
            2.0 * (1.0 + SQRT2) * (2.0 * eps) ** 0.25
            + 4.0 * math.sqrt(2.0 * eps)
            + ((5.0 + 3.0 * SQRT2) / 2.0) * (2.0 * eps) ** 0.75
        )
        eps2 = math.sqrt(2.0 * eps)
        if not (
            res.anticomm_a <= 2.0 * eps1 + 1e-9
            and res.anticomm_b <= 2.0 * eps1 + 1e-9
            and res.diff_x <= eps2 + 1e-9
            and res.diff_z <= eps2 + 1e-9
        ):
            failures += 1
            print(f"    violation at eps={eps}: {res}")
    report_line(
        6,
        failures == 0,
        f"MY residual budgets on {len(corpus)} devices with eps in (0, 0.1): "
        f"{failures} failures",
    )


def test_criterion_07_chain_suites():
    failures = []

    for device, eps in chsh_epsilon_corpus():
        budget = chsh_budget(eps)
        ops = derive_chsh_operators(device)
        diag = chsh_diagnostics(device, ops)
        _, (raw,) = junk_stack(device.state.reshape(1, *device.dims), ops)
        za = tensor_embed(ops.za, "A", device.dims)
        za_abs = abs(float(np.vdot(device.state, za @ device.state).real))
        eps_sum = budget.eps1 + budget.eps2
        eps_prime_safe = max(budget.eps_prime, budget.eps_prime_exact)
        checks = {
            "delta-chain": diag["commutator_product"] >= 4.0 - budget.delta - 1e-9,
            "bsum-overlap": diag["xa_bsum_overlap"]
            >= SQRT2 * (1.0 - eps_prime_safe) - 1e-9,
            "za-expectation": za_abs <= eps_sum + 1e-9,
            "rawnorm-low": raw >= math.sqrt(max(0.0, 1.0 - eps_sum)) - 1e-9,
            "rawnorm-high": raw <= math.sqrt(1.0 + eps_sum) + 1e-9,
        }
        failures.extend(f"chsh {name} at eps={eps}" for name, ok in checks.items() if not ok)

    for device, eps in my_epsilon_corpus():
        budget = my_budget(eps)
        diag = my_diagnostics(device)
        ops = my_operators(device)
        _, (raw,) = junk_stack(device.state.reshape(1, *device.dims), ops)
        eps_sum = budget.eps1 + budget.eps2
        checks = {
            "sum-xz-chain": diag["sum_xz_norm"]
            <= math.sqrt(1.0 + eps + math.sqrt(2.0 * eps)) + 1e-9,
            "rawnorm-low": raw >= math.sqrt(max(0.0, 1.0 - eps_sum)) - 1e-9,
            "rawnorm-high": raw <= math.sqrt(1.0 + eps_sum) + 1e-9,
        }
        failures.extend(f"my {name} at eps={eps}" for name, ok in checks.items() if not ok)

    for line in failures[:10]:
        print(f"    violation: {line}")
    report_line(
        7,
        not failures,
        f"intermediate chain suites on {len(chsh_epsilon_corpus())} CHSH and "
        f"{len(my_epsilon_corpus())} MY devices: {len(failures)} failures",
    )


def test_criterion_08_b_operator_bound():
    corpus = chsh_epsilon_corpus()
    failures = 0
    worst_margin = -math.inf
    for device, eps in corpus:
        ops = derive_chsh_operators(device)
        bound = b_extraction_bound(eps)
        psi = device.state.reshape(1, *device.dims)
        bob = (device.bob_obs["B0"], device.bob_obs["B1"])
        for error in b_operator_stack(psi, ops, bob, junk_stack(psi, ops)[0])[0]:
            margin = error - bound
            worst_margin = max(worst_margin, margin)
            if margin > 1e-9:
                failures += 1
    report_line(
        8,
        failures == 0,
        f"measured-B extraction errors within sqrt(2)*eps + 2*sqrt(2)*(eps*sqrt(2))**(1/4) "
        f"on {len(corpus)} devices x 6 pairs: {failures} failures, worst margin "
        f"{worst_margin:.2e}",
    )


def test_criterion_09_fidelity_formula():
    exact_at_zero = my_fidelity_bound(0.0) == 1.0
    grid = np.linspace(0.0, 0.1, 100)
    values = [my_fidelity_bound(float(e)) for e in grid]
    monotone = all(a >= b - 1e-15 for a, b in zip(values, values[1:]))
    block = fidelity_block(1e-4)
    print(
        f"    fidelity report at eps=1e-4: formula value "
        f"{block['formula_value_at_reference']:.6f}, quoted reference "
        f"{block['reference_value']:.2f}, discrepancy={block['discrepancy']}"
    )
    # both values are reported side by side; no tolerance is asserted between them
    reported = (
        "formula_value_at_reference" in block
        and "reference_value" in block
        and isinstance(block["discrepancy"], bool)
    )
    report_line(
        9,
        exact_at_zero and monotone and reported,
        f"fidelity bound: f(0)={my_fidelity_bound(0.0)}, monotone on 100-point "
        f"grid: {monotone}, discrepancy flag reported: {block['discrepancy']}",
    )


def test_criterion_10_determinism_and_io(tmp_path):
    # fixed-seed sweep run twice: byte-identical CSV
    spec = {
        "kind": "state-noise",
        "mode": "chsh",
        "dims": [2, 2],
        "seed": 7,
        "parameters": {"p": {"start": 0.0, "stop": 0.05, "steps": 15}},
    }
    spec_path = tmp_path / "family.json"
    spec_path.write_text(json.dumps(spec))
    csv1, csv2 = tmp_path / "a.csv", tmp_path / "b.csv"
    sweep_codes = (
        main(["sweep", "--family", str(spec_path), "--out", str(csv1)]),
        main(["sweep", "--family", str(spec_path), "--out", str(csv2)]),
    )
    byte_identical = csv1.read_bytes() == csv2.read_bytes()

    # device document round-trip: value-identical
    device = canonical_chsh_device()
    dev_path = tmp_path / "dev.json"
    save_device(dev_path, device)
    loaded = load_device(dev_path)
    round_trip = (
        np.array_equal(loaded.state, device.state)
        and all(np.array_equal(loaded.alice_obs[k], device.alice_obs[k]) for k in device.alice_obs)
        and all(np.array_equal(loaded.bob_obs[k], device.bob_obs[k]) for k in device.bob_obs)
    )

    # exit-code matrix: good input -> 0, failing rows -> 1, malformed -> 2
    report_path = tmp_path / "report.json"
    code_good = main(["certify", "--device", str(dev_path), "--mode", "chsh", "--out", str(report_path)])

    base = canonical_chsh_device()
    product = make_device(
        (2, 2), np.array([1, 0, 0, 0], dtype=complex), dict(base.alice_obs), dict(base.bob_obs)
    )
    failing_path = tmp_path / "failing.json"
    save_device(failing_path, product)
    code_failing = main(["certify", "--device", str(failing_path), "--mode", "chsh",
                         "--out", str(tmp_path / "failing_report.json")])

    truncated = tmp_path / "truncated.json"
    truncated.write_text('{"schemaVersion"')
    code_malformed = main(["certify", "--device", str(truncated), "--mode", "chsh",
                           "--out", str(tmp_path / "x.json")])
    bad_device = make_device(
        (2, 2), base.state, {"A0": 0.5 * np.eye(2), "A1": np.eye(2)}, dict(base.bob_obs)
    )
    invalid_path = tmp_path / "invalid.json"
    save_device(invalid_path, bad_device)
    code_invalid = main(["certify", "--device", str(invalid_path), "--mode", "chsh",
                         "--out", str(tmp_path / "y.json")])
    code_usage = main(["certify", "--device", str(dev_path), "--out", str(tmp_path / "z.json")])

    exit_codes_ok = (
        sweep_codes == (0, 0)
        and code_good == 0
        and code_failing == 1
        and code_malformed == 2
        and code_invalid == 2
        and code_usage == 2
    )
    ok = byte_identical and round_trip and exit_codes_ok
    report_line(
        10,
        ok,
        f"determinism and I/O: byte-identical CSV={byte_identical}, round-trip="
        f"{round_trip}, exit codes (good,fail,parse,invalid,usage)="
        f"({code_good},{code_failing},{code_malformed},{code_invalid},{code_usage})",
    )
