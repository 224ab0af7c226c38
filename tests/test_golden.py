"""Golden corpus: CLI outputs compared with files captured from an earlier version.

``tests/golden/`` holds certification reports (canonical, tilted, degenerate
and junk-embedded devices in both modes), one sweep CSV per family kind (both
modes among them), one correlation-table summary per mode, and one 4x4 search
per mode (its device document and its ``<out>.report.json``; the report's
``inputsDigest`` hashes the device document, so it pins every bit of the
device).  Strings, flags,
nulls and integers must match exactly and floats within 1e-12, the same bar
the benchmark's output check uses; ``toolVersion`` is not compared.  Each
JSON output must also be laid out exactly as ``json.dumps(indent=2)`` lays
out its own values.  To
refresh the corpus, or only the named cases, on purpose, run

    PYTHONPATH=src python tests/test_golden.py [case ...]
"""

from __future__ import annotations

import json
import math
import sys
import tempfile
from pathlib import Path

import pytest

from helpers import make_family, save_device
from singlet_selftest.cli import main
from singlet_selftest.device import canonical_chsh_device, canonical_my_device
from singlet_selftest.explorer import FamilySpec

GOLDEN = Path(__file__).resolve().parent / "golden"
ABS_TOL = 1e-12
IGNORED_KEYS = frozenset({"toolVersion"})


def _family_device(kind, parameters, mode, dims=(2, 2), seed=0):
    return make_family(FamilySpec(kind, parameters, dims, seed, mode))[0]


# name -> (device factory, mode, exit code)
CERTIFY_CASES = {
    "certify-canonical-chsh": (canonical_chsh_device, "chsh", 0),
    "certify-canonical-my": (canonical_my_device, "my", 0),
    "certify-tilted-pi8-chsh": (
        lambda: _family_device("tilted", {"theta": math.pi / 8}, "chsh"), "chsh", 0),
    "certify-tilted-pi2-chsh": (
        lambda: _family_device("tilted", {"theta": math.pi / 2}, "chsh"), "chsh", 1),
    "certify-junk4x4-chsh": (
        lambda: _family_device("junk-embedded", {"count": 1}, "chsh", (4, 4), 3), "chsh", 0),
    "certify-junk4x4-my": (
        lambda: _family_device("junk-embedded", {"count": 1}, "my", (4, 4), 3), "my", 0),
    # epsilon is rounding-sized here, and the epsilon^(1/4) budgets turn a
    # last-bit change in a correlation into an eps2 move far above 1e-12.
    "certify-junk16x16-chsh": (
        lambda: _family_device("junk-embedded", {"count": 1}, "chsh", (16, 16), 11),
        "chsh", 0),
    "certify-junk16x16-my": (
        lambda: _family_device("junk-embedded", {"count": 1}, "my", (16, 16), 11), "my", 0),
}

SWEEP_CASES = {
    "sweep-chsh": {"kind": "tilted", "mode": "chsh", "dims": [2, 2], "seed": 1,
                   "parameters": {"theta": [math.pi / 4, math.pi / 2, 6]}},
    "sweep-my": {"kind": "measurement-noise", "mode": "my", "dims": [2, 2], "seed": 5,
                 "parameters": {"eta": [0.0, 0.5, 6]}},
    "sweep-state-noise-chsh": {"kind": "state-noise", "mode": "chsh", "dims": [2, 2],
                               "seed": 2, "parameters": {"p": [0.0, 0.3, 6]}},
    "sweep-junk-embedded-my": {"kind": "junk-embedded", "mode": "my", "dims": [4, 6],
                               "seed": 4, "parameters": {"count": 4}},
    "sweep-random-chsh": {"kind": "random", "mode": "chsh", "dims": [3, 2], "seed": 7,
                          "parameters": {"count": 5}},
}

CORRELATION_CASES = {
    "correlations-chsh": ("chsh", {"A0_B0": 0.7, "A0_B1": 0.69, "A1_B0": 0.71,
                                   "A1_B1": -0.7}),
    "correlations-my": ("my", {"XA_XB": 0.99, "XA_ZB": 0.01, "XA_DB": 0.7,
                               "ZA_XB": -0.02, "ZA_ZB": 0.98, "ZA_DB": 0.69}),
}

# name -> (mode, seed): one search at --dims 4,4 --epsilon-ceiling 0.05.
SEARCH_CASES = {
    "search-d4-chsh": ("chsh", 2024),
    "search-d4-my": ("my", 7),
}
SEARCH_BUDGET = 300

CASES = (
    [(name, ".json") for name in CERTIFY_CASES]
    + [(name, ".csv") for name in SWEEP_CASES]
    + [(name, ".json") for name in CORRELATION_CASES]
    + [(name, suffix) for name in SEARCH_CASES for suffix in (".json", ".report.json")]
)


def produce(name: str, workdir: Path) -> tuple[int, dict[str, str]]:
    """Run one corpus case through the CLI; return its exit code and output texts,
    keyed by file suffix."""
    if name in SEARCH_CASES:
        mode, seed = SEARCH_CASES[name]
        out = workdir / f"{name}.json"
        code = main(["search", "--mode", mode, "--epsilon-ceiling", "0.05",
                     "--dims", "4,4", "--budget", str(SEARCH_BUDGET), "--seed", str(seed),
                     "--out", str(out)])
        report = workdir / f"{name}.json.report.json"
        return code, {".json": out.read_text(encoding="utf-8"),
                      ".report.json": report.read_text(encoding="utf-8")}
    if name in CERTIFY_CASES:
        factory, mode, _ = CERTIFY_CASES[name]
        device_path = workdir / f"{name}.device.json"
        save_device(device_path, factory())
        out = workdir / f"{name}.json"
        code = main(["certify", "--device", str(device_path), "--mode", mode,
                     "--out", str(out)])
    elif name in SWEEP_CASES:
        spec_path = workdir / f"{name}.family.json"
        spec_path.write_text(json.dumps(SWEEP_CASES[name]))
        out = workdir / f"{name}.csv"
        code = main(["sweep", "--family", str(spec_path), "--out", str(out)])
    else:
        mode, table = CORRELATION_CASES[name]
        table_path = workdir / f"{name}.table.json"
        table_path.write_text(json.dumps(table))
        out = workdir / f"{name}.json"
        code = main(["correlations", "--table", str(table_path), "--mode", mode,
                     "--out", str(out)])
    return code, {out.suffix: out.read_text(encoding="utf-8")}


def expected_code(name: str) -> int:
    return CERTIFY_CASES[name][2] if name in CERTIFY_CASES else 0


def json_differences(ref, out, where: str = "$") -> list[str]:
    if isinstance(ref, dict):
        if not isinstance(out, dict):
            return [f"{where}: expected an object"]
        diffs = []
        for key, value in ref.items():
            if key in IGNORED_KEYS:
                continue
            if key not in out:
                diffs.append(f"{where}.{key}: missing")
            else:
                diffs += json_differences(value, out[key], f"{where}.{key}")
        return diffs
    if isinstance(ref, list):
        if not isinstance(out, list) or len(out) != len(ref):
            return [f"{where}: expected a list of {len(ref)}"]
        return [d for i, (r, o) in enumerate(zip(ref, out))
                for d in json_differences(r, o, f"{where}[{i}]")]
    if isinstance(ref, float):
        if (isinstance(out, bool) or not isinstance(out, (int, float))
                or not abs(out - ref) <= ABS_TOL):
            return [f"{where}: {out!r} != {ref!r}"]
        return []
    if type(out) is not type(ref) or out != ref:
        return [f"{where}: {out!r} != {ref!r}"]
    return []


def csv_differences(ref: str, out: str) -> list[str]:
    ref_rows = [line.split(",") for line in ref.splitlines()]
    out_rows = [line.split(",") for line in out.splitlines()]
    if ref_rows[0] != out_rows[0]:
        return ["header differs"]
    if [len(r) for r in ref_rows] != [len(r) for r in out_rows]:
        return ["shape differs"]
    diffs = []
    for i, (r_row, o_row) in enumerate(zip(ref_rows[1:], out_rows[1:]), start=1):
        for j, (r_cell, o_cell) in enumerate(zip(r_row, o_row)):
            r_val, o_val = float(r_cell), float(o_cell)
            if math.isnan(r_val) or math.isnan(o_val):
                if math.isnan(r_val) != math.isnan(o_val):
                    diffs.append(f"[{i}][{j}]: NaN position differs")
            elif not abs(o_val - r_val) <= ABS_TOL:
                diffs.append(f"[{i}][{j}]: {o_cell} != {r_cell}")
    return diffs


@pytest.mark.parametrize("name,suffix", CASES)
def test_matches_golden(name, suffix, tmp_path):
    code, texts = produce(name, tmp_path)
    assert code == expected_code(name)
    text = texts[suffix]
    reference = (GOLDEN / f"{name}{suffix}").read_text(encoding="utf-8")
    if suffix == ".csv":
        diffs = csv_differences(reference, text)
    else:
        # The values are compared at 1e-12 below; the layout must be exact.
        assert text == json.dumps(json.loads(text), indent=2) + "\n"
        diffs = json_differences(json.loads(reference), json.loads(text))
    assert not diffs, diffs[:10]


def test_comparison_catches_moves():
    reference = json.loads((GOLDEN / "certify-canonical-chsh.json").read_text())
    moved = json.loads(json.dumps(reference))
    moved["report"]["epsilon"] += 1e-9
    assert json_differences(reference, moved)
    flipped = json.loads(json.dumps(reference))
    flipped["report"]["rows"][0]["pass"] = not flipped["report"]["rows"][0]["pass"]
    assert json_differences(reference, flipped)
    csv = (GOLDEN / "sweep-chsh.csv").read_text()
    lines = csv.splitlines()
    cells = lines[1].split(",")
    cells[2] = repr(float(cells[2]) + 1e-9)
    assert csv_differences(csv, "\n".join([lines[0], ",".join(cells)] + lines[2:]))


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    selected = set(sys.argv[1:]) or {case for case, _ in CASES}
    with tempfile.TemporaryDirectory() as tmp:
        for case in dict.fromkeys(c for c, _ in CASES if c in selected):
            exit_code, outputs = produce(case, Path(tmp))
            if exit_code != expected_code(case):
                sys.exit(f"{case}: exit code {exit_code}, expected {expected_code(case)}")
            for suffix, output in outputs.items():
                (GOLDEN / f"{case}{suffix}").write_text(output, encoding="utf-8")
                print(f"wrote {case}{suffix}")
