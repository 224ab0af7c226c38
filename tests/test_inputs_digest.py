"""``certify``'s ``inputsDigest`` is the digest of the device it loaded.

The report's digest is defined as ``document_digest(device_to_document(
device))``: the device's document with sorted keys, no whitespace, empty
``metadata`` and every entry written as a float.  ``certify`` hashes the
document it parsed instead of rebuilding one from the arrays, so each case
here writes a seeded device document the way a person or another tool might
(integer and float entries mixed in one array, signed zeros, subnormals, keys
in reverse order, metadata, an unknown key, an observable the mode does not
use), certifies it through the CLI, and compares the report's digest with
the definition computed from the loaded arrays.
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np
import pytest

from helpers import each_runner
from singlet_selftest.cli import main
from singlet_selftest.documents import (
    complex_to_json,
    device_to_document,
    document_digest,
    load_device,
)

OBSERVABLES = {"chsh": (("A0", "A1"), ("B0", "B1")),
               "my": (("XA", "ZA"), ("XB", "ZB", "DB"))}
# A Bob observable neither mode uses.
EXTRA = "B9"


def _rotated(rng, d: int) -> np.ndarray:
    """A Haar-random unitary conjugate of a diagonal of random signs."""
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    u = q * (np.diag(r) / np.abs(np.diag(r)))
    return (u * rng.choice([-1.0, 1.0], size=d)) @ u.conj().T


def _mixed_diagonal(rng, d: int, zeros) -> list:
    """A diagonal of random signs whose entries mix JSON integers and floats:
    the signs alternate integer and float, the zeros come from ``zeros``."""
    signs = rng.choice([-1, 1], size=d)
    return [[[int(signs[i]) if i % 2 == 0 else float(signs[i]), next(zeros)] if i == j
             else [next(zeros), next(zeros)] for j in range(d)] for i in range(d)]


def _reversed(value):
    """``value`` with the keys of every object in reverse order."""
    if isinstance(value, dict):
        return {key: _reversed(value[key]) for key in reversed(value)}
    return value


def _integral(value):
    """``value`` with every integral float as a JSON integer, but -0.0,
    whose sign the integer 0 would drop."""
    if isinstance(value, dict):
        return {key: _integral(member) for key, member in value.items()}
    if isinstance(value, list):
        return [_integral(member) for member in value]
    if type(value) is float and value.is_integer() and repr(value) != "-0.0":
        return int(value)
    return value


def device_document(seed: int, dims: tuple[int, int], mode: str) -> dict:
    """A valid device document of the mode's observables, plus ``EXTRA`` on
    Bob's side, with its keys in reverse order, metadata and an unknown key.

    The state is real, and its imaginary parts, like the zeros of each
    party's first observable, a diagonal of integer and float signs, run
    through integer 0, 0.0, -0.0 and 5e-324.  The other observables are
    Haar-rotated, all floats."""
    rng = np.random.default_rng((seed, *dims))
    zeros = itertools.cycle([0, 0.0, -0.0, 5e-324])
    da, db = dims
    amplitudes = rng.normal(size=da * db)
    amplitudes /= np.linalg.norm(amplitudes)
    state = [[float(x), next(zeros)] for x in amplitudes]
    alice_names, bob_names = OBSERVABLES[mode]
    observables = {}
    for party, names, d in (("alice", alice_names, da), ("bob", bob_names + (EXTRA,), db)):
        observables[party] = {name: (_mixed_diagonal(rng, d, zeros) if k == 0
                                     else complex_to_json(_rotated(rng, d)))
                              for k, name in enumerate(names)}
    return _reversed({
        "schemaVersion": "1",
        "dims": [da, db],
        "state": state,
        "observables": observables,
        "metadata": {"generator": "test", "seed": seed, "note": [1, 2.5, None]},
        "comment": "an unknown top-level key, left out of the digest",
    })


def certified_digest(tmp_path, doc: dict, mode: str) -> tuple[int, str, str]:
    """Exit code of ``certify`` on ``doc``, the report's ``inputsDigest``, and
    the digest defined from the loaded device."""
    path = tmp_path / "device.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "report.json"
    code = main(["certify", "--device", str(path), "--mode", mode, "--out", str(out)])
    device, loaded_digest = load_device(path)
    defined = document_digest(device_to_document(device))
    assert loaded_digest == defined
    return code, json.loads(out.read_text())["inputsDigest"], defined


@pytest.mark.parametrize("mode", ["chsh", "my"])
@pytest.mark.parametrize("da", [1, 2, 3, 4])
def test_report_digest_is_the_loaded_devices_digest(tmp_path, capsys, mode, da):
    texts = []
    for db in (1, 2, 3, 4):
        doc = device_document(da, (da, db), mode)
        texts.append(json.dumps(doc))
        code, reported, defined = certified_digest(tmp_path, doc, mode)
        assert code in (0, 1), capsys.readouterr().err
        assert reported == defined
    text = "".join(texts)
    assert all(entry in text for entry in (", 0]", "[0, ", "-0.0", "5e-324", "[1, ", "[-1, "))


@pytest.mark.parametrize("mode", ["chsh", "my"])
def test_32x32_report_digest_is_the_loaded_devices_digest(tmp_path, mode):
    code, reported, defined = certified_digest(tmp_path, device_document(32, (32, 32), mode),
                                               mode)
    assert code in (0, 1)
    assert reported == defined


@pytest.mark.parametrize("entry", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("target", ["state", "observable"])
def test_non_finite_entry_exits_two_without_a_report(tmp_path, capsys, entry, target):
    doc = device_document(7, (2, 2), "chsh")
    if target == "state":
        doc["state"][3][0] = entry
    else:
        doc["observables"]["bob"]["B0"][1][0][1] = entry
    path = tmp_path / "device.json"
    path.write_text(json.dumps(doc))
    assert ("NaN" if math.isnan(entry) else "Infinity") in path.read_text()
    out = tmp_path / "report.json"
    assert main(["certify", "--device", str(path), "--mode", "chsh", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: invalid device: ")
    assert not out.exists()


def test_huge_entry_digest_is_the_loaded_devices_digest(tmp_path):
    # No valid device holds 1e300, so certify rejects it; the digest is still
    # the definition's.
    doc = device_document(3, (2, 3), "my")
    doc["observables"]["alice"]["XA"][0][1] = [1e300, -1e300]
    path = tmp_path / "device.json"
    path.write_text(json.dumps(doc))
    assert "1e+300" in path.read_text()
    device, digest = load_device(path)
    assert digest == document_digest(device_to_document(device))


def test_rewritten_canonical_documents_give_the_same_report_file(tmp_path):
    # The digest re-encodes the loaded device, so the document canonical
    # writes, with its integral entries written as integers, or with its keys
    # in reverse order, other metadata and an unknown key, gives the same
    # report file, inputsDigest included.
    for run, directory in each_runner(tmp_path):
        paths = [directory / name for name in ("c.json", "ci.json", "cr.json")]
        assert run(["canonical", "--mode", "chsh", "--out", str(paths[0])])[0] == 0
        doc = json.loads(paths[0].read_text())
        paths[1].write_text(json.dumps(_integral(doc)))
        paths[2].write_text(json.dumps(_reversed({
            **doc, "metadata": {"source": "hand-edited", "note": [1, 2.5, None]},
            "comment": "an unknown top-level key"})))
        assert "[1, 0]" in paths[1].read_text()
        assert paths[2].read_text().startswith('{"comment":')
        reports = []
        for path in paths:
            out = path.with_suffix(".report.json")
            assert run(["certify", "--device", str(path), "--mode", "chsh",
                        "--out", str(out)])[0] == 0
            reports.append(out.read_bytes())
        assert reports[1:] == reports[:1] * 2
