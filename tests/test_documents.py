"""The indented JSON encoder and device documents in ``documents``."""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest

import document_oracle
from singlet_selftest.device import canonical_chsh_device, canonical_my_device
from singlet_selftest.documents import (
    DocumentError,
    complex_to_json,
    device_from_document,
    device_to_document,
    document_digest,
    json_text,
)
from singlet_selftest.explorer import FamilySpec, family_chunks

GOLDEN = Path(__file__).resolve().parent / "golden"

EDGE_VALUES = [
    {},
    [],
    {"a": {}, "b": [], "c": [{}, []], "d": {"e": {"f": []}}},
    [[], {}, [[]], [{}]],
    "café ∃ \U0001d11e",
    {"ctl\x00\x1f": "tab\tnew\nline \"quoted\" back\\slash \x7f"},
    -0.0,
    5e-324,
    1e308,
    10**30,
    True,
    None,
    [[0.5, -0.0], [-1.25, 5e-324], [1e308, 0.0]],
    {"rows": [{"measured": 1e-17, "pass": False, "note": None, "n": -3}], "x": 2},
    [1, "two", [3.0, [True, [None]]], {"k": [4]}],
    (1, (2.5, "t")),
    {1.5: [1], True: {"x": [2]}, None: [3], 7: [4]},
]


def _dumps(value) -> str:
    return json.dumps(value, indent=2, allow_nan=False)


@pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.json")), ids=lambda p: p.name)
def test_golden_documents_encode_byte_for_byte(path):
    value = json.loads(path.read_text(encoding="utf-8"))
    assert json_text(value) == _dumps(value)


@pytest.mark.parametrize("factory", [canonical_chsh_device, canonical_my_device])
def test_device_documents_encode_byte_for_byte(factory):
    doc = device_to_document(factory(), {"generator": "canonical"})
    assert json_text(doc) == _dumps(doc)


@pytest.mark.parametrize("value", EDGE_VALUES, ids=range(len(EDGE_VALUES)))
def test_edge_values_encode_byte_for_byte(value):
    assert json_text(value) == _dumps(value)


@pytest.mark.parametrize("value", [
    math.nan,
    [1.0, math.inf],
    {"a": {"b": [-math.inf]}},
    [[0.5, 0.5], [math.nan, 0.0]],
    {math.nan: [1]},
])
def test_non_finite_values_raise_as_json_does(value):
    with pytest.raises(ValueError):
        _dumps(value)
    with pytest.raises(ValueError):
        json_text(value)


def test_unsupported_key_raises_as_json_does():
    with pytest.raises(TypeError):
        json_text({(1, 2): [1]})


def test_device_document_of_other_than_one_device_raises_naming_the_count():
    # A device document holds one device: row 0 of a larger stack is not written.
    (_, stack), = family_chunks(FamilySpec("random", {"count": 2}, (2, 3), seed=1))
    for count in (2, 0):
        with pytest.raises(ValueError, match=f"^a device document holds one device, an n = 1 "
                                             f"stack, got {count} devices$"):
            device_to_document(stack.select(slice(0, count)))


class _Row(list):
    """A list subclass: accepted wherever the parser accepts a list."""


# Replacements for one [re, im] entry that no parse accepts.
_BAD_ENTRIES = [
    "0.5", None, True, 3, 0.5, {}, (), [], [0.5], (0.5,), [0.5, 0.0, 0.0],
    [True, 0.0], [0.5, False], [None, 0.0], [0.5, "0"], [[0.5, 0.0], 0.0],
    [0.5, [0.0]], [0.5, (0.0,)], [0.5, {}], [10**400, "0"],
]
# Replacements that overflow float() or that every parse accepts.
_OTHER_ENTRIES = [
    [10**400, 0.0], [0.0, -(10**309)], (1.5, -0.0), [1, -2], [2**64 + 1, 0],
    [3**600, 1.5], [-0.0, 0.0], _Row([0.25, 4]),
]


def _draw(rng, choices):
    return choices[rng.integers(len(choices))]


def _mutated(rng, rows: list, ndim: int):
    """``rows`` with one to three random edits of entries, rows or the whole."""
    rows = [list(row) for row in rows] if ndim == 2 else list(rows)
    for _ in range(rng.integers(1, 4)):
        kind = rng.random()
        if kind < 0.04:
            return _draw(rng, [None, [], {}, "rows", tuple(rows), _Row(rows), 7])
        i = rng.integers(len(rows))
        if ndim == 2 and kind < 0.25:
            row = list(rows[i]) if isinstance(rows[i], (list, tuple)) else []
            rows[i] = _draw(rng, [
                row[:-1], row + [[0.0, 0.0]], tuple(row), _Row(row), [], None, "row", {}, 0.5,
            ])
            continue
        entries = rows[i] if ndim == 2 else rows
        if not isinstance(entries, list) or not entries:
            continue
        j = rng.integers(len(entries))
        entries[j] = _draw(rng, _BAD_ENTRIES if kind < 0.7 else _OTHER_ENTRIES)
    return rows


def _outcome(parse):
    try:
        return parse()
    except Exception as err:  # its type and text are compared
        return err


def _document(rng, dims: tuple[int, int]) -> dict:
    da, db = dims

    def array(*shape):
        return complex_to_json(rng.normal(size=shape) + 1j * rng.normal(size=shape))

    return {
        "schemaVersion": "1",
        "dims": [da, db],
        "state": array(da * db),
        "observables": {"alice": {"A0": array(da, da)}, "bob": {"B0": array(db, db)}},
        "metadata": {},
    }


def _assert_parsed_like_the_oracle(doc: dict, target: str) -> bool:
    """Parse ``doc`` both ways; True if the oracle rejected ``target``'s array."""
    if target == "state":
        expected = _outcome(lambda: document_oracle.vector_from_json(doc["state"], "state"))
    else:
        party, name = target.split(".")
        expected = _outcome(lambda: document_oracle.matrix_from_json(
            doc["observables"][party][name], f"observables.{target}"))
    actual = _outcome(lambda: device_from_document(doc))
    if isinstance(expected, Exception):
        assert type(actual) is type(expected), (target, doc)
        assert str(actual) == str(expected), (target, doc)
        return True
    assert not isinstance(actual, Exception), (target, doc, actual)
    actual, digest = actual
    # Tuple pairs, list subclasses and integer entries hash as the arrays' document.
    assert digest == document_digest(device_to_document(actual)), (target, doc)
    if target == "state":
        got = actual.state[0]
    else:
        got = (actual.alice_obs if party == "alice" else actual.bob_obs)[name][0]
    assert got.tobytes() == expected.tobytes()
    return False


def test_malformed_arrays_raise_as_the_per_entry_walk_does():
    rng = np.random.default_rng(2025)
    rejected = {"state": 0, "alice.A0": 0, "bob.B0": 0}
    for _ in range(3000):
        dims = (int(rng.integers(1, 5)), int(rng.integers(1, 5)))
        doc = _document(rng, dims)
        target = _draw(rng, list(rejected))
        if target == "state":
            doc["state"] = _mutated(rng, doc["state"], 1)
        else:
            party, name = target.split(".")
            named = doc["observables"][party]
            named[name] = _mutated(rng, named[name], 2)
        rejected[target] += _assert_parsed_like_the_oracle(doc, target)
    assert rejected["state"] >= 700 and rejected["alice.A0"] + rejected["bob.B0"] >= 1300


@pytest.mark.parametrize("target,rows,error", [
    # An integer beyond float range before a type error raises float()'s error ...
    ("state", [[10**400, 0.0], [True, 0.0]], OverflowError),
    ("alice.A0", [[[0.0, 0.0], [0.0, -(10**309)]], [[0.0, 0.0]]], OverflowError),
    ("alice.A0", [[[0.0, 0.0], [10**400, 0.0]], [[0.0, 0.0], [0.0, None]]], OverflowError),
    # ... and after one, the type error.
    ("state", [[True, 0.0], [10**400, 0.0]], DocumentError),
    ("state", [[10**400, None], [0.0, 0.0]], DocumentError),
    ("alice.A0", [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [10**400, 0.0], [0.0, 0.0]]],
     DocumentError),
    # A row's entries are checked before the next row's length.
    ("alice.A0", [[[0.0, 0.0], [0.0, "0"]], [[0.0, 0.0]]], DocumentError),
    ("alice.A0", [[[0.0, 0.0], [0.0, 0.0]], ([0.0, 0.0], [0.0, 0.0])], DocumentError),
    ("state", [(0.5, 0.0), []], DocumentError),
    ("state", (), DocumentError),
    ("alice.A0", [], DocumentError),
])
def test_first_bad_row_or_entry_is_named_in_row_major_order(target, rows, error):
    doc = _document(np.random.default_rng(0), (2, 2))
    if target == "state":
        doc["state"] = rows
    else:
        doc["observables"]["alice"]["A0"] = rows
    with pytest.raises(error):
        device_from_document(doc)
    assert _assert_parsed_like_the_oracle(doc, target)
