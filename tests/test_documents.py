"""The indented JSON encoder and device documents in ``documents``."""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from singlet_selftest.device import canonical_chsh_device, canonical_my_device
from singlet_selftest.documents import device_to_document, json_text
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
