"""SHA-256 pins of ``certify``'s report documents.

The goldens compare floats at 1e-12, so a last-bit change in a chain row
passes them; these pins do not.  Each case certifies a few devices of one
family kind and dims in one mode and hashes the report texts, written as the
``certify`` command writes them, so a refactor of any stage must leave every
byte of every report as it was.  The same devices' report documents are also
walked for anything but plain JSON values.
"""

from __future__ import annotations

import hashlib
import math

import pytest

from helpers import family_points, first_observables
from singlet_selftest.bounds import certify, get_mode
from singlet_selftest.device import make_device
from singlet_selftest.documents import (
    device_to_document,
    document_digest,
    json_text,
    report_to_document,
)
from singlet_selftest.explorer import FamilySpec


def report_text(device, mode: str) -> str:
    digest = document_digest(device_to_document(device))
    return json_text(report_to_document(certify(device, mode), digest))


# (kind, parameters, dims, seed), each certified in both modes.
FAMILIES = [
    ("tilted", {"theta": [0.0, math.pi / 2, 6]}, (2, 2), 0),
    ("state-noise", {"p": [0.0, 0.6, 6]}, (2, 2), 1),
    ("measurement-noise", {"eta": [0.0, 0.5, 6]}, (2, 2), 2),
    ("junk-embedded", {"count": 4}, (2, 2), 3),
    ("junk-embedded", {"count": 2}, (8, 8), 4),
    ("junk-embedded", {"count": 2}, (16, 16), 5),
    ("junk-embedded", {"count": 1}, (32, 32), 6),
    ("random", {"count": 6}, (2, 2), 7),
    ("random", {"count": 5}, (3, 5), 8),
    ("random", {"count": 3}, (8, 8), 9),
    ("random", {"count": 1}, (16, 16), 10),
    ("random", {"count": 1}, (32, 32), 11),
]

PINS = {
    ("tilted-2x2", "chsh"):
        "9b7524b660493b15a852018916fda9e48acbd401d99315ac477d85586c221a06",
    ("tilted-2x2", "my"):
        "844e87351f8202d135bf09678d48386e0baa1e78d3cbedf31a7490f9886b1e07",
    ("state-noise-2x2", "chsh"):
        "d5ef967e170cd87459ddb394a21ca91c08992777ff78f63d09b1a56a50604416",
    ("state-noise-2x2", "my"):
        "b2b13202967bfe191a31f08e2399f9d1ff3804913c1cdd5b5c98fd31d9da18ed",
    ("measurement-noise-2x2", "chsh"):
        "8e11f7c6590b501927cef8673097ec0353d99c8361b196a18c2b2088cfabed51",
    ("measurement-noise-2x2", "my"):
        "8663f4bfdda537ef43e4a3895e45d3c7d49822c69c5ebae5fe81b1ad76f391fd",
    ("junk-embedded-2x2", "chsh"):
        "5e6a5244c637aab72b5ce0025c3de1b0e9d21417bb73c9e7d53853c785ab2818",
    ("junk-embedded-2x2", "my"):
        "47f707c97259c7823301c41a8fd3e3fefd9527510acd98532e84b70e7f454993",
    ("junk-embedded-8x8", "chsh"):
        "64ab9ec2046e75765de0cce229c87a864b7d7afe574fa46416e0fa8049c8fea6",
    ("junk-embedded-8x8", "my"):
        "5f9a9e8c3307ec352bb8e672e3f2830f8b1b8fe0e50c8dfb4d57d5fa1541d8ca",
    ("junk-embedded-16x16", "chsh"):
        "c693b535c0fcfad0657409ba42dec0220668847cd47091da54e92f7e0759bf91",
    ("junk-embedded-16x16", "my"):
        "24a7b8c48876b383dbb80c96fb39ac5f328a20fb9d7569e6ffa6199a109fba53",
    ("junk-embedded-32x32", "chsh"):
        "9d31f6068c95812d682184de08401832545ac93787d50c53bcd5ac4e236732be",
    ("junk-embedded-32x32", "my"):
        "b1c7a869137b4c0fa6e8b85352a036c93e147978b9db47415972aac82bca5f5c",
    ("random-2x2", "chsh"):
        "e083f6f95f74fb35245ec64901abc71118683a836914c056d9a3fa3c5117c2ff",
    ("random-2x2", "my"):
        "e2fd79a4625456c6797f8a61dae54c9e9a4906cfc4aa23d3ebb2b4453bf7f758",
    ("random-3x5", "chsh"):
        "0a2364865d4e3ebb1f6e6308ce96927bc5cebd293f503bf2493d93cfac8d9789",
    ("random-3x5", "my"):
        "982302a19317367561c4cf617557c78d82a5c8e2caec83d40de9945f47fbbabc",
    ("random-8x8", "chsh"):
        "e3e84e571fea7b4478ea362124876e43ae9f2faf339bfa1ed0acca487b2aaa0e",
    ("random-8x8", "my"):
        "3aae0400640bf7390cd7f08f0f89e2b1e64b489457118a9494f3fe7d8c1e6f51",
    ("random-16x16", "chsh"):
        "0261310f499fdc1ef62e220121f21abb9ae177dff1013dbdea6820393455a7a7",
    ("random-16x16", "my"):
        "4ffe80578e8b8f13feb383ca12ae6047fe46dee3646c9b74eacaa4406b6dbd77",
    ("random-32x32", "chsh"):
        "a5a41c7ab6142ee8fa514101ee09118e0bc8edfca2976690767d0345401a7c51",
    ("random-32x32", "my"):
        "4659a11cd860a4885e3209f8dfb7586cbea76789602b81711bd1a9f4788ce27b",
    ("degenerate-2x2", "chsh"):
        "7c0df0a67483d84574995b3140cd2fc4cdaf6a09a5c806eb321e2884f85e0e3c",
    ("degenerate-2x2", "my"):
        "14536c08519c27a3a1f4e108f60108157e3073b49d44010e5a5c733197a8fba5",
}


def case_id(kind: str, dims: tuple[int, int]) -> str:
    return f"{kind}-{dims[0]}x{dims[1]}"


def digest_of(texts) -> str:
    return hashlib.sha256("".join(texts).encode()).hexdigest()


@pytest.mark.parametrize("mode", ["chsh", "my"])
@pytest.mark.parametrize("kind,parameters,dims,seed", FAMILIES,
                         ids=[case_id(family[0], family[2]) for family in FAMILIES])
def test_family_reports_reproduce_their_pin(kind, parameters, dims, seed, mode):
    spec = FamilySpec(kind, parameters, dims, seed, mode)
    texts = [report_text(device, mode) for _, device in family_points(spec)]
    assert digest_of(texts) == PINS[case_id(kind, dims), mode]


def degenerate_device(mode: str):
    """Alice's qubit in |1>: (I + Z'_A) removes it, so the junk candidate is zero."""
    base = get_mode(mode).canonical()
    return make_device((2, 2), [0.0, 0.0, 1.0, 0.0], first_observables(base.alice_obs),
                       first_observables(base.bob_obs))


@pytest.mark.parametrize("mode", ["chsh", "my"])
def test_degenerate_report_reproduces_its_pin(mode):
    device = degenerate_device(mode)
    assert certify(device, mode).degenerate
    assert digest_of([report_text(device, mode)]) == PINS["degenerate-2x2", mode]


# The row fields that are null where the theorem gives no number: a degenerate
# junk candidate, or a deviation of 1 or more, which has no budget.  Besides
# them, only the budget block of such a deviation, and the CHSH value and
# budget delta of a Mayers-Yao report, which the mode does not define, are null.
NULL_ROW_FIELDS = {"measured", "bound", "boundHeadline", "boundExact", "slack"}
NULL_FIELDS = {("report", "budgets"), ("report", "chshValue"), ("report", "budgets", "delta")}


def plain_json_nulls(value, path: tuple = ()):
    """The paths of the nulls in ``value``; any value other than a dict with
    str keys, list, str, int, finite float or bool raises AssertionError."""
    if value is None:
        return [path]
    if type(value) is dict:
        assert all(type(key) is str for key in value), path
        return [found for key, member in value.items()
                for found in plain_json_nulls(member, (*path, key))]
    if type(value) is list:
        return [found for index, member in enumerate(value)
                for found in plain_json_nulls(member, (*path, index))]
    assert type(value) in (str, int, float, bool), (path, type(value))
    assert type(value) is not float or math.isfinite(value), path
    return []


@pytest.mark.parametrize("mode", ["chsh", "my"])
def test_report_documents_hold_plain_json(mode):
    # Every pinned device of the mode; nulls occur only where they are named.
    devices = [device for kind, parameters, dims, seed in FAMILIES
               for _, device in family_points(FamilySpec(kind, parameters, dims, seed, mode))]
    nulls, unbudgeted = [], 0
    for device in [*devices, degenerate_device(mode)]:
        report = certify(device, mode)
        unbudgeted += report.budget is None
        nulls += plain_json_nulls(report_to_document(report, "sha256:0"))
    rows = [path for path in nulls if path not in NULL_FIELDS]
    assert {path[:2] for path in rows} == {("report", "rows")}
    assert {path[-1] for path in rows} <= NULL_ROW_FIELDS
    assert nulls and unbudgeted
