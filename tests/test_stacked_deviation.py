"""The stacked deviation against its former by-name definition, bit for bit.

``Mode.deviations`` takes each mode's CHSH value and epsilon as one array
expression over a stack's (n, pairs) correlation table, and ``MY_IDEAL`` is
the canonical Mayers-Yao device's own correlation row.  Before, each row was
read back by pair name from a dict, and the ideal came from a kron-form
table of its own; ``helpers`` keeps both as the reference.  Every value the
stack gives must have the reference's float bits and, read out with
``tolist``, its type.
"""

from __future__ import annotations

import math
import struct

import numpy as np
import pytest

from helpers import (
    MY_IDEAL_BY_PAIR,
    chsh_deviation_by_name,
    my_deviation_by_name,
)
from singlet_selftest.bounds import certify, get_mode
from singlet_selftest.device import MY_IDEAL, MY_PAIRS
from singlet_selftest.explorer import FamilySpec, family_axis, family_chunks

REFERENCES = {"chsh": chsh_deviation_by_name, "my": my_deviation_by_name}

# Every family kind; the 200-point 2x2 `random` family is one chunk.
SPECS = [
    ("tilted", {"theta": [0.0, math.pi / 2, 13]}, (2, 2)),
    ("state-noise", {"p": [0.0, 1.0, 11]}, (2, 2)),
    ("measurement-noise", {"eta": [0.0, 0.5, 11]}, (2, 2)),
    ("junk-embedded", {"count": 5}, (4, 4)),
    ("random", {"count": 200}, (2, 2)),
    ("random", {"count": 7}, (3, 5)),
]


def bits(value):
    """The float's IEEE bits with its type, so that 0.0 and -0.0 differ; None as is."""
    return None if value is None else (type(value), struct.pack("<d", value))


def stacked_and_reference(mode: str, stack) -> tuple[list, list]:
    """Each device's (CHSH value, epsilon) from ``Mode.deviations`` read out with
    ``tolist``, and from the reference on its correlations by pair name."""
    selftest = get_mode(mode)
    values, chsh, eps = selftest.deviations(stack)
    assert values.shape == (len(stack), len(selftest.pairs)) and values.dtype == np.float64
    assert eps.shape == (len(stack),) and eps.dtype == np.float64
    assert (chsh is None) == (mode == "my")
    chsh = [None] * len(stack) if chsh is None else chsh.tolist()
    stacked = [(bits(c), bits(e)) for c, e in zip(chsh, eps.tolist())]
    reference = [tuple(map(bits, REFERENCES[mode](dict(zip(selftest.pairs, row)))))
                 for row in values.tolist()]
    return stacked, reference


@pytest.mark.parametrize("kind,parameters,dims", SPECS,
                         ids=[f"{kind}-{dims[0]}x{dims[1]}" for kind, _, dims in SPECS])
@pytest.mark.parametrize("mode", ["chsh", "my"])
def test_stacked_deviation_equals_the_by_name_definition(mode, kind, parameters, dims):
    spec = FamilySpec(kind, parameters, dims, 21, mode)
    devices = 0
    for _, stack in family_chunks(spec):
        stacked, reference = stacked_and_reference(mode, stack)
        assert stacked == reference
        devices += len(stack)
    assert devices == len(family_axis(spec)[1])


@pytest.mark.parametrize("mode", ["chsh", "my"])
def test_an_empty_stack_has_no_deviation(mode):
    (_, stack), = family_chunks(FamilySpec("random", {"count": 3}, (2, 2), 5, mode))
    assert stacked_and_reference(mode, stack.select(slice(0, 0))) == ([], [])


def test_my_ideal_is_the_kron_form_bit_for_bit():
    assert not MY_IDEAL.flags.writeable
    assert list(map(bits, MY_IDEAL.tolist())) == [bits(MY_IDEAL_BY_PAIR[pair])
                                                  for pair in MY_PAIRS]
    _, _, eps = get_mode("my").deviations(get_mode("my").canonical())
    assert bits(eps.tolist()[0]) == bits(0.0)


@pytest.mark.parametrize("mode", ["chsh", "my"])
def test_certify_reports_plain_floats(mode):
    (_, stack), = family_chunks(FamilySpec("random", {"count": 2}, (3, 2), 4, mode))
    for device in (get_mode(mode).canonical(), stack.select(slice(1, 2))):
        report = certify(device, mode)
        assert type(report.epsilon) is float
        assert type(report.chsh) is (float if mode == "chsh" else type(None))
        assert all(type(value) is float for value in report.correlations.values())
        assert len(report.correlations) == (0 if mode == "chsh" else 6)
