"""The library's CHSH values and deviations against exact arithmetic.

Each stored device of the report pins at 2x2 and 3x5, with the canonical
and the degenerate device, is evaluated exactly (``exact_oracle``): the
float value must lie within rounding of the exact one.  A few stored chsh
devices are super-quantum in exact arithmetic, because their observables
square to I only up to rounding; the library clamps their epsilon at 0.
"""

from __future__ import annotations

from decimal import Decimal

import pytest

import exact_oracle
from helpers import family_points
from singlet_selftest.bounds import get_mode
from singlet_selftest.explorer import FamilySpec
from test_report_pins import FAMILIES, degenerate_device

# Largest |float - exact| allowed; the worst measured is 3.7e-16 (chsh) and
# 3.9e-16 (my).
ROUNDING = Decimal("1e-15")

# The stored chsh devices whose exact epsilon is negative, with its value:
# state-noise seed 1 at p = 0 (-1.4e-16), measurement-noise seed 2 at
# eta = 0 (-1.8e-15) and junk-embedded 2x2 seed 3 at point 0 (-5.6e-16).
SUPER_QUANTUM = {"state-noise-2x2[0]", "measurement-noise-2x2[0]", "junk-embedded-2x2[0]"}


def stored_devices(mode: str) -> list[tuple[str, object]]:
    """(label, device): the canonical and degenerate devices, then every
    point of the 2x2 and 3x5 report-pin families, 35 in all."""
    devices = [("canonical", get_mode(mode).canonical()), ("degenerate", degenerate_device(mode))]
    for kind, parameters, dims, seed in FAMILIES:
        if dims in ((2, 2), (3, 5)):
            points = family_points(FamilySpec(kind, parameters, dims, seed, mode))
            devices += [(f"{kind}-{dims[0]}x{dims[1]}[{index}]", device)
                        for index, (_, device) in enumerate(points)]
    return devices


@pytest.fixture(scope="module", params=["chsh", "my"])
def evaluated(request):
    """Per stored device of the mode: its label, the value compared with exact
    arithmetic (the CHSH value for chsh, whose epsilon is clamped; epsilon for
    my) and its exact value, then the library's epsilon and the exact one."""
    mode = get_mode(request.param)
    rows = []
    for label, device in stored_devices(mode.name):
        _, value, epsilon = mode.deviations(device)
        if mode.name == "chsh":
            exact_value, exact_epsilon = exact_oracle.chsh(device)
            compared = (float(value[0]), exact_value)
        else:
            exact_epsilon = exact_oracle.my_epsilon(device)
            compared = (float(epsilon[0]), exact_epsilon)
        rows.append((label, *compared, float(epsilon[0]), exact_epsilon))
    return mode.name, rows


def test_every_stored_device_is_counted(evaluated):
    _, rows = evaluated
    assert len(rows) == 35


def test_float_values_lie_within_rounding_of_exact(evaluated):
    _, rows = evaluated
    for label, value, exact, _, _ in rows:
        assert abs(Decimal(value) - exact) <= ROUNDING, label


def test_exactly_the_known_devices_are_super_quantum(evaluated):
    mode, rows = evaluated
    negative = {label: epsilon for label, _, _, epsilon, exact_epsilon in rows
                if exact_epsilon < 0}
    assert negative == (dict.fromkeys(SUPER_QUANTUM, 0.0) if mode == "chsh" else {})
