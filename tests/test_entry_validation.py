"""Each device is validated and name-checked once, by the entry point that
first receives it: ``bounds.certify`` for library callers and the CLI's loaded
files alike, and ``explorer.sweep`` / ``explorer.worst_case_search`` for the
devices they build.  The stages after an entry point trust the device.
"""

from __future__ import annotations

import sys

import pytest

from helpers import SearchSpy, save_device, stack_devices
from singlet_selftest import device as device_module
from singlet_selftest import explorer
from singlet_selftest.bounds import certify, get_mode
from singlet_selftest.cli import main
from singlet_selftest.device import make_device
from singlet_selftest.explorer import FamilySpec, sweep, worst_case_search
from singlet_selftest.linalg import PAULI_X


def count_calls(monkeypatch, fn) -> list:
    """Record every call of ``fn`` made through any module of the package.

    Modules import names by value, so every module attribute that *is* ``fn``
    is replaced, not only the defining one.
    """
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if module is not None and name.split(".")[0] == "singlet_selftest":
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counting)
    return calls


@pytest.fixture
def stack_validations(monkeypatch):
    return count_calls(monkeypatch, device_module.validate_stack)


@pytest.fixture
def name_checks(monkeypatch):
    return count_calls(monkeypatch, device_module.require_observables)


@pytest.mark.parametrize("mode", ["chsh", "my"])
class TestCounts:
    def test_library_certify_validates_once(self, mode, stack_validations, name_checks):
        report = certify(get_mode(mode).canonical(), mode)
        assert report.all_pass
        assert [len(stack) for stack, in stack_validations] == [1]
        assert len(name_checks) == 1

    def test_cli_certify_validates_once(self, mode, stack_validations, name_checks, tmp_path):
        path = tmp_path / "device.json"
        save_device(path, get_mode(mode).canonical())
        out = tmp_path / "report.json"
        assert main(["certify", "--device", str(path), "--mode", mode,
                     "--out", str(out)]) == 0
        assert [len(stack) for stack, in stack_validations] == [1]
        assert len(name_checks) == 1

    def test_sweep_validates_each_point_once(self, mode, stack_validations):
        # A sweep validates whole chunks: every point once, in one stack here.
        spec = FamilySpec("tilted", {"theta": (0.8, 0.5, 5)}, mode=mode)
        assert len(sweep(spec)) == 5
        assert [len(stack) for stack, in stack_validations] == [5]

    def test_search_validates_each_evaluation_once(self, mode, stack_validations, monkeypatch):
        # A search validates each stack of proposals it builds once; the rows
        # the chain checks, up to each stack's first feasible one, are
        # exactly its counted evaluations.
        built = count_calls(monkeypatch, explorer._search_proposals)
        spy = SearchSpy(monkeypatch)
        result = worst_case_search(mode, 0.01, (3, 2), 60, seed=4)
        assert len(stack_validations) == len(spy.batches) == len(built)
        assert max(len(batch["states"]) for batch in spy.batches) > 1
        assert sum(checked for _, checked in spy.reached()) == result.evaluations == 60


def test_sweep_rejects_invalid_family_point(monkeypatch):
    def broken_chunk(spec, base, values, start):
        alice = dict(base.alice_obs, A0=0.5 * PAULI_X)
        return stack_devices([make_device((2, 2), base.state, alice, dict(base.bob_obs))]
                             * len(values))

    monkeypatch.setattr(explorer, "_build_chunk", broken_chunk)
    spec = FamilySpec("tilted", {"theta": (0.8, 0.5, 3)})
    with pytest.raises(ValueError, match=r"family 'tilted' produced an invalid device at "
                       r"\{'theta': 0\.8\}: A0: O\^2 != I"):
        sweep(spec)
