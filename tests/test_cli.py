from __future__ import annotations

import json
import math
import os
import stat
import sys

import numpy as np
import pytest

from helpers import (
    RUNNERS,
    each_runner,
    first_observables,
    make_family,
    run_in_process,
    save_device,
)
from singlet_selftest.bounds import MODES
from singlet_selftest.cli import main
from singlet_selftest.device import (
    canonical_chsh_device,
    canonical_my_device,
    correlation_stack,
    make_device,
    validate_stack,
)
from singlet_selftest.documents import (
    DocumentError,
    complex_to_json,
    device_from_document,
    device_to_document,
    document_digest,
    load_device,
)
from singlet_selftest.explorer import FamilySpec, SearchResult
from singlet_selftest.linalg import PAULI_X, PAULI_Z

# An integer literal too large for a float: 1 followed by 400 zeros.
HUGE_INT = "1" + "0" * 400


@pytest.fixture
def chsh_doc_path(tmp_path):
    path = tmp_path / "canonical_chsh.json"
    save_device(path, canonical_chsh_device())
    return path


class TestDocuments:
    def test_round_trip_value_identical(self, tmp_path):
        device = canonical_chsh_device()
        path = tmp_path / "dev.json"
        save_device(path, device, {"note": "round trip"})
        loaded, digest = load_device(path)
        assert loaded.dims == device.dims
        assert np.array_equal(loaded.state, device.state)
        for name in device.alice_obs:
            assert np.array_equal(loaded.alice_obs[name], device.alice_obs[name])
        for name in device.bob_obs:
            assert np.array_equal(loaded.bob_obs[name], device.bob_obs[name])
        # digest is stable across serialize/deserialize cycles
        assert digest == document_digest(device_to_document(device)) == document_digest(
            device_to_document(loaded)
        )

    def test_round_trip_random_amplitudes(self, tmp_path):
        rng = np.random.default_rng(5)
        state = rng.normal(size=6) + 1j * rng.normal(size=6)
        state /= np.linalg.norm(state)
        device = make_device((3, 2), state, {"A0": np.eye(3)}, {"B0": PAULI_Z})
        path = tmp_path / "dev.json"
        save_device(path, device)
        loaded, _ = load_device(path)
        assert np.array_equal(loaded.state, device.state)

    def test_encoding_is_bitwise_for_signed_zeros_and_strided_input(self, tmp_path):
        rng = np.random.default_rng(7)
        full = rng.normal(size=(4, 6)) + 1j * rng.normal(size=(4, 6))
        full[0, 0] = complex(-0.0, 0.0)
        full[1, 2] = complex(0.0, -0.0)
        strided = full[:, ::2]
        assert not strided.flags.c_contiguous
        # the per-entry [float(re), float(im)] encoding, as JSON text so -0.0 counts
        want = [[[float(z.real), float(z.imag)] for z in row] for row in strided]
        assert json.dumps(complex_to_json(strided)) == json.dumps(want)
        assert json.dumps(complex_to_json(strided[:, 0])) == json.dumps([r[0] for r in want])
        # a negated state has -0.0 imaginary parts, kept through a file round trip
        base = canonical_chsh_device()
        device = make_device((2, 2), -base.state[0], first_observables(base.alice_obs),
                             first_observables(base.bob_obs))
        assert "-0.0" in json.dumps(device_to_document(device)["state"])
        path = tmp_path / "dev.json"
        save_device(path, device)
        loaded, digest = load_device(path)
        assert np.array_equal(np.signbit(loaded.state.imag), np.signbit(device.state.imag))
        assert digest == document_digest(device_to_document(loaded)) == document_digest(
            device_to_document(device)
        )

    def test_truncated_file_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"schemaVersion": "1", "dims": [2', encoding="utf-8")
        with pytest.raises(DocumentError, match="parse error at line"):
            load_device(path)

    def test_unknown_schema_version(self):
        doc = device_to_document(canonical_chsh_device())
        doc["schemaVersion"] = "99"
        with pytest.raises(DocumentError, match="schemaVersion"):
            device_from_document(doc)

    def test_bad_matrix_rows_named(self):
        doc = device_to_document(canonical_chsh_device())
        doc["observables"]["alice"]["A0"][0] = [[1.0, 0.0]]
        with pytest.raises(DocumentError, match="observables.alice.A0"):
            device_from_document(doc)

    def test_invariant_violation_is_fatal(self, tmp_path, capsys):
        base = canonical_chsh_device()
        broken = make_device(
            (2, 2), base.state[0],
            {"A0": 0.5 * PAULI_X, "A1": PAULI_Z},
            first_observables(base.bob_obs),
        )
        path = tmp_path / "bad.json"
        save_device(path, broken)
        load_device(path)  # parsing does not validate; certify does
        out = tmp_path / "report.json"
        code = main(["certify", "--device", str(path), "--mode", "chsh", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: invalid device: A0: O^2 != I")
        assert not out.exists()


def _device_32x32_document() -> dict:
    """Document of a 32x32 device with dense complex entries everywhere."""
    rng = np.random.default_rng(32)
    state = rng.normal(size=32 * 32) + 1j * rng.normal(size=32 * 32)
    g = rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32))
    return device_to_document(make_device(
        (32, 32), state / np.linalg.norm(state), {"A0": g + g.conj().T}, {"B0": np.eye(32)}))


class TestBulkParse:
    """Each malformed entry sits last, after 1,023 well-formed ones, so the
    bulk parse is what meets it; the message still names that entry."""

    @pytest.mark.parametrize("entry,shown", [
        ([0.5, True], "[0.5, True]"),
        ("0.5", "'0.5'"),
        ([0.5], "[0.5]"),
        ([0.5, 0.0, 0.0], "[0.5, 0.0, 0.0]"),
        ([[0.5, 0.0], [0.0, 0.0]], "[[0.5, 0.0], [0.0, 0.0]]"),
    ])
    def test_bad_last_entry_named(self, entry, shown):
        doc = _device_32x32_document()
        doc["observables"]["alice"]["A0"][31][31] = entry
        with pytest.raises(DocumentError) as err:
            device_from_document(doc)
        assert str(err.value) == (
            f"observables.alice.A0[31][31]: expected a [re, im] pair, got {shown}")
        doc = _device_32x32_document()
        doc["state"][1023] = entry
        with pytest.raises(DocumentError) as err:
            device_from_document(doc)
        assert str(err.value) == f"state[1023]: expected a [re, im] pair, got {shown}"

    def test_short_last_row_named(self):
        doc = _device_32x32_document()
        doc["observables"]["bob"]["B0"][31].pop()
        with pytest.raises(DocumentError) as err:
            device_from_document(doc)
        assert str(err.value) == (
            "observables.bob.B0: row 31 has 31 entries, expected 32 (square, row-major)")

    def test_every_entry_nested_once_more_named(self):
        # rectangular, so only the shape tells it from a matrix of pairs
        doc = _device_32x32_document()
        doc["observables"]["bob"]["B0"] = [[[e, e] for e in row]
                                           for row in doc["observables"]["bob"]["B0"]]
        with pytest.raises(DocumentError) as err:
            device_from_document(doc)
        assert str(err.value) == (
            "observables.bob.B0[0][0]: expected a [re, im] pair, got [[1.0, 0.0], [1.0, 0.0]]")

    def test_integer_entries_load_bit_exactly(self):
        doc = _device_32x32_document()
        ints = [3, -2, 2**53 + 1, -(2**63), 2**64 + 1, 3**600]
        for k, (re, im) in enumerate(zip(ints, ints[::-1])):
            doc["state"][1023 - k] = [re, im]
            doc["observables"]["alice"]["A0"][31][31 - k] = [re, im]
        device, _ = device_from_document(json.loads(json.dumps(doc)))
        for k, (re, im) in enumerate(zip(ints, ints[::-1])):
            want = np.array([float(re), float(im)]).tobytes()
            assert device.state[0, 1023 - k:1024 - k].view(float).tobytes() == want
            assert device.alice_obs["A0"][0, 31, 31 - k:32 - k].view(float).tobytes() == want

    def test_signed_zeros_survive_a_round_trip(self):
        doc = _device_32x32_document()
        doc["state"][1023] = [-0.0, -0.0]
        doc["observables"]["alice"]["A0"][31][31] = [-0.0, 0.0]
        device, _ = device_from_document(json.loads(json.dumps(doc)))
        assert np.signbit(device.state[0, 1023].real) and np.signbit(device.state[0, 1023].imag)
        entry = device.alice_obs["A0"][0, 31, 31]
        assert np.signbit(entry.real) and not np.signbit(entry.imag)
        assert json.dumps(device_to_document(device)) == json.dumps(doc)

    def test_last_integer_beyond_float_range_exits_two(self, tmp_path, capsys):
        doc = _device_32x32_document()
        doc["state"][1023] = ["HUGE", 0.0]
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc).replace('"HUGE"', str(2**1100)))
        out = tmp_path / "report.json"
        code = main(["certify", "--device", str(path), "--mode", "chsh", "--out", str(out)])
        assert (code, capsys.readouterr().err) == (2, "error: int too large to convert to float\n")
        assert not out.exists()


class TestCertifyCommand:
    def test_canonical_passes(self, chsh_doc_path, tmp_path):
        out = tmp_path / "report.json"
        code = main([
            "certify", "--device", str(chsh_doc_path), "--mode", "chsh",
            "--out", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["report"]["allPass"] is True
        assert len(report["report"]["rows"]) == 35
        assert report["inputsDigest"].startswith("sha256:")
        for row in report["report"]["rows"]:
            assert {"name", "measured", "bound", "pass", "formula"} <= set(row)

    def test_bob_sum_off_hermitian_by_twice_the_tolerance_passes(self, tmp_path, capsys):
        # B0 and B1 are each 0.9e-10 from Hermitian, inside validation's 1e-10, so
        # B0 + B1 is 1.8e-10 off; the operator sign must take it as it is.
        skew = 0.45e-10 * np.array([[0.0, 1.0], [-1.0, 0.0]])  # 0.45e-10 * iY
        base = canonical_chsh_device()
        bob = {name: m[0] + skew for name, m in base.bob_obs.items()}
        device = make_device((2, 2), base.state[0], first_observables(base.alice_obs), bob)
        assert validate_stack(device) == [[]]
        path = tmp_path / "skewed.json"
        save_device(path, device)
        out = tmp_path / "report.json"
        code = main(["certify", "--device", str(path), "--mode", "chsh", "--out", str(out)])
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, "")
        assert captured.out.startswith("PASS: all 35 rows within bounds")
        assert json.loads(out.read_text())["report"]["allPass"] is True

    def test_failing_device_exits_one(self, tmp_path):
        # valid device whose deviation is >= 1: budget rows fail
        base = canonical_chsh_device()
        state = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
        device = make_device((2, 2), state, first_observables(base.alice_obs),
                             first_observables(base.bob_obs))
        path = tmp_path / "product.json"
        save_device(path, device)
        out = tmp_path / "report.json"
        code = main(["certify", "--device", str(path), "--mode", "chsh", "--out", str(out)])
        assert code == 1
        report = json.loads(out.read_text())
        assert report["report"]["allPass"] is False

    def test_invalid_device_exits_two_without_output(self, tmp_path):
        base = canonical_chsh_device()
        broken = make_device(
            (2, 2), base.state[0],
            {"A0": 0.5 * PAULI_X, "A1": PAULI_Z},
            first_observables(base.bob_obs),
        )
        path = tmp_path / "bad.json"
        save_device(path, broken)
        out = tmp_path / "report.json"
        code = main(["certify", "--device", str(path), "--mode", "chsh", "--out", str(out)])
        assert code == 2
        assert not out.exists()

    def test_nan_amplitude_exits_two_without_output(self, tmp_path, capsys):
        doc = device_to_document(canonical_chsh_device())
        doc["state"][0] = [math.nan, 0.0]
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "report.json"
        code = main(["certify", "--device", str(path), "--mode", "chsh", "--out", str(out)])
        assert code == 2
        assert "state: non-finite entry" in capsys.readouterr().err
        assert not out.exists()

    def test_oversized_integer_amplitude_exits_two(self, tmp_path, capsys):
        # a JSON integer literal beyond the float range, where float() overflows
        doc = device_to_document(canonical_chsh_device())
        doc["state"][0] = ["HUGE", 0.0]
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc).replace('"HUGE"', HUGE_INT))
        out = tmp_path / "report.json"
        code = main(["certify", "--device", str(path), "--mode", "chsh", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_boolean_amplitude_exits_two(self, tmp_path, capsys):
        # JSON false loads as a bool, an int subclass, but it is not a number
        doc = device_to_document(canonical_chsh_device())
        doc["state"][0] = [False, False]
        path = tmp_path / "bool.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "report.json"
        code = main(["certify", "--device", str(path), "--mode", "chsh", "--out", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "state[0]: expected a [re, im] pair" in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("alice", [[1], "ab", []])
    def test_party_observables_not_an_object_exit_two(self, tmp_path, capsys, alice):
        doc = device_to_document(canonical_chsh_device())
        doc["observables"] = {"alice": alice, "bob": {}}
        path = tmp_path / "party.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "report.json"
        code = main(["certify", "--device", str(path), "--mode", "chsh", "--out", str(out)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == "error: observables.alice: expected an object of name -> matrix\n"
        assert not out.exists()

    def test_boolean_dims_exit_two(self, tmp_path, capsys):
        one = [[[1.0, 0.0]]]
        doc = {
            "schemaVersion": "1",
            "dims": [True, True],
            "state": [[1.0, 0.0]],
            "observables": {"alice": {"A0": one, "A1": one}, "bob": {"B0": one, "B1": one}},
        }
        path = tmp_path / "bool_dims.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "report.json"
        code = main(["certify", "--device", str(path), "--mode", "chsh", "--out", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "dims: expected two positive integers" in captured.err
        assert not out.exists()

    def test_truncated_input_exits_two(self, tmp_path):
        path = tmp_path / "trunc.json"
        path.write_text("{", encoding="utf-8")
        out = tmp_path / "report.json"
        code = main(["certify", "--device", str(path), "--mode", "chsh", "--out", str(out)])
        assert code == 2
        assert not out.exists()

    def test_missing_mode_is_usage_error(self, chsh_doc_path, tmp_path):
        code = main([
            "certify", "--device", str(chsh_doc_path), "--out", str(tmp_path / "r.json"),
        ])
        assert code == 2

    def test_wrong_mode_for_device_exits_two(self, tmp_path):
        # an MY device has no A0/A1/B0/B1; asking for chsh mode is an input error
        path = tmp_path / "my.json"
        save_device(path, canonical_my_device())
        out = tmp_path / "report.json"
        code = main(["certify", "--device", str(path), "--mode", "chsh", "--out", str(out)])
        assert code == 2
        assert not out.exists()

    def test_unwritable_output_exits_two(self, chsh_doc_path, tmp_path):
        out_dir = tmp_path / "adir"
        out_dir.mkdir()
        code = main([
            "certify", "--device", str(chsh_doc_path), "--mode", "chsh",
            "--out", str(out_dir),
        ])
        assert code == 2

    def test_my_mode(self, tmp_path):
        path = tmp_path / "my.json"
        save_device(path, canonical_my_device())
        out = tmp_path / "report.json"
        code = main(["certify", "--device", str(path), "--mode", "my", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert len(report["report"]["rows"]) == 25

    def test_tilted_device_passes_with_slack_columns(self, tmp_path):
        from conftest import tilted_device

        path = tmp_path / "tilted.json"
        save_device(path, tilted_device(math.pi / 8))
        out = tmp_path / "report.json"
        code = main(["certify", "--device", str(path), "--mode", "chsh", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["report"]["epsilon"] > 0.1
        slacks = [row["slack"] for row in report["report"]["rows"]]
        assert all(s is not None and s >= -1e-9 for s in slacks)

    def test_degenerate_device_report_is_clean_json(self, tmp_path):
        base = canonical_chsh_device()
        device = make_device(
            (2, 2), np.array([0, 0, 0, 1], dtype=complex),
            first_observables(base.alice_obs), first_observables(base.bob_obs),
        )
        path = tmp_path / "degenerate.json"
        save_device(path, device)
        out = tmp_path / "report.json"
        code = main(["certify", "--device", str(path), "--mode", "chsh", "--out", str(out)])
        assert code == 1
        report = json.loads(out.read_text())  # NaNs serialized as null
        assert report["report"]["junk"]["degenerate"] is True
        extraction = [r for r in report["report"]["rows"] if r["category"] == "extraction"]
        assert all(r["measured"] is None and r["pass"] is False for r in extraction)

    def test_no_stray_temp_files_on_unwritable_output(self, chsh_doc_path, tmp_path):
        out_dir = tmp_path / "adir"
        out_dir.mkdir()
        before = sorted(p.name for p in tmp_path.iterdir())
        code = main([
            "certify", "--device", str(chsh_doc_path), "--mode", "chsh",
            "--out", str(out_dir),
        ])
        assert code == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == before


class TestCorrelationsCommand:
    def test_chsh_table_summing_to_2p80(self, tmp_path, capsys):
        table = tmp_path / "table.json"
        table.write_text(json.dumps(
            {"A0_B0": 0.70, "A0_B1": 0.70, "A1_B0": 0.70, "A1_B1": -0.70}
        ))
        code = main(["correlations", "--table", str(table), "--mode", "chsh"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["epsilon"] == pytest.approx(0.028427124746190469, abs=1e-15)
        assert doc["budgets"]["eps1"] == pytest.approx(
            2.0 * math.sqrt(doc["epsilon"] * math.sqrt(2.0)), rel=1e-12
        )
        assert doc["bounds"]["bOperator"] > 0
        assert "device model" in doc["note"]

    def test_exact_table_gives_zero_budgets(self, tmp_path, capsys):
        c = 1.0 / math.sqrt(2.0)
        table = tmp_path / "table.json"
        table.write_text(json.dumps({"A0_B0": c, "A0_B1": c, "A1_B0": c, "A1_B1": -c}))
        code = main(["correlations", "--table", str(table), "--mode", "chsh"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        # the sum reproduces 2*sqrt(2) to an ulp; everything collapses with it
        assert doc["epsilon"] <= 1e-12
        assert doc["budgets"]["eps1"] <= 1e-5 and doc["budgets"]["eps2"] <= 1e-2
        assert doc["bounds"]["extractionError"] <= 1e-2

    def test_my_table(self, tmp_path, capsys):
        c = 1.0 / math.sqrt(2.0)
        values = {
            "XA_XB": 0.99, "XA_ZB": 0.0, "XA_DB": c,
            "ZA_XB": 0.0, "ZA_ZB": 1.0, "ZA_DB": c,
        }
        table = tmp_path / "table.json"
        table.write_text(json.dumps(values))
        code = main(["correlations", "--table", str(table), "--mode", "my"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["epsilon"] == pytest.approx(0.01, abs=1e-12)
        assert doc["budgets"]["eps2"] == pytest.approx(math.sqrt(0.02), rel=1e-12)
        assert doc["fidelity"]["discrepancy"] is True

    def test_all_zero_table_lies_outside_the_certifiable_range(self, tmp_path):
        # epsilon = 2 sqrt(2) >= 1 has no budget: the summary still exits 0.
        for run, directory in each_runner(tmp_path):
            table, out = directory / "table.json", directory / "summary.json"
            table.write_text(json.dumps({"A0_B0": 0, "A0_B1": 0, "A1_B0": 0, "A1_B1": 0}))
            assert run(["correlations", "--table", str(table), "--mode", "chsh",
                        "--out", str(out)])[0] == 0
            assert '"budgets": null' in out.read_text()
            doc = json.loads(out.read_text())
            assert doc["epsilon"] == 2.8284271247461903
            assert doc["budgets"] is None and doc["bounds"] is None
            assert doc["fidelity"]["bound"] == 0.0
            assert doc["note"].endswith(
                "; deviation >= 1 lies outside the certifiable range, budgets omitted")

    def test_missing_entry_exits_two(self, tmp_path):
        table = tmp_path / "table.json"
        table.write_text(json.dumps({"A0_B0": 0.7}))
        assert main(["correlations", "--table", str(table), "--mode", "chsh"]) == 2

    @pytest.mark.parametrize("extra,named", [
        ({"A0_B2": 5}, "['A0_B2']"),
        # a Mayers-Yao key in a CHSH table, and the keys in sorted order
        ({"ZA_ZB": 1.0, "XA_XB": 0.99}, "['XA_XB', 'ZA_ZB']"),
    ], ids=["mistyped", "other-mode"])
    def test_unknown_entry_exits_two(self, tmp_path, extra, named):
        for run, directory in each_runner(tmp_path):
            table = directory / "table.json"
            table.write_text(json.dumps(
                {"A0_B0": 0.7, "A0_B1": 0.7, "A1_B0": 0.7, "A1_B1": -0.7, **extra}
            ))
            out = directory / "summary.json"
            code, stdout, stderr = run([
                "correlations", "--table", str(table), "--mode", "chsh", "--out", str(out),
            ])
            assert code == 2
            assert stdout == ""
            assert stderr == (
                f"error: correlation table has unknown entries for mode chsh: {named}\n"
            )
            assert not out.exists()

    def test_out_of_range_value_exits_two(self, tmp_path):
        table = tmp_path / "table.json"
        table.write_text(json.dumps(
            {"A0_B0": 1.5, "A0_B1": 0.7, "A1_B0": 0.7, "A1_B1": -0.7}
        ))
        assert main(["correlations", "--table", str(table), "--mode", "chsh"]) == 2

    def test_super_quantum_chsh_table_exits_two(self, tmp_path):
        # PR-box correlations reach CHSH = 4; clamping the deficit to 0 would
        # certify a perfect singlet from data no quantum device can produce
        for run, directory in each_runner(tmp_path):
            table = directory / "table.json"
            table.write_text(json.dumps({"A0_B0": 1, "A0_B1": 1, "A1_B0": 1, "A1_B1": -1}))
            out = directory / "summary.json"
            code, stdout, stderr = run([
                "correlations", "--table", str(table), "--mode", "chsh", "--out", str(out),
            ])
            assert code == 2
            assert stdout == ""
            assert stderr.startswith("error: Bob's B1 needs Alice's two settings at least ")
            assert "rad apart and Bob's B0 at most " in stderr
            assert "no quantum device produces this table" in stderr
            assert not out.exists()

    @pytest.mark.parametrize("values", [
        # E00 = E01 = E10 = 1 forces E11 = 1, yet the CHSH value is 2*sqrt(2):
        # B1 needs A1 at an angle acos(0.17) from A0, B0 needs it at 0
        {"A0_B0": 1, "A0_B1": 1, "A1_B0": 1, "A1_B1": 0.1715728752538097},
        # CHSH = -4: B1 needs A0 and A1 opposite, B0 needs them aligned
        {"A0_B0": -1, "A0_B1": -1, "A1_B0": -1, "A1_B1": 1},
    ])
    def test_non_quantum_chsh_table_exits_two(self, tmp_path, capsys, values):
        table = tmp_path / "table.json"
        table.write_text(json.dumps(values))
        out = tmp_path / "summary.json"
        code = main([
            "correlations", "--table", str(table), "--mode", "chsh", "--out", str(out),
        ])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: Bob's B1 needs Alice's two settings at least ")
        assert "rad apart and Bob's B0 at most " in captured.err
        assert "no quantum device produces this table" in captured.err
        assert not out.exists()

    def test_non_quantum_my_table_exits_two(self, tmp_path, capsys):
        # XB puts XA and ZA at right angles, and raising XA_DB and ZA_DB above
        # the ideal 1/sqrt(2) leaves DB room for an angle under pi/2 only,
        # though epsilon is 1e-3
        c = 1.0 / math.sqrt(2.0) + 1e-3
        table = tmp_path / "table.json"
        table.write_text(json.dumps({"XA_XB": 1, "XA_ZB": 0, "XA_DB": c,
                                     "ZA_XB": 0, "ZA_ZB": 1, "ZA_DB": c}))
        out = tmp_path / "summary.json"
        code = main(["correlations", "--table", str(table), "--mode", "my", "--out", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: Bob's XB needs Alice's two settings at least ")
        assert "rad apart and Bob's DB at most " in captured.err
        assert "no quantum device produces this table" in captured.err
        assert not out.exists()

    def test_ideal_my_table_on_the_quantum_boundary(self, tmp_path, capsys):
        # the canonical device's table: two sub-tables' arcsine sums are pi
        c = 1.0 / math.sqrt(2.0)
        table = tmp_path / "table.json"
        table.write_text(json.dumps({"XA_XB": 1, "XA_ZB": 0, "XA_DB": c,
                                     "ZA_XB": 0, "ZA_ZB": 1, "ZA_DB": c}))
        assert main(["correlations", "--table", str(table), "--mode", "my"]) == 0
        assert json.loads(capsys.readouterr().out)["epsilon"] <= 1e-15

    def test_deterministic_chsh_table_on_the_quantum_boundary(self, tmp_path):
        # a local deterministic strategy: one arcsine sum is exactly pi
        table = tmp_path / "table.json"
        table.write_text(json.dumps({"A0_B0": 1, "A0_B1": 1, "A1_B0": 1, "A1_B1": 1}))
        for run in RUNNERS.values():
            code, stdout, _ = run(["correlations", "--table", str(table), "--mode", "chsh"])
            assert code == 0
            assert json.loads(stdout)["chshValue"] == 2.0

    def test_chsh_table_just_above_tsirelson_within_rounding(self, tmp_path, capsys):
        c = 1.0 / math.sqrt(2.0) + 5e-13
        table = tmp_path / "table.json"
        table.write_text(json.dumps({"A0_B0": c, "A0_B1": c, "A1_B0": c, "A1_B1": -c}))
        assert main(["correlations", "--table", str(table), "--mode", "chsh"]) == 0
        assert json.loads(capsys.readouterr().out)["epsilon"] == 0.0

    @pytest.mark.parametrize("mode,key,values", [
        ("chsh", "A0_B0", {"A0_B0": math.nan, "A0_B1": 0.7, "A1_B0": 0.7, "A1_B1": -0.7}),
        ("my", "XA_DB", {"XA_XB": 1.0, "XA_ZB": 0.0, "XA_DB": math.nan,
                         "ZA_XB": 0.0, "ZA_ZB": 1.0, "ZA_DB": 0.7}),
        ("chsh", "A1_B1", {"A0_B0": 0.7, "A0_B1": 0.7, "A1_B0": 0.7, "A1_B1": -math.inf}),
    ])
    def test_non_finite_entry_exits_two(self, tmp_path, capsys, mode, key, values):
        # json.dumps writes NaN/Infinity and json.loads reads them back; a NaN
        # fails every comparison, so no range check would reject it
        table = tmp_path / "table.json"
        table.write_text(json.dumps(values))
        assert main(["correlations", "--table", str(table), "--mode", mode]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert repr(key) in captured.err and "not a finite number" in captured.err

    def test_oversized_integer_entry_exits_two(self, tmp_path, capsys):
        table = tmp_path / "table.json"
        table.write_text(
            '{"A0_B0": %s, "A0_B1": 0.7, "A1_B0": 0.7, "A1_B1": -0.7}' % HUGE_INT
        )
        out = tmp_path / "summary.json"
        code = main(["correlations", "--table", str(table), "--mode", "chsh",
                     "--out", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
        assert not out.exists()

    def test_boolean_entry_exits_two(self, tmp_path, capsys):
        table = tmp_path / "table.json"
        table.write_text(json.dumps({"A0_B0": True, "A0_B1": 0.7, "A1_B0": 0.7,
                                     "A1_B1": False}))
        out = tmp_path / "summary.json"
        code = main(["correlations", "--table", str(table), "--mode", "chsh",
                     "--out", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "correlation 'A0_B0': expected a number, got True" in captured.err
        assert not out.exists()

    def test_output_file(self, tmp_path):
        c = 1.0 / math.sqrt(2.0)
        table = tmp_path / "table.json"
        table.write_text(json.dumps({"A0_B0": c, "A0_B1": c, "A1_B0": c, "A1_B1": -c}))
        out = tmp_path / "summary.json"
        code = main([
            "correlations", "--table", str(table), "--mode", "chsh", "--out", str(out),
        ])
        assert code == 0
        assert json.loads(out.read_text())["epsilon"] <= 1e-12


class TestDeviationAgreement:
    """Device input and correlation-table input give the same deviation."""

    @pytest.mark.parametrize("mode", ["chsh", "my"])
    @pytest.mark.parametrize("kind,parameters", [
        ("tilted", {"theta": 0.6}),
        ("measurement-noise", {"eta": 0.05}),
    ])
    def test_table_of_device_correlations_matches_certify(
        self, tmp_path, mode, kind, parameters
    ):
        device = make_family(FamilySpec(kind, parameters, seed=13, mode=mode))[0]
        selftest = MODES[mode]
        values = correlation_stack(device, selftest.pairs)[0].tolist()
        table = tmp_path / "table.json"
        table.write_text(json.dumps(dict(zip(selftest.table_keys, values))))
        summary = tmp_path / "summary.json"
        assert main(["correlations", "--table", str(table), "--mode", mode,
                     "--out", str(summary)]) == 0
        device_path = tmp_path / "device.json"
        save_device(device_path, device)
        report = tmp_path / "report.json"
        main(["certify", "--device", str(device_path), "--mode", mode, "--out", str(report)])
        from_table = json.loads(summary.read_text())
        from_device = json.loads(report.read_text())["report"]
        assert from_table["epsilon"] > 0.0
        assert from_table["epsilon"] == from_device["epsilon"]
        assert from_table["chshValue"] == from_device["chshValue"]
        assert (from_table["chshValue"] is None) == (mode == "my")


class TestSweepCommand:
    def write_spec(self, tmp_path):
        spec = {
            "kind": "tilted",
            "mode": "chsh",
            "dims": [2, 2],
            "seed": 42,
            "parameters": {
                "theta": {"start": math.pi / 4, "stop": math.pi / 8, "steps": 20}
            },
        }
        path = tmp_path / "family.json"
        path.write_text(json.dumps(spec))
        return path

    def test_row_count_and_header(self, tmp_path):
        for run, directory in each_runner(tmp_path):
            spec = self.write_spec(directory)
            out = directory / "sweep.csv"
            assert run(["sweep", "--family", str(spec), "--out", str(out)])[0] == 0
            lines = out.read_text().splitlines()
            assert lines[0] == "theta,epsilon,eps1,eps2,maxError,bound,slack"
            assert len(lines) == 21

    def test_byte_identical_reruns(self, tmp_path):
        spec = self.write_spec(tmp_path)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["sweep", "--family", str(spec), "--out", str(out1)]) == 0
        assert main(["sweep", "--family", str(spec), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_bad_family_kind_exits_two(self, tmp_path):
        path = tmp_path / "family.json"
        path.write_text(json.dumps({"kind": "bogus", "parameters": {"count": 2}}))
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--family", str(path), "--out", str(out)]) == 2
        assert not out.exists()

    def test_unknown_field_exits_two(self, tmp_path):
        path = tmp_path / "family.json"
        path.write_text(json.dumps({"kind": "tilted", "theta": 0.5}))
        assert main(["sweep", "--family", str(path), "--out", str(tmp_path / "s.csv")]) == 2

    @pytest.mark.parametrize("spec", [
        {"kind": "random", "parameters": {"count": 3}},
        {"kind": "tilted", "parameters": {"theta": [0, 1, 3]}},
    ])
    def test_left_out_fields_take_the_family_spec_defaults(self, tmp_path, spec):
        full = {"dims": [2, 2], "seed": 0, "mode": "chsh", **spec}
        outs = []
        for name, doc in (("bare", spec), ("full", full)):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(doc))
            outs.append(tmp_path / f"{name}.csv")
            assert main(["sweep", "--family", str(path), "--out", str(outs[-1])]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    @pytest.mark.parametrize("dims", [[2], [2, 2, 2], "2x2", None, {"dA": 2}])
    def test_dims_not_a_pair_exit_two_naming_them(self, tmp_path, capsys, dims):
        path = tmp_path / "family.json"
        path.write_text(json.dumps({"kind": "tilted", "dims": dims}))
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--family", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: family spec dims must be [dA, dB], got {dims!r}\n")
        assert not out.exists()

    def test_oversized_integer_parameter_exits_two(self, tmp_path, capsys):
        path = tmp_path / "family.json"
        path.write_text('{"kind": "tilted", "parameters": {"theta": %s}}' % HUGE_INT)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--family", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("spec,field", [
        ({"kind": "random", "dims": [2.9, True], "parameters": {"count": 2}}, "dims"),
        ({"kind": "random", "dims": [0, 2], "parameters": {"count": 1}}, "dims"),
        ({"kind": "random", "seed": True, "parameters": {"count": 2}}, "seed"),
        ({"kind": "random", "parameters": {"count": 2.7}}, "count"),
        ({"kind": "random", "parameters": {"count": "3"}}, "count"),
        ({"kind": "tilted", "parameters": {"theta": True}}, "theta"),
        ({"kind": "tilted", "parameters": {"theta": None}}, "theta"),
        ({"kind": "tilted", "parameters": {"theta": [0.0, 1.0, 2.5]}}, "theta"),
        ({"kind": "tilted", "parameters": {"theta": {"start": 0, "stop": 1}}}, "theta"),
        ({"kind": "tilted", "parameters": [1, 2]}, "parameters"),
        ({"kind": "tilted", "parameters": {"theta": 0.1, "bogus": 3}}, "bogus"),
        ({"kind": "random", "parameters": {"count": 10**12}}, "count"),
        ({"kind": "tilted", "parameters": {"theta": [0, 1, 10**12]}}, "theta"),
        ({"kind": "random", "seed": -1, "parameters": {"count": 2}}, "seed"),
    ])
    def test_malformed_spec_exits_two_naming_the_field(self, tmp_path, capsys, spec, field):
        path = tmp_path / "family.json"
        path.write_text(json.dumps(spec))
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--family", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err
        assert not out.exists()

    @pytest.mark.parametrize("kind,axis,value,shown", [
        ("tilted", "theta", "Infinity", "inf"),
        ("tilted", "theta", "[0, Infinity, 3]", "inf"),
        ("tilted", "theta", "[-Infinity, 0, 3]", "-inf"),
        ("state-noise", "p", "NaN", "nan"),
        ("state-noise", "p", "[0, NaN, 4]", "nan"),
        ("measurement-noise", "eta", '{"start": 0, "stop": NaN, "steps": 2}', "nan"),
        ("measurement-noise", "eta", '{"start": Infinity, "stop": 0.1, "steps": 0}', "inf"),
    ])
    def test_non_finite_axis_value_exits_two(self, tmp_path, capsys, kind, axis, value, shown):
        # json.loads accepts NaN and Infinity; they are rejected before any
        # point is built, with the error line as the only output on stderr.
        path = tmp_path / "family.json"
        path.write_text('{"kind": "%s", "parameters": {"%s": %s}}' % (kind, axis, value))
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--family", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {axis} must be finite, got {shown}\n"
        assert not out.exists()

    @pytest.mark.parametrize("kind,axis", [("tilted", "theta"), ("state-noise", "p")])
    def test_overflowing_range_exits_two_naming_the_axis(self, tmp_path, capsys, kind, axis):
        # Both ends are finite but stop - start is not: np.linspace would warn
        # and return non-finite points.  Tier-1 makes a RuntimeWarning an error.
        path = tmp_path / "family.json"
        path.write_text(json.dumps(
            {"kind": kind, "parameters": {axis: {"start": -1e308, "stop": 1e308, "steps": 3}}}))
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--family", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {axis} range stop - start must be finite, got inf\n")
        assert not out.exists()

    @pytest.mark.parametrize("kind,axis", [("tilted", "theta"), ("state-noise", "p")])
    def test_negative_range_steps_exits_two_naming_the_axis(self, tmp_path, capsys, kind,
                                                            axis):
        path = tmp_path / "family.json"
        path.write_text(json.dumps({"kind": kind, "parameters": {axis: [0, 1, -1]}}))
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--family", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {axis} range steps must be nonnegative, got -1\n"
        assert not out.exists()

    @pytest.mark.parametrize("spec,message", [
        ({"kind": "tilted", "parameters": {"theta": [0, 1, 0]}, "dims": [4, 4]},
         "tilted family requires dims (2, 2)"),
        ({"kind": "junk-embedded", "parameters": {"count": 0}, "dims": [3, 3]},
         "junk-embedded dims must be even and >= 2, got (3, 3)"),
    ], ids=["tilted", "junk-embedded"])
    def test_empty_sweep_with_bad_dims_exits_two(self, tmp_path, capsys, spec, message):
        path = tmp_path / "family.json"
        path.write_text(json.dumps(spec))
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--family", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_empty_sweep_writes_its_header_alone(self, tmp_path):
        for run, directory in each_runner(tmp_path):
            path, out = directory / "family.json", directory / "sweep.csv"
            path.write_text(json.dumps({"kind": "random", "parameters": {"count": 0}}))
            code, stdout, _ = run(["sweep", "--family", str(path), "--out", str(out)])
            assert (code, stdout) == (0, f"wrote 0 sweep rows to {out}\n")
            assert out.read_bytes() == b"count,epsilon,eps1,eps2,maxError,bound,slack\n"

    def test_value_out_of_range_exits_two_without_a_csv(self, tmp_path):
        for run, directory in each_runner(tmp_path):
            path, out = directory / "family.json", directory / "sweep.csv"
            path.write_text(json.dumps({"kind": "state-noise", "parameters": {"p": [0, 2, 3]}}))
            assert run(["sweep", "--family", str(path), "--out", str(out)])[0] == 2
            assert not out.exists()

    def test_degenerate_row_written_as_nan(self, tmp_path):
        spec = {
            "kind": "tilted",
            "parameters": {"theta": {"start": math.pi / 4, "stop": math.pi / 2, "steps": 3}},
        }
        path = tmp_path / "family.json"
        path.write_text(json.dumps(spec))
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--family", str(path), "--out", str(out)]) == 0
        last = out.read_text().splitlines()[-1].split(",")
        assert last[4] == "nan" and last[6] == "nan"  # maxError, slack


class TestSearchCommand:
    def test_search_writes_device_and_report(self, tmp_path):
        out = tmp_path / "best.json"
        code = main([
            "search", "--mode", "chsh", "--epsilon-ceiling", "0.01",
            "--dims", "2,2", "--budget", "60", "--seed", "5", "--out", str(out),
        ])
        assert code == 0
        device, _ = load_device(out)
        assert device.dims == (2, 2)
        report_path = tmp_path / "best.json.report.json"
        report = json.loads(report_path.read_text())
        assert report["report"]["epsilon"] <= 0.01 + 1e-12

    def test_zero_budget_exits_two(self, tmp_path):
        code = main([
            "search", "--mode", "chsh", "--epsilon-ceiling", "0.01",
            "--budget", "0", "--out", str(tmp_path / "x.json"),
        ])
        assert code == 2

    def test_not_found_exits_one(self, tmp_path, monkeypatch, capsys):
        import singlet_selftest.cli as cli_module

        monkeypatch.setattr(
            cli_module,
            "worst_case_search",
            lambda *a, **k: SearchResult(False, None, None, 10, degenerate=2, over_ceiling=8),
        )
        code = main([
            "search", "--mode", "chsh", "--epsilon-ceiling", "0.01",
            "--budget", "10", "--out", str(tmp_path / "x.json"),
        ])
        assert code == 1
        assert not (tmp_path / "x.json").exists()
        assert ("8 proposal(s) exceeded epsilon ceiling 0.01, 2 degenerate"
                in capsys.readouterr().err)

    def test_search_finding_nothing_exits_one_without_output(self, tmp_path):
        # The MY seed proposal has epsilon 6.7e-16, above a 1e-300 ceiling.
        for run, directory in each_runner(tmp_path):
            code, _, stderr = run(["search", "--mode", "my", "--epsilon-ceiling", "1e-300",
                                   "--budget", "5", "--out", str(directory / "s.json")])
            assert (code, stderr) == (
                1, "no feasible device found within budget 5: 5 proposal(s) exceeded epsilon "
                   "ceiling 1e-300, 0 degenerate\n")
            assert list(directory.iterdir()) == []

    def test_invalid_proposal_exits_two_without_output(self, tmp_path, monkeypatch, capsys):
        import singlet_selftest.explorer as explorer

        monkeypatch.setattr(explorer, "validate_stack",
                            lambda stack: [["A0: O^2 != I"]] * len(stack))
        code = main([
            "search", "--mode", "chsh", "--epsilon-ceiling", "0.01",
            "--budget", "10", "--out", str(tmp_path / "x.json"),
        ])
        assert code == 2
        assert (capsys.readouterr().err
                == "error: search produced an invalid proposal: A0: O^2 != I\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag,value,message", [
        ("--seed", "-1", "seed must be a nonnegative integer, got -1"),
        ("--dims", "2.7,2", "dims must be two integers 'dA,dB', got '2.7,2'"),
        ("--dims", "2,2,2", "dims must be two integers 'dA,dB', got '2,2,2'"),
        ("--dims", "1,2", "dims must be two integers >= 2, got (1, 2)"),
    ])
    def test_bad_argument_exits_two_named(self, tmp_path, capsys, flag, value, message):
        out = tmp_path / "x.json"
        code = main(["search", "--mode", "chsh", "--epsilon-ceiling", "0.01",
                     "--budget", "10", flag, value, "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_unwritable_report_leaves_no_device(self, tmp_path):
        for run, directory in each_runner(tmp_path):
            out = directory / "s.json"
            report_path = directory / "s.json.report.json"
            report_path.mkdir()
            code, _, stderr = run(["search", "--mode", "chsh", "--epsilon-ceiling", "0.05",
                                   "--budget", "3", "--out", str(out)])
            assert (code, stderr) == (2, f"error: cannot write {report_path}: Is a directory\n")
            assert sorted(directory.iterdir()) == [report_path]
            assert list(report_path.iterdir()) == []

    def test_certify_of_the_written_device_gives_the_search_report(self, tmp_path):
        # The device search writes certifies to the report it writes beside it;
        # only inputsDigest differs (README, "Report document").  The report's
        # correlation table, fed back to correlations, goes through the same
        # deviation: its epsilon exactly, and its budgets less epsilon.
        for run, directory in each_runner(tmp_path):
            out = directory / "best.json"
            assert run(["search", "--mode", "my", "--epsilon-ceiling", "0.05", "--dims", "3,4",
                        "--budget", "200", "--seed", "5", "--out", str(out)])[0] == 0
            searched = json.loads((directory / "best.json.report.json").read_text())
            certified = directory / "certified.json"
            code = run(["certify", "--device", str(out), "--mode", "my",
                        "--out", str(certified)])[0]
            assert code == (0 if searched["report"]["allPass"] else 1)
            report = json.loads(certified.read_text())
            searched.pop("inputsDigest")
            report.pop("inputsDigest")
            assert report == searched
            table, summary = directory / "table.json", directory / "summary.json"
            table.write_text(json.dumps(report["report"]["correlations"]))
            assert run(["correlations", "--table", str(table), "--mode", "my",
                        "--out", str(summary)])[0] == 0
            from_table = json.loads(summary.read_text())
            assert from_table["epsilon"] == report["report"]["epsilon"]
            assert from_table["budgets"] == {key: value for key, value
                                             in report["report"]["budgets"].items()
                                             if key != "epsilon"}

    @pytest.mark.parametrize("out,report", [
        ("s.json", "s.json.report.json"), ("s", "s.report.json"),
        ("a.b.json", "a.b.json.report.json"), ("sub/s.json", "sub/s.json.report.json")])
    def test_report_path_appends_to_the_out_name(self, tmp_path, monkeypatch, out, report):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        code, stdout, _ = run_in_process(["search", "--mode", "chsh", "--epsilon-ceiling",
                                          "0.05", "--budget", "3", "--out", out])
        assert code == 0
        assert stdout.endswith(f"\nwrote device to {out} and report to {report}\n")
        assert sorted(str(path.relative_to(tmp_path)) for path in tmp_path.rglob("*")
                      if path.is_file()) == sorted([out, report])

    def test_metadata_and_stdout_leave_out_the_outcome_counts(self, tmp_path, capsys):
        out = tmp_path / "best.json"
        assert main(["search", "--mode", "my", "--epsilon-ceiling", "0.02", "--dims", "2,2",
                     "--budget", "30", "--seed", "3", "--out", str(out)]) == 0
        metadata = json.loads(out.read_text())["metadata"]
        assert set(metadata) == {"generator", "mode", "epsilonCeiling", "budget", "seed",
                                 "evaluations"}
        assert "feasible" not in capsys.readouterr().out


class TestCanonicalCommand:
    def test_stdout_document(self, capsys):
        assert main(["canonical", "--mode", "my"]) == 0
        doc = json.loads(capsys.readouterr().out)
        device, _ = device_from_document(doc)
        assert set(device.bob_obs) == {"XB", "ZB", "DB"}

    def test_file_output(self, tmp_path):
        out = tmp_path / "canon.json"
        assert main(["canonical", "--mode", "chsh", "--out", str(out)]) == 0
        device, _ = load_device(out)
        assert set(device.alice_obs) == {"A0", "A1"}


# The subcommands that read a JSON input file, its path left as "{path}".
INPUT_COMMANDS = [
    ["certify", "--device", "{path}", "--mode", "chsh"],
    ["correlations", "--table", "{path}", "--mode", "chsh"],
    ["sweep", "--family", "{path}"],
]


@pytest.mark.parametrize("command", INPUT_COMMANDS)
def test_deeply_nested_input_exits_two(tmp_path, capsys, command):
    # The parser's recursion limit is a malformed-input error, not a crash.
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    out = tmp_path / "out"
    argv = [arg.format(path=path) for arg in command] + ["--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {path}: nested too deeply to parse\n"
    assert sorted(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("command", INPUT_COMMANDS)
def test_non_utf8_input_exits_two_naming_the_file(tmp_path, capsys, command):
    # A decoding error is a malformed-input error naming the file, like every
    # other read error.
    path = tmp_path / "bad.json"
    path.write_bytes(b'\xff\xfe{"a": 1}')
    out = tmp_path / "out"
    argv = [arg.format(path=path) for arg in command] + ["--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"error: {path}: not UTF-8 text: 'utf-8' codec can't decode byte 0xff in position 0: "
        "invalid start byte\n")
    assert sorted(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("command,text,message", [
    (INPUT_COMMANDS[1], "[0.5]", "correlation table must be a JSON object of name -> value"),
    (INPUT_COMMANDS[2], "[1]", "family spec must be a JSON object"),
    (INPUT_COMMANDS[2], '{"parameters": {}}', "family spec requires a 'kind'"),
    (INPUT_COMMANDS[2], '{"kind": "random", "parameters": {"count": -1}}',
     "count must be nonnegative, got -1"),
    (INPUT_COMMANDS[0], "[1, 2]", "device document must be a JSON object"),
    (INPUT_COMMANDS[0], json.dumps({**device_to_document(canonical_chsh_device()),
                                    "observables": []}),
     "observables: expected an object with 'alice' and 'bob'"),
], ids=["table-not-an-object", "spec-not-an-object", "spec-without-kind", "negative-count",
        "device-not-an-object", "observables-not-an-object"])
def test_rejected_input_exits_two_with_its_message(tmp_path, capsys, command, text, message):
    path = tmp_path / "input.json"
    path.write_text(text)
    argv = [arg.format(path=path) for arg in command] + ["--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert sorted(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("name", ["missing.json", "adir"])
def test_unreadable_device_exits_two_naming_it(tmp_path, capsys, name):
    (tmp_path / "adir").mkdir()
    path = tmp_path / name
    with pytest.raises(OSError) as err:
        path.read_text(encoding="utf-8")
    out = tmp_path / "report.json"
    assert main(["certify", "--device", str(path), "--mode", "chsh", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: cannot read {path}: {err.value}\n"
    assert sorted(tmp_path.iterdir()) == [tmp_path / "adir"]


@pytest.mark.skipif(not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 5001,
                    reason="integer string conversion has no limit below 5001 digits")
@pytest.mark.parametrize("command", INPUT_COMMANDS)
def test_over_long_integer_exits_two_naming_the_file(tmp_path, capsys, command):
    # An integer literal past the interpreter's digit limit is a malformed-input
    # error naming the file, like every other parse error.
    digits = "1" * 5001
    path = tmp_path / "long.json"
    path.write_text('{"dims": [' + digits + ', 2]}')
    with pytest.raises(ValueError) as conversion:
        int(digits)
    out = tmp_path / "out"
    argv = [arg.format(path=path) for arg in command] + ["--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {path}: {conversion.value}\n"
    assert sorted(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("umask", [0o022, 0o077])
def test_output_files_take_their_mode_from_the_umask(tmp_path, umask):
    # As open(path, "w") creates a new file: 0o666 less the umask, which a
    # child process inherits.
    table = tmp_path / "table.json"
    table.write_text(json.dumps({"A0_B0": 0.7, "A0_B1": 0.7, "A1_B0": 0.7, "A1_B1": -0.7}))
    spec = tmp_path / "family.json"
    spec.write_text(json.dumps({"kind": "tilted", "parameters": {"theta": 0.3}}))
    for run, directory in each_runner(tmp_path):
        previous = os.umask(umask)
        try:
            outputs = [directory / name for name in ("d.json", "r.json", "c.json", "s.csv",
                                                     "b.json", "b.json.report.json")]
            assert run(["canonical", "--mode", "chsh", "--out", str(outputs[0])])[0] == 0
            assert run(["certify", "--device", str(outputs[0]), "--mode", "chsh",
                        "--out", str(outputs[1])])[0] == 0
            assert run(["correlations", "--table", str(table), "--mode", "chsh",
                        "--out", str(outputs[2])])[0] == 0
            assert run(["sweep", "--family", str(spec), "--out", str(outputs[3])])[0] == 0
            assert run(["search", "--mode", "chsh", "--epsilon-ceiling", "0.05",
                        "--budget", "3", "--out", str(outputs[4])])[0] == 0
        finally:
            os.umask(previous)
        assert {path.name: stat.S_IMODE(path.stat().st_mode) for path in outputs} == {
            path.name: 0o666 & ~umask for path in outputs}


# Every subcommand that writes --out, its input files left as "{device}",
# "{table}" and "{family}".
OUT_COMMANDS = [
    ["canonical", "--mode", "chsh"],
    ["certify", "--device", "{device}", "--mode", "chsh"],
    ["correlations", "--table", "{table}", "--mode", "chsh"],
    ["sweep", "--family", "{family}"],
    ["search", "--mode", "chsh", "--epsilon-ceiling", "0.05", "--budget", "3"],
]


def with_child(commands):
    """Parameters for ``command,run``: each command in-process, and the first
    once more as a child."""
    return [*(pytest.param(command, run_in_process, id=command[0]) for command in commands),
            pytest.param(commands[0], RUNNERS["child"], id=f"{commands[0][0]}-child")]


@pytest.fixture
def out_argv(tmp_path):
    """Writes the input files OUT_COMMANDS name; gives one command's argv
    with them filled in and ``--out`` the given path."""
    inputs = {name: tmp_path / f"{name}.json" for name in ("device", "table", "family")}
    save_device(inputs["device"], canonical_chsh_device())
    inputs["table"].write_text(json.dumps({"A0_B0": 0.7, "A0_B1": 0.7, "A1_B0": 0.7,
                                           "A1_B1": -0.7}))
    inputs["family"].write_text(json.dumps({"kind": "tilted", "parameters": {"theta": 0.3}}))
    return lambda command, out: [arg.format(**inputs) for arg in command] + ["--out", str(out)]


@pytest.mark.parametrize("target,reason", [("missing/out.json", "No such file or directory"),
                                           ("adir", "Is a directory")],
                         ids=["missing-directory", "directory"])
@pytest.mark.parametrize("command,run", with_child(OUT_COMMANDS))
def test_unwritable_out_exits_two_naming_it(tmp_path, out_argv, command, run, target, reason):
    # The error names the --out path as given, not the temporary sibling
    # written first, and no sibling is left behind.
    (tmp_path / "adir").mkdir()
    before = sorted(tmp_path.rglob("*"))
    out = tmp_path / target
    code, _, stderr = run(out_argv(command, out))
    assert code == 2
    assert stderr == f"error: cannot write {out}: {reason}\n"
    assert ".tmp" not in stderr
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("name", ["c" * 245 + ".json", "\u20ac" * 85],
                         ids=["ascii-250-bytes", "utf8-255-bytes"])
@pytest.mark.parametrize("command,run", with_child(OUT_COMMANDS[:4]))
def test_out_name_up_to_the_name_limit_is_written(tmp_path, out_argv, command, run, name):
    # The temporary sibling's name is short whatever the target's is, so a
    # name the file system takes (255 bytes on common ones) can be --out.
    out = tmp_path / "out" / name
    out.parent.mkdir()
    assert run(out_argv(command, out))[0] == 0
    assert os.listdir(out.parent) == [name]
    assert run(out_argv(command, tmp_path / "short"))[0] == 0
    assert out.read_bytes() == (tmp_path / "short").read_bytes() != b""


@pytest.mark.parametrize("command", OUT_COMMANDS, ids=[command[0] for command in OUT_COMMANDS])
def test_empty_out_exits_two_writing_nothing(tmp_path, monkeypatch, out_argv, command):
    # An empty --out names no file, so it is a path that cannot be written,
    # not stdout; the temporary sibling would go in the working directory.
    monkeypatch.chdir(tmp_path)
    before = sorted(tmp_path.rglob("*"))
    code, stdout, stderr = run_in_process(out_argv(command, ""))
    assert (code, stdout) == (2, "")
    assert stderr.startswith("error: cannot write : ")  # then the OS's reason
    assert sorted(tmp_path.rglob("*")) == before


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "certify" in capsys.readouterr().out


class TestParserReuse:
    def test_parser_built_at_most_once(self, monkeypatch, capsys):
        import singlet_selftest.cli as cli_module

        calls = []
        build = cli_module.build_parser
        monkeypatch.setattr(cli_module, "build_parser", lambda: calls.append(1) or build())
        for mode in ("chsh", "my", "chsh"):
            assert main(["canonical", "--mode", mode]) == 0
        assert len(calls) <= 1

    def test_usage_error_then_valid_calls(self, tmp_path, capsys):
        assert main(["certify", "--mode", "chsh"]) == 2
        assert "required" in capsys.readouterr().err
        out = tmp_path / "canon.json"
        assert main(["canonical", "--mode", "chsh", "--out", str(out)]) == 0
        assert capsys.readouterr().out == f"wrote canonical chsh device to {out}\n"
        # No option value carries over from the call before: --out is unset again.
        assert main(["canonical", "--mode", "my"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(device_from_document(doc)[0].bob_obs) == {"XB", "ZB", "DB"}
