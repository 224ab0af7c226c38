"""Compare one CLI call's outcome with the reference outcome for the same input.

An outcome is the exit code plus the bytes of every file the call wrote.
To agree, a call must match the reference on the exit code exactly and, per
output file:

* JSON (reports, device documents): every key of the reference is present,
  strings, booleans, integers and ``null`` positions are equal exactly (row
  names and order, pass flags, ``inputsDigest``, evaluation counts), and
  every float is within ``ABS_TOL``.  Keys the reference lacks are allowed,
  so additive fields do not count as disagreement; ``toolVersion`` is not
  compared.
* CSV (sweeps): the same header and shape, NaN in the same cells, and every
  number within ``ABS_TOL``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

ABS_TOL = 1e-12
IGNORED_KEYS = frozenset({"toolVersion"})


@dataclass(frozen=True)
class Outcome:
    code: int | str  # exit code, or a description of the exception raised
    files: tuple  # bytes per output file, or None when the call wrote none


def _json_diffs(ref, out, where: str, diffs: list[str]) -> None:
    if isinstance(ref, dict):
        if not isinstance(out, dict):
            diffs.append(f"{where}: expected an object")
            return
        for key, value in ref.items():
            if key in IGNORED_KEYS:
                continue
            if key not in out:
                diffs.append(f"{where}.{key}: missing")
            else:
                _json_diffs(value, out[key], f"{where}.{key}", diffs)
    elif isinstance(ref, list):
        if not isinstance(out, list) or len(out) != len(ref):
            diffs.append(f"{where}: expected a list of {len(ref)}")
            return
        for i, (r, o) in enumerate(zip(ref, out)):
            _json_diffs(r, o, f"{where}[{i}]", diffs)
    elif isinstance(ref, float):
        if (
            isinstance(out, bool)
            or not isinstance(out, (int, float))
            or not abs(out - ref) <= ABS_TOL
        ):
            diffs.append(f"{where}: {out!r} != {ref!r}")
    elif type(out) is not type(ref) or out != ref:
        diffs.append(f"{where}: {out!r} != {ref!r}")


def _csv_diffs(ref: str, out: str, diffs: list[str]) -> None:
    ref_rows = [line.split(",") for line in ref.splitlines()]
    out_rows = [line.split(",") for line in out.splitlines()]
    if not ref_rows or not out_rows or ref_rows[0] != out_rows[0]:
        diffs.append("csv: header differs")
        return
    if [len(r) for r in ref_rows] != [len(r) for r in out_rows]:
        diffs.append("csv: shape differs")
        return
    for i, (r_row, o_row) in enumerate(zip(ref_rows[1:], out_rows[1:]), start=1):
        for j, (r_cell, o_cell) in enumerate(zip(r_row, o_row)):
            try:
                r_val, o_val = float(r_cell), float(o_cell)
            except ValueError:
                diffs.append(f"csv[{i}][{j}]: not a number")
                continue
            if math.isnan(r_val) or math.isnan(o_val):
                if math.isnan(r_val) != math.isnan(o_val):
                    diffs.append(f"csv[{i}][{j}]: NaN position differs")
            elif not abs(o_val - r_val) <= ABS_TOL:
                diffs.append(f"csv[{i}][{j}]: {o_cell} != {r_cell}")


def differences(ref: Outcome, out: Outcome, names) -> list[str]:
    """Every disagreement of ``out`` with ``ref``; empty when they agree."""
    diffs: list[str] = []
    if out.code != ref.code:
        diffs.append(f"exit code {out.code} != {ref.code}")
    for name, r, o in zip(names, ref.files, out.files):
        if r is None or o is None:
            if (r is None) != (o is None):
                diffs.append(f"{name}: written {o is not None}, expected {r is not None}")
            continue
        if name.endswith(".csv"):
            _csv_diffs(r.decode("utf-8"), o.decode("utf-8"), diffs)
            continue
        try:
            out_doc = json.loads(o)
        except ValueError:
            diffs.append(f"{name}: not JSON")
            continue
        _json_diffs(json.loads(r), out_doc, name, diffs)
    return diffs
