"""Command-line surface: certify, correlations, sweep, search, canonical.

Exit codes: 0 when the requested run succeeds with every certification row
passing, 1 when a report contains failing rows (or a search finds nothing),
2 on input errors (bad flags, unparseable or schema-violating files, invalid
devices).  Output files are written atomically; no partial files on failure.
Sweeps build and evaluate their points in chunks of same-dims devices,
stacked through each stage, the correlations included (see ``explorer``).
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import operator
import sys
from pathlib import Path

import numpy as np

from .bounds import MODES, Mode, certify, fidelity_block, get_mode
from .documents import (
    REPORT_SCHEMA_VERSION,
    DocumentError,
    budget_to_json,
    device_to_document,
    document_digest,
    json_text,
    load_device,
    read_json,
    report_to_document,
    write_json_atomic,
    write_text_atomic,
)
from .explorer import FAMILY_AXES, FamilySpec, sweep, worst_case_search

# Each sweep CSV column after the axis, with the SweepRecord field it holds.
SWEEP_COLUMNS = {"epsilon": "epsilon", "eps1": "eps1_measured", "eps2": "eps2_measured",
                 "maxError": "max_extraction_error", "bound": "extraction_bound", "slack": "slack"}

# Rounding allowance per correlation-table entry: an entry may exceed 1 in
# magnitude by this much, and a table passes as quantum when some quantum table
# lies within this much of every entry.  Anything beyond is data no device gives.
TABLE_ROUNDING_TOL = 1e-12


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def cmd_certify(args: argparse.Namespace) -> int:
    # A malformed document or an invalid device raises ValueError: main exits 2.
    device, digest = load_device(args.device)
    report = certify(device, args.mode)
    write_json_atomic(args.out, report_to_document(report, digest))
    failures = [row.name for row in report.rows if not row.passed]
    if failures:
        print(f"FAIL: {len(failures)} row(s) exceeded bounds: {', '.join(failures)}")
        return 1
    print(f"PASS: all {len(report.rows)} rows within bounds (epsilon={report.epsilon:.6g})")
    return 0


def _load_table(path: str, selftest: Mode) -> dict[str, float]:
    doc = read_json(path)
    if not isinstance(doc, dict):
        raise DocumentError("correlation table must be a JSON object of name -> value")
    unknown = set(doc) - set(selftest.table_keys)
    if unknown:
        raise DocumentError(f"correlation table has unknown entries for mode "
                            f"{selftest.name}: {sorted(unknown)}")
    table = {}
    for key in selftest.table_keys:
        if key not in doc:
            raise DocumentError(
                f"correlation table is missing entry {key!r} for mode {selftest.name}"
            )
        value = doc[key]
        # type(), not isinstance(): JSON true/false load as bool, an int subclass.
        if type(value) not in (int, float):
            raise DocumentError(f"correlation {key!r}: expected a number, got {value!r}")
        if not math.isfinite(value):
            raise DocumentError(f"correlation {key!r} = {value} is not a finite number")
        if abs(float(value)) > 1.0 + TABLE_ROUNDING_TOL:
            raise DocumentError(f"correlation {key!r} = {value} lies outside [-1, 1]")
        table[key] = float(value)
    return table


def _incompatible_settings(
    selftest: Mode, table: dict[str, float]
) -> tuple[str, float, str, float] | None:
    """Two of Bob's settings that no quantum device gives together, or None.

    Correlators of +-1 observables are quantum exactly when unit vectors with
    E_xy = u_x . v_y exist (Tsirelson).  Alice's two settings lie at some
    angle phi; Bob's setting y, at angles p = acos(E_0y) and q = acos(E_1y)
    from them, fits exactly when |p - q| <= phi <= min(p + q, 2pi - p - q).
    Each entry may move by ``TABLE_ROUNDING_TOL``, which widens setting y's
    range to [lo_y, hi_y].  Intervals on a line that meet pairwise all meet
    (Helly), so the table is quantum exactly when max lo_y <= min hi_y; this
    is Landau's arcsine test on every 2x2 sub-table.  Otherwise the result
    is (setting, lo_y) of the largest lo_y, then (setting, hi_y) of the
    smallest hi_y; the settings differ, as lo_y <= hi_y for every y.
    """
    alice = dict.fromkeys(a for a, _ in selftest.pairs)
    ranges = {}
    for b in dict.fromkeys(b for _, b in selftest.pairs):
        # The arccosines of each entry moved up, then down, by the tolerance.
        (p_lo, p_hi), (q_lo, q_hi) = (
            [math.acos(min(1.0, max(-1.0, table[f"{a}_{b}"] + shift)))
             for shift in (TABLE_ROUNDING_TOL, -TABLE_ROUNDING_TOL)] for a in alice)
        ranges[b] = (max(0.0, p_lo - q_hi, q_lo - p_hi),
                     min(p_hi + q_hi, 2.0 * math.pi - p_lo - q_lo))
    low = max(ranges, key=lambda b: ranges[b][0])
    high = min(ranges, key=lambda b: ranges[b][1])
    if ranges[low][0] > ranges[high][1]:
        return low, ranges[low][0], high, ranges[high][1]
    return None


def cmd_correlations(args: argparse.Namespace) -> int:
    """Budgets from correlation data alone; no device model, so no isometry.

    A table no quantum device produces exits 2 naming two of Bob's settings.
    """
    selftest = get_mode(args.mode)
    table = _load_table(args.table, selftest)
    conflict = _incompatible_settings(selftest, table)
    if conflict is not None:
        low, lo, high, hi = conflict
        return _fail(
            f"Bob's {low} needs Alice's two settings at least {lo:.17g} rad apart and "
            f"Bob's {high} at most {hi:.17g}, with each entry moved by up to "
            f"{TABLE_ROUNDING_TOL:.0e}; no quantum device produces this table"
        )

    # ``_load_table`` keys the table in ``table_keys`` order: one row of the array.
    chsh, epsilon = selftest.deviation(np.array([list(table.values())]))
    chsh = None if chsh is None else float(chsh[0])
    epsilon = float(epsilon[0])
    budgets = None
    bounds = None
    note = (
        "correlation-table input certifies the closed-form budgets only; "
        "extraction requires a device model"
    )
    if epsilon < 1.0:
        budget = selftest.budget(epsilon)
        budgets = budget_to_json(budget)
        # Each bound is its report row's headline grade; a mode without the
        # row leaves the key out.
        rows = {spec.name: spec for spec in selftest.rows}
        bounds = {key: rows[name].grades(budget)[0] for key, name in (
            ("extractionError", "extraction_II"),
            ("statePreNormalization", "state_error_pre_normalization"),
            ("stateNormalized", "state_error_normalized"),
            ("bOperator", "b_operator_I_B0"),
        ) if name in rows}
    else:
        note += "; deviation >= 1 lies outside the certifiable range, budgets omitted"

    doc = {
        "schemaVersion": REPORT_SCHEMA_VERSION,
        "mode": args.mode,
        "table": table,
        "chshValue": chsh,
        "epsilon": epsilon,
        "budgets": budgets,
        "bounds": bounds,
        "fidelity": fidelity_block(epsilon),
        "note": note,
    }
    text = json_text(doc) + "\n"
    if args.out is not None:
        write_text_atomic(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def _parse_family_spec(path: str) -> FamilySpec:
    doc = read_json(path)
    if not isinstance(doc, dict):
        raise DocumentError("family spec must be a JSON object")
    unknown = set(doc) - {field.name for field in dataclasses.fields(FamilySpec)}
    if unknown:
        raise DocumentError(f"family spec has unknown fields: {sorted(unknown)}")
    if "kind" not in doc:
        raise DocumentError("family spec requires a 'kind'")
    if "dims" in doc:
        dims = doc["dims"]
        if not (isinstance(dims, list) and len(dims) == 2):
            raise DocumentError(f"family spec dims must be [dA, dB], got {dims!r}")
        doc = {**doc, "dims": tuple(dims)}
    # The values are checked, without conversion, by explorer.family_axis;
    # a field the spec leaves out takes FamilySpec's default.
    return FamilySpec(**doc)


def sweep_csv(spec: FamilySpec) -> str:
    """Deterministic CSV for a family sweep, one row per point ``sweep``
    returns.  ``sweep`` checks the spec, so the header, which names the
    kind's axis, is built only once it has returned."""
    points = sweep(spec)
    fields = operator.attrgetter(*SWEEP_COLUMNS.values())
    lines = [",".join((FAMILY_AXES[spec.kind], *SWEEP_COLUMNS))]
    lines += [",".join(repr(float(value)) for value in (axis_value, *fields(record)))
              for axis_value, record in points]
    return "\n".join(lines) + "\n"


def cmd_sweep(args: argparse.Namespace) -> int:
    text = sweep_csv(_parse_family_spec(args.family))
    write_text_atomic(args.out, text)
    print(f"wrote {text.count(chr(10)) - 1} sweep rows to {args.out}")
    return 0


def _parse_dims(text: str) -> tuple[int, int]:
    parts = text.replace("x", ",").split(",")
    try:
        da, db = (int(part) for part in parts)
    except ValueError:
        raise ValueError(f"dims must be two integers 'dA,dB', got {text!r}") from None
    return da, db


def cmd_search(args: argparse.Namespace) -> int:
    dims = _parse_dims(args.dims)
    result = worst_case_search(args.mode, args.epsilon_ceiling, dims, args.budget, args.seed)
    if not result.found:
        print(
            f"no feasible device found within budget {args.budget}: "
            f"{result.over_ceiling} proposal(s) exceeded epsilon ceiling "
            f"{args.epsilon_ceiling}, {result.degenerate} degenerate",
            file=sys.stderr,
        )
        return 1
    assert result.device is not None and result.record is not None
    metadata = {
        "generator": "worst_case_search",
        "mode": args.mode,
        "epsilonCeiling": args.epsilon_ceiling,
        "budget": args.budget,
        "seed": args.seed,
        "evaluations": result.evaluations,
    }
    doc = device_to_document(result.device, metadata)
    report = certify(result.device, args.mode)
    # The report path after the device write: an --out that cannot be written
    # (an empty one, say) exits 2 naming it, before Path has to take it apart.
    write_json_atomic(args.out, doc)
    report_path = Path(args.out).with_suffix(Path(args.out).suffix + ".report.json")
    try:
        write_json_atomic(report_path, report_to_document(report, document_digest(doc)))
    except DocumentError:
        # Both files or neither.
        Path(args.out).unlink(missing_ok=True)
        raise
    record = result.record
    print(
        f"best device: epsilon={record.epsilon:.6g} "
        f"maxError={record.max_extraction_error:.6g} "
        f"bound={record.extraction_bound:.6g} slack={record.slack:.6g}"
    )
    print(f"wrote device to {args.out} and report to {report_path}")
    return 0


def cmd_canonical(args: argparse.Namespace) -> int:
    device = get_mode(args.mode).canonical()
    doc = device_to_document(device, {"generator": "canonical", "mode": args.mode})
    if args.out is not None:
        write_json_atomic(args.out, doc)
        print(f"wrote canonical {args.mode} device to {args.out}")
    else:
        sys.stdout.write(json_text(doc) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="singlet-selftest",
        description=(
            "Certify closed-form self-testing bounds for bipartite devices from "
            "CHSH or Mayers-Yao correlation data."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_cert = sub.add_parser("certify", help="run the full measured-vs-bound report")
    p_cert.add_argument("--device", required=True, help="device document (JSON)")
    p_cert.add_argument("--mode", required=True, choices=tuple(MODES))
    p_cert.add_argument("--out", required=True, help="report document output path")
    p_cert.set_defaults(func=cmd_certify)

    p_corr = sub.add_parser(
        "correlations", help="closed-form budgets from a correlation table alone"
    )
    p_corr.add_argument("--table", required=True, help="JSON map of named expectations")
    p_corr.add_argument("--mode", required=True, choices=tuple(MODES))
    p_corr.add_argument("--out", help="write the JSON summary here instead of stdout")
    p_corr.set_defaults(func=cmd_correlations)

    p_sweep = sub.add_parser("sweep", help="evaluate a device family into CSV")
    p_sweep.add_argument("--family", required=True, help="family spec (JSON)")
    p_sweep.add_argument("--out", required=True, help="CSV output path")
    p_sweep.set_defaults(func=cmd_sweep)

    p_search = sub.add_parser(
        "search", help="anneal for the worst extraction error at bounded epsilon"
    )
    p_search.add_argument("--mode", required=True, choices=tuple(MODES))
    p_search.add_argument("--epsilon-ceiling", type=float, required=True)
    p_search.add_argument("--dims", default="2,2", help="device dims as 'dA,dB'")
    p_search.add_argument("--budget", type=int, required=True,
                          help="number of device evaluations")
    p_search.add_argument("--seed", type=int, default=0)
    p_search.add_argument("--out", required=True,
                          help="best device path (report goes to <out>.report.json)")
    p_search.set_defaults(func=cmd_search)

    p_canon = sub.add_parser("canonical", help="emit a canonical device document")
    p_canon.add_argument("--mode", required=True, choices=tuple(MODES))
    p_canon.add_argument("--out", help="write the document here instead of stdout")
    p_canon.set_defaults(func=cmd_canonical)

    return parser


# Built once: parsing leaves no state in the parser, so every main call shares it.
PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = PARSER.parse_args(argv)
    except SystemExit as err:
        # argparse exits 2 on usage errors and 0 on --help; preserve both.
        return int(err.code or 0)
    try:
        return int(args.func(args))
    except KeyError as err:
        return _fail(f"missing named observable: {err.args[0]}")
    except (ValueError, OverflowError, OSError) as err:
        # OverflowError: a JSON integer literal too large for a float
        return _fail(str(err))


if __name__ == "__main__":
    sys.exit(main())
