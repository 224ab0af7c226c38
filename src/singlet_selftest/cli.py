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
import itertools
import math
import sys
from collections.abc import Sequence
from pathlib import Path

from .bounds import MODES, Mode, certify, fidelity_block, get_mode
from .device import TSIRELSON
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
from .explorer import FamilySpec, family_axis, sweep, worst_case_search

SWEEP_COLUMNS = ("epsilon", "eps1", "eps2", "maxError", "bound", "slack")

# Rounding allowance per correlation-table entry: an entry may exceed 1 in
# magnitude, and a CHSH sum of four entries may exceed 2*sqrt(2), by this much
# per entry.  Anything beyond is super-quantum data that no device produces.
TABLE_ROUNDING_TOL = 1e-12


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def cmd_certify(args: argparse.Namespace) -> int:
    # A malformed document or an invalid device raises ValueError: main exits 2.
    device = load_device(args.device)
    report = certify(device, args.mode)
    digest = document_digest(device_to_document(device))
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


def _non_quantum_chsh(values: Sequence[float]) -> tuple[tuple[int, ...], float] | None:
    """An odd sign pattern whose arcsine sum exceeds pi, with that sum, or None.

    Four correlators E_xy of +-1 observables, in ``CHSH_PAIRS`` order, come
    from a quantum device exactly when sum_xy s_xy asin(E_xy) <= pi for every
    sign pattern s with an odd number of minus signs (Landau 1988; Masanes,
    arXiv:quant-ph/0309137).  Bounding the CHSH value alone checks one of
    these eight expressions, and only through a weaker linear bound.  Each
    entry is first moved ``TABLE_ROUNDING_TOL`` toward the side that lowers
    the sum, and clipped to [-1, 1].
    """
    for signs in itertools.product((1, -1), repeat=4):
        if signs.count(-1) % 2:
            total = sum(
                s * math.asin(min(1.0, max(-1.0, e - s * TABLE_ROUNDING_TOL)))
                for s, e in zip(signs, values)
            )
            if total > math.pi:
                return signs, total
    return None


def _chsh_subtables(selftest: Mode) -> list[tuple[str, str, str, str]]:
    """The table keys of every 2x2 sub-table, each in ``CHSH_PAIRS`` order:
    two of Alice's observables against two of Bob's.

    Any two +-1 observables per party on one state make a CHSH experiment,
    so each sub-table must pass ``_non_quantum_chsh``.  The CHSH table is its
    own one sub-table; the Mayers-Yao table has three, (XA, ZA) against each
    two of (XB, ZB, DB).
    """
    alice = list(dict.fromkeys(a for a, _ in selftest.pairs))
    bob = list(dict.fromkeys(b for _, b in selftest.pairs))
    return [(f"{a0}_{b0}", f"{a0}_{b1}", f"{a1}_{b0}", f"{a1}_{b1}")
            for a0, a1 in itertools.combinations(alice, 2)
            for b0, b1 in itertools.combinations(bob, 2)]


def cmd_correlations(args: argparse.Namespace) -> int:
    """Budgets from correlation data alone; no device model, so no isometry."""
    selftest = get_mode(args.mode)
    try:
        table = _load_table(args.table, selftest)
    except DocumentError as err:
        return _fail(str(err))

    chsh, epsilon = selftest.deviation(dict(zip(selftest.pairs, table.values())))
    if chsh is not None and chsh > TSIRELSON + 4 * TABLE_ROUNDING_TOL:
        return _fail(
            f"CHSH value {chsh:.17g} exceeds the quantum maximum 2*sqrt(2) = "
            f"{TSIRELSON:.17g} by more than the rounding tolerance "
            f"{4 * TABLE_ROUNDING_TOL:.0e}; no quantum device produces this table"
        )
    for keys in _chsh_subtables(selftest):
        violation = _non_quantum_chsh([table[key] for key in keys])
        if violation is not None:
            signs, total = violation
            terms = " ".join(f"{'+' if s > 0 else '-'}asin({key})" for s, key in zip(signs, keys))
            return _fail(
                f"{terms} = {total:.17g} exceeds pi by more than the rounding tolerance "
                f"{TABLE_ROUNDING_TOL:.0e} per entry allows; no quantum device "
                "produces this table"
            )

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
    if args.out:
        write_text_atomic(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def _parse_family_spec(path: str) -> FamilySpec:
    doc = read_json(path)
    if not isinstance(doc, dict):
        raise DocumentError("family spec must be a JSON object")
    unknown = set(doc) - {"kind", "parameters", "dims", "seed", "mode"}
    if unknown:
        raise DocumentError(f"family spec has unknown fields: {sorted(unknown)}")
    if "kind" not in doc:
        raise DocumentError("family spec requires a 'kind'")
    dims = doc.get("dims", [2, 2])
    if not (isinstance(dims, list) and len(dims) == 2):
        raise DocumentError(f"family spec dims must be [dA, dB], got {dims!r}")
    # The values are checked, without conversion, by explorer.family_axis.
    return FamilySpec(
        kind=doc["kind"],
        parameters=doc.get("parameters", {}),
        dims=tuple(dims),
        seed=doc.get("seed", 0),
        mode=doc.get("mode", "chsh"),
    )


def sweep_csv(spec: FamilySpec) -> str:
    """Deterministic CSV for a family sweep, one row per family point."""
    axis, axis_values = family_axis(spec)
    lines = [",".join((axis,) + SWEEP_COLUMNS)]
    for axis_value, record in zip(axis_values, sweep(spec)):
        values = (
            axis_value,
            record.epsilon,
            record.eps1_measured,
            record.eps2_measured,
            record.max_extraction_error,
            record.extraction_bound,
            record.slack,
        )
        lines.append(",".join(repr(float(value)) for value in values))
    return "\n".join(lines) + "\n"


def cmd_sweep(args: argparse.Namespace) -> int:
    try:
        spec = _parse_family_spec(args.family)
        text = sweep_csv(spec)
    except (DocumentError, ValueError) as err:
        return _fail(str(err))
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
    try:
        dims = _parse_dims(args.dims)
        result = worst_case_search(
            args.mode, args.epsilon_ceiling, dims, args.budget, args.seed
        )
    except ValueError as err:
        return _fail(str(err))
    if not result.found:
        print(
            f"no feasible device found within budget {args.budget}: "
            f"{result.over_ceiling} proposal(s) exceeded epsilon ceiling "
            f"{args.epsilon_ceiling}, {result.invalid} invalid, "
            f"{result.degenerate} degenerate",
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
    write_json_atomic(args.out, doc)
    report = certify(result.device, args.mode)
    digest = document_digest(doc)
    report_path = Path(args.out).with_suffix(Path(args.out).suffix + ".report.json")
    write_json_atomic(report_path, report_to_document(report, digest))
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
    if args.out:
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
