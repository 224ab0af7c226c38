"""Command-line surface: certify, correlations, sweep, search, canonical.

Exit codes: 0 when the requested run succeeds with every certification row
passing, 1 when a report contains failing rows (or a search finds nothing),
2 on input errors (bad flags, unparseable or schema-violating files, invalid
devices).  Output files are written atomically; no partial files on failure.

The env var SELFTEST_THREADS caps the parallel sweep width (0 or unset means
automatic); records are identical regardless of the width because every sweep
point owns a derived RNG stream.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from .bounds import (
    b_extraction_bound,
    certify,
    extraction_bound,
    fidelity_block,
    state_error_bounds,
)
from .derive import chsh_budget, my_budget
from .device import MY_IDEAL, TSIRELSON, DeviceValidationError
from .device import validate as validate_device
from .documents import (
    REPORT_SCHEMA_VERSION,
    DocumentError,
    device_to_document,
    document_digest,
    load_device,
    report_to_document,
    save_device,
    write_json_atomic,
    write_text_atomic,
)
from .explorer import (
    FamilySpec,
    canonical_chsh_device,
    canonical_my_device,
    evaluate_device,
    family_axis,
    family_points,
    worst_case_search,
)

CHSH_TABLE_KEYS = ("A0_B0", "A0_B1", "A1_B0", "A1_B1")
MY_TABLE_KEYS = tuple(f"{a}_{b}" for (a, b) in MY_IDEAL)

SWEEP_COLUMNS = ("epsilon", "eps1", "eps2", "maxError", "bound", "slack")

# Rounding allowance per correlation-table entry: an entry may exceed 1 in
# magnitude, and a CHSH sum of four entries may exceed 2*sqrt(2), by this much
# per entry.  Anything beyond is super-quantum data that no device produces.
TABLE_ROUNDING_TOL = 1e-12


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _thread_width(n_items: int) -> int:
    raw = os.environ.get("SELFTEST_THREADS", "0")
    try:
        width = int(raw)
    except ValueError:
        width = 0
    if width < 0:
        width = 0
    if width == 0:
        width = min(os.cpu_count() or 1, n_items) or 1
    return max(1, min(width, n_items) if n_items else 1)


def cmd_certify(args: argparse.Namespace) -> int:
    try:
        device = load_device(args.device)
    except (DocumentError, DeviceValidationError) as err:
        return _fail(str(err))
    report = certify(device, args.mode, cert_tol=args.cert_tol)
    digest = document_digest(device_to_document(device))
    write_json_atomic(args.out, report_to_document(report, digest))
    failures = [row.name for row in report.rows if not row.passed]
    if failures:
        print(f"FAIL: {len(failures)} row(s) exceeded bounds: {', '.join(failures)}")
        return 1
    print(f"PASS: all {len(report.rows)} rows within bounds (epsilon={report.epsilon:.6g})")
    return 0


def _load_table(path: str, mode: str) -> dict[str, float]:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as err:
        raise DocumentError(f"cannot read {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise DocumentError(
            f"{path}: parse error at line {err.lineno} column {err.colno}: {err.msg}"
        ) from err
    if not isinstance(doc, dict):
        raise DocumentError("correlation table must be a JSON object of name -> value")
    keys = CHSH_TABLE_KEYS if mode == "chsh" else MY_TABLE_KEYS
    table = {}
    for key in keys:
        if key not in doc:
            raise DocumentError(f"correlation table is missing entry {key!r} for mode {mode}")
        value = doc[key]
        if not isinstance(value, (int, float)):
            raise DocumentError(f"correlation {key!r}: expected a number, got {value!r}")
        if abs(float(value)) > 1.0 + TABLE_ROUNDING_TOL:
            raise DocumentError(f"correlation {key!r} = {value} lies outside [-1, 1]")
        table[key] = float(value)
    return table


def cmd_correlations(args: argparse.Namespace) -> int:
    """Budgets from correlation data alone; no device model, so no isometry."""
    try:
        table = _load_table(args.table, args.mode)
    except DocumentError as err:
        return _fail(str(err))

    if args.mode == "chsh":
        value = table["A0_B0"] + table["A0_B1"] + table["A1_B0"] - table["A1_B1"]
        if value > TSIRELSON + 4 * TABLE_ROUNDING_TOL:
            return _fail(
                f"CHSH value {value:.17g} exceeds the quantum maximum 2*sqrt(2) = "
                f"{TSIRELSON:.17g} by more than the rounding tolerance "
                f"{4 * TABLE_ROUNDING_TOL:.0e}; no quantum device produces this table"
            )
        epsilon = max(0.0, TSIRELSON - value)
        chsh = value
    else:
        chsh = None
        epsilon = max(
            abs(table[f"{a}_{b}"] - ideal) for (a, b), ideal in MY_IDEAL.items()
        )

    budgets = None
    bounds = None
    note = (
        "correlation-table input certifies the closed-form budgets only; "
        "extraction requires a device model"
    )
    if epsilon < 1.0:
        budget = chsh_budget(epsilon) if args.mode == "chsh" else my_budget(epsilon)
        pre, post = state_error_bounds(budget.eps1, budget.eps2)
        budgets = {
            "eps1": budget.eps1,
            "eps2": budget.eps2,
            "epsPrime": budget.eps_prime,
            "eps1Exact": budget.eps1_exact,
            "eps2Exact": budget.eps2_exact,
            "epsPrimeExact": budget.eps_prime_exact,
            "delta": budget.delta,
        }
        bounds = {
            "extractionError": extraction_bound(budget.eps1, budget.eps2),
            "statePreNormalization": pre,
            "stateNormalized": post,
        }
        if args.mode == "chsh":
            bounds["bOperator"] = b_extraction_bound(epsilon)
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
    text = json.dumps(doc, indent=2) + "\n"
    if args.out:
        write_text_atomic(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def _parse_family_spec(path: str) -> FamilySpec:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as err:
        raise DocumentError(f"cannot read {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise DocumentError(
            f"{path}: parse error at line {err.lineno} column {err.colno}: {err.msg}"
        ) from err
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
    return FamilySpec(
        kind=doc["kind"],
        parameters=doc.get("parameters", {}),
        dims=(int(dims[0]), int(dims[1])),
        seed=int(doc.get("seed", 0)),
        mode=doc.get("mode", "chsh"),
    )


def sweep_csv(spec: FamilySpec) -> str:
    """Deterministic CSV for a family sweep (parallel width capped by env)."""
    axis, _ = family_axis(spec)
    points = family_points(spec)
    for parameters, device in points:
        violations = validate_device(device)
        if violations:
            raise DocumentError(
                f"family {spec.kind!r} produced an invalid device at {parameters}: "
                + "; ".join(violations)
            )

    def run(point):
        parameters, device = point
        return evaluate_device(device, spec.mode, parameters)

    width = _thread_width(len(points))
    if width > 1 and len(points) > 1:
        with ThreadPoolExecutor(max_workers=width) as pool:
            records = list(pool.map(run, points))
    else:
        records = [run(point) for point in points]

    lines = [",".join((axis,) + SWEEP_COLUMNS)]
    for record in records:
        values = [
            repr(float(record.parameters[axis])),
            repr(float(record.epsilon)),
            repr(float(record.eps1_measured)),
            repr(float(record.eps2_measured)),
            repr(float(record.max_extraction_error)),
            repr(float(record.extraction_bound)),
            repr(float(record.slack)),
        ]
        lines.append(",".join(values))
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
    if len(parts) != 2:
        raise ValueError(f"dims must be 'dA,dB', got {text!r}")
    return (int(parts[0]), int(parts[1]))


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
            f"no feasible device found within budget {args.budget} "
            f"(every proposal exceeded epsilon ceiling {args.epsilon_ceiling})",
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
    save_device(args.out, result.device, metadata)
    report = certify(result.device, args.mode)
    digest = document_digest(device_to_document(result.device, metadata))
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
    device = canonical_chsh_device() if args.mode == "chsh" else canonical_my_device()
    doc = device_to_document(device, {"generator": "canonical", "mode": args.mode})
    if args.out:
        write_json_atomic(args.out, doc)
        print(f"wrote canonical {args.mode} device to {args.out}")
    else:
        sys.stdout.write(json.dumps(doc, indent=2) + "\n")
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
    p_cert.add_argument("--mode", required=True, choices=("chsh", "my"))
    p_cert.add_argument("--out", required=True, help="report document output path")
    p_cert.add_argument("--cert-tol", type=float, default=1e-9,
                        help="absolute tolerance absorbing rounding (default 1e-9)")
    p_cert.set_defaults(func=cmd_certify)

    p_corr = sub.add_parser(
        "correlations", help="closed-form budgets from a correlation table alone"
    )
    p_corr.add_argument("--table", required=True, help="JSON map of named expectations")
    p_corr.add_argument("--mode", required=True, choices=("chsh", "my"))
    p_corr.add_argument("--out", help="write the JSON summary here instead of stdout")
    p_corr.set_defaults(func=cmd_correlations)

    p_sweep = sub.add_parser("sweep", help="evaluate a device family into CSV")
    p_sweep.add_argument("--family", required=True, help="family spec (JSON)")
    p_sweep.add_argument("--out", required=True, help="CSV output path")
    p_sweep.set_defaults(func=cmd_sweep)

    p_search = sub.add_parser(
        "search", help="anneal for the worst extraction error at bounded epsilon"
    )
    p_search.add_argument("--mode", required=True, choices=("chsh", "my"))
    p_search.add_argument("--epsilon-ceiling", type=float, required=True)
    p_search.add_argument("--dims", default="2,2", help="device dims as 'dA,dB'")
    p_search.add_argument("--budget", type=int, required=True,
                          help="number of device evaluations")
    p_search.add_argument("--seed", type=int, default=0)
    p_search.add_argument("--out", required=True,
                          help="best device path (report goes to <out>.report.json)")
    p_search.set_defaults(func=cmd_search)

    p_canon = sub.add_parser("canonical", help="emit a canonical device document")
    p_canon.add_argument("--mode", required=True, choices=("chsh", "my"))
    p_canon.add_argument("--out", help="write the document here instead of stdout")
    p_canon.set_defaults(func=cmd_canonical)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        # argparse exits 2 on usage errors and 0 on --help; preserve both.
        return int(err.code or 0)
    try:
        return int(args.func(args))
    except KeyError as err:
        return _fail(f"missing named observable: {err.args[0]}")
    except (ValueError, OSError) as err:
        return _fail(str(err))


if __name__ == "__main__":
    sys.exit(main())
