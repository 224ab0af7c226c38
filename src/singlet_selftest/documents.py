"""Versioned JSON documents for devices and certification reports.

Complex numbers are serialized as two-element [re, im] arrays and matrices as
row-major nested arrays of such pairs.  Floats go through the standard JSON
encoder (shortest exact round-trip), so deserialize(serialize(device)) is
value-identical and repeated runs are byte-identical.  Output files are
written to a temporary sibling and atomically renamed, never left partial.

A report is built from plain Python values.  Its rows' ``measured``,
``bound``, ``boundHeadline``, ``boundExact`` and ``slack`` are null where the
theorem gives no number: NaN from a degenerate junk state, or from a
deviation of 1 or more, which has no budget.  Any other non-finite value
raises when the report is written, rather than being smoothed over.

Every indented document goes through one encoder, ``json_text``, whose text
is byte for byte ``json.dumps(value, indent=2, allow_nan=False)``.  The
standard library encodes with ``indent`` only in pure Python, so
``json_text`` walks the nesting itself and hands each container whose
members are all scalars (a report row, a budget block, a [re, im] pair) to a
``json.JSONEncoder`` without ``indent``, which uses the C encoder; only that
container's first and last bracket are then re-indented.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import itertools
import json
import math
import os
from pathlib import Path

import numpy as np

from . import __version__
from .bounds import CERT_TOL, CertificationReport
from .derive import EpsilonBudget
from .device import DeviceStack, make_device

DEVICE_SCHEMA_VERSION = "1"
REPORT_SCHEMA_VERSION = "1"


class DocumentError(ValueError):
    """Malformed or schema-violating document."""


def _unpair(value, where: str) -> complex:
    # Exact types: JSON true/false load as bool, which is an int subclass.
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or not all(type(x) in (int, float) for x in value)
    ):
        raise DocumentError(f"{where}: expected a [re, im] pair, got {value!r}")
    return complex(float(value[0]), float(value[1]))


def complex_to_json(a: np.ndarray) -> list:
    """A complex array as nested lists of [re, im] pairs in the array's shape.

    Viewing the complex128 buffer as float64 pairs keeps every bit, -0.0
    included, and ``tolist`` gives plain floats without a per-entry loop.
    """
    a = np.ascontiguousarray(a, dtype=complex)
    return a.view(float).reshape(*a.shape, 2).tolist()


def _bulk_complex(rows, shape: tuple[int, ...]) -> np.ndarray | None:
    """``rows`` as a complex array of ``shape``, parsed in bulk, or None.

    Accepted: lists nested exactly as ``shape``, then [re, im] pairs (lists
    or tuples) of exact ``int`` or ``float`` leaves (JSON true/false load as
    bool, an int subclass).  That is a subset of what the per-entry walk
    accepts, with the same values: ``np.array`` converts each leaf as
    ``float()`` does.  On None the walk decides, and names the first bad
    entry.
    """
    level = [rows]
    for kinds, size in zip(({list},) * len(shape) + ({list, tuple},), (*shape, 2)):
        if not set(map(type, level)) <= kinds or set(map(len, level)) != {size}:
            return None
        level = list(itertools.chain.from_iterable(level))
    if not set(map(type, level)) <= {int, float}:
        return None
    try:
        leaves = np.array(level, dtype=float)
    except OverflowError:
        return None
    return leaves.view(complex).reshape(shape)


def vector_from_json(rows, where: str) -> np.ndarray:
    if not isinstance(rows, list) or not rows:
        raise DocumentError(f"{where}: expected a nonempty list of [re, im] pairs")
    bulk = _bulk_complex(rows, (len(rows),))
    if bulk is not None:
        return bulk
    return np.array([_unpair(r, f"{where}[{i}]") for i, r in enumerate(rows)], dtype=complex)


def matrix_from_json(rows, where: str) -> np.ndarray:
    if not isinstance(rows, list) or not rows:
        raise DocumentError(f"{where}: expected a nonempty nested list")
    dim = len(rows)
    bulk = _bulk_complex(rows, (dim, dim))
    if bulk is not None:
        return bulk
    out = np.zeros((dim, dim), dtype=complex)
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != dim:
            raise DocumentError(
                f"{where}: row {i} has {len(row) if isinstance(row, list) else 'no'} "
                f"entries, expected {dim} (square, row-major)"
            )
        for j, entry in enumerate(row):
            out[i, j] = _unpair(entry, f"{where}[{i}][{j}]")
    return out


def device_to_document(device: DeviceStack, metadata: dict | None = None) -> dict:
    """The document of one device, an n = 1 stack; any other count raises
    ``ValueError`` naming it, rather than write the first row."""
    if len(device) != 1:
        raise ValueError(f"a device document holds one device, an n = 1 stack, "
                         f"got {len(device)} devices")
    return {
        "schemaVersion": DEVICE_SCHEMA_VERSION,
        "dims": [int(device.dims[0]), int(device.dims[1])],
        "state": complex_to_json(device.state[0]),
        "observables": {
            "alice": {name: complex_to_json(m[0]) for name, m in device.alice_obs.items()},
            "bob": {name: complex_to_json(m[0]) for name, m in device.bob_obs.items()},
        },
        "metadata": dict(metadata or {}),
    }


def device_from_document(doc) -> DeviceStack:
    """The device of a schema-checked document, as the n = 1 stack."""
    if not isinstance(doc, dict):
        raise DocumentError("device document must be a JSON object")
    version = doc.get("schemaVersion")
    if version != DEVICE_SCHEMA_VERSION:
        raise DocumentError(
            f"unrecognized schemaVersion {version!r}; expected {DEVICE_SCHEMA_VERSION!r}"
        )
    dims = doc.get("dims")
    if (
        not isinstance(dims, list)
        or len(dims) != 2
        or not all(type(d) is int and d >= 1 for d in dims)
    ):
        raise DocumentError(f"dims: expected two positive integers, got {dims!r}")
    state = vector_from_json(doc.get("state"), "state")
    obs = doc.get("observables")
    if not isinstance(obs, dict) or set(obs) - {"alice", "bob"}:
        raise DocumentError("observables: expected an object with 'alice' and 'bob'")
    parties = {}
    for party in ("alice", "bob"):
        named = obs.get(party, {})
        if not isinstance(named, dict):
            raise DocumentError(f"observables.{party}: expected an object of name -> matrix")
        parties[party] = {
            name: matrix_from_json(m, f"observables.{party}.{name}")
            for name, m in named.items()
        }
    return make_device((dims[0], dims[1]), state, parties["alice"], parties["bob"])


def document_digest(doc: dict) -> str:
    # A document built from arrays cannot be cyclic, so the cycle check is skipped.
    payload = json.dumps(
        doc, sort_keys=True, separators=(",", ":"), check_circular=False
    ).encode("utf-8")
    return "sha256:" + hashlib.sha256(payload).hexdigest()


def read_json(path: str | Path):
    """Parse a JSON file; an unreadable, non-UTF-8, malformed or too deeply
    nested file, or one with an integer too long to convert, raises
    ``DocumentError`` naming the path."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as err:
        raise DocumentError(f"cannot read {path}: {err}") from err
    except UnicodeDecodeError as err:
        raise DocumentError(f"{path}: not UTF-8 text: {err}") from err
    except json.JSONDecodeError as err:
        raise DocumentError(
            f"{path}: parse error at line {err.lineno} column {err.colno}: {err.msg}"
        ) from err
    except ValueError as err:
        # An integer literal longer than sys.get_int_max_str_digits().
        raise DocumentError(f"{path}: {err}") from err
    except RecursionError:
        raise DocumentError(f"{path}: nested too deeply to parse") from None


def load_device(path: str | Path) -> DeviceStack:
    """Parse and schema-check a device document file: its device, the n = 1 stack.

    The device's invariants are not checked here: ``bounds.certify``, which
    every loaded device goes to, validates it.
    """
    return device_from_document(read_json(Path(path)))


# Exact types that json writes as scalars, unconverted.
_SCALARS = frozenset({str, bool, int, float, type(None)})


def _number(x: float) -> float | None:
    """A row value as the document holds it: null where the theorem gives no number."""
    return x if math.isfinite(x) else None


def budget_to_json(budget: EpsilonBudget) -> dict:
    """The budget's derived fields under their document keys; ``epsilon`` left out."""
    return {
        "eps1": budget.eps1,
        "eps2": budget.eps2,
        "epsPrime": budget.eps_prime,
        "eps1Exact": budget.eps1_exact,
        "eps2Exact": budget.eps2_exact,
        "epsPrimeExact": budget.eps_prime_exact,
        "delta": budget.delta,
    }


def report_to_document(report: CertificationReport, inputs_digest: str) -> dict:
    budget = report.budget
    budgets = None
    if budget is not None:
        budgets = {"epsilon": budget.epsilon, **budget_to_json(budget)}
    rows = [
        {
            "name": row.name,
            "category": row.category,
            "measured": _number(row.measured),
            "bound": _number(row.bound),
            "boundHeadline": _number(row.bound_headline),
            "boundExact": _number(row.bound_exact),
            "direction": row.direction,
            "formula": row.formula,
            "pass": row.passed,
            "slack": _number(row.slack),
        }
        for row in report.rows
    ]
    return {
        "schemaVersion": REPORT_SCHEMA_VERSION,
        "toolVersion": __version__,
        "mode": report.mode,
        "inputsDigest": inputs_digest,
        "report": {
            "mode": report.mode,
            "chshValue": report.chsh,
            "epsilon": report.epsilon,
            "budgets": budgets,
            "residuals": {
                "anticommA": report.residuals.anticomm_a,
                "anticommB": report.residuals.anticomm_b,
                "diffX": report.residuals.diff_x,
                "diffZ": report.residuals.diff_z,
                "eps1Measured": report.residuals.eps1,
                "eps2Measured": report.residuals.eps2,
            },
            "junk": {"rawNorm": report.junk_norm_raw, "degenerate": report.degenerate},
            "correlations": report.correlations,
            "rows": rows,
            "fidelity": report.fidelity,
            "certTol": CERT_TOL,
            "allPass": report.all_pass,
        },
    }


@functools.cache
def _encoder(depth: int) -> json.JSONEncoder:
    """Separates a container's members as ``indent=2`` does ``depth`` levels deep.

    Without ``indent`` the standard library encodes with its C encoder.  It is
    given only scalars and containers of scalars, which cannot be cyclic.
    """
    return json.JSONEncoder(
        separators=(",\n" + "  " * depth, ": "), allow_nan=False, check_circular=False
    )


def _indented(value, depth: int) -> str:
    """``value`` as ``json.dumps(indent=2)`` writes it ``depth`` levels deep."""
    is_dict = isinstance(value, dict)
    if not (is_dict or isinstance(value, (list, tuple))):
        return _encoder(0).encode(value)
    brackets = "{}" if is_dict else "[]"
    if not value:
        return brackets
    inner = "  " * (depth + 1)
    encode = _encoder(depth + 1).encode
    members = value.values() if is_dict else value
    # A container of scalars goes to the C encoder whole.
    if _SCALARS.issuperset(map(type, members)):
        body = encode(value)[1:-1]
    else:
        parts = [_indented(member, depth + 1) for member in members]
        if is_dict:
            # A non-str key goes through a one-entry dict, so it is converted
            # (1.5 -> "1.5") or rejected exactly as json does.
            parts = [
                (encode(key) if type(key) is str else encode({key: None})[1:-7]) + ": " + part
                for key, part in zip(value, parts)
            ]
        body = (",\n" + inner).join(parts)
    return brackets[0] + "\n" + inner + body + "\n" + "  " * depth + brackets[1]


def json_text(value) -> str:
    """Exactly ``json.dumps(value, indent=2, allow_nan=False)``, for an acyclic ``value``.

    NaN and infinities raise ``ValueError``, as they do in ``json``.
    """
    return _indented(value, 0)


def write_json_atomic(path: str | Path, doc: dict) -> None:
    write_text_atomic(path, json_text(doc) + "\n")


def write_text_atomic(path: str | Path, text: str) -> None:
    """Write via a temporary sibling and rename, so failures leave no partial
    file; a path that cannot be written raises ``DocumentError`` naming it.

    The sibling is created with mode 0o666 less the umask, as ``open(path,
    "w")`` creates a new file, and the rename keeps that mode.
    """
    target = Path(path)
    tmp = target.parent / f"{target.name}.{os.urandom(8).hex()}.tmp"
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(text)
            os.replace(tmp, target)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
    except OSError as err:
        raise DocumentError(f"cannot write {path}: {err.strerror or err}") from err
