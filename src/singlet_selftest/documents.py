"""Versioned JSON documents for devices and certification reports.

Complex numbers are serialized as two-element [re, im] arrays and matrices as
row-major nested arrays of such pairs.  Floats go through the standard JSON
encoder (shortest exact round-trip), so deserialize(serialize(device)) is
value-identical and repeated runs are byte-identical.  Output files are
written to a temporary sibling and atomically renamed, never left partial.

A loaded device's digest, a report's ``inputsDigest``, hashes the document as
parsed, re-encoded with sorted keys and no whitespace: its schema version,
dims, state and observables, with ``metadata`` emptied, any other key left
out, and the integer entries of an array written as floats.  Both documents
take their layout from one function, ``_device_document``, so those bytes are
``document_digest(device_to_document(device))`` of the loaded device, and the
arrays are not rebuilt as lists only to be hashed.

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


def complex_to_json(a: np.ndarray) -> list:
    """A complex array as nested lists of [re, im] pairs in the array's shape.

    Viewing the complex128 buffer as float64 pairs keeps every bit, -0.0
    included, and ``tolist`` gives plain floats without a per-entry loop.
    """
    a = np.ascontiguousarray(a, dtype=complex)
    return a.view(float).reshape(*a.shape, 2).tolist()


def _complex_array(rows, ndim: int, where: str) -> tuple[np.ndarray, list]:
    """``rows`` as a complex vector (``ndim`` 1) or square matrix (``ndim`` 2),
    and the rows as ``complex_to_json`` writes that array.

    Accepted: a nonempty list, for a matrix of lists of its own length, of
    [re, im] pairs (lists or tuples) of exact ``int`` or ``float`` leaves (JSON
    true/false load as bool, an int subclass).  The leaves are converted in
    one ``np.array`` call, each as ``float()`` converts it, so an integer
    beyond float range raises ``float()``'s ``OverflowError``.  Anything else
    raises ``DocumentError`` naming the first bad row or entry in row-major
    order, or the ``OverflowError`` of an entry before it.

    The rows returned are ``rows`` itself when every leaf is a float, since
    JSON writes a float as its ``repr`` whatever container holds it, and the
    array's rows re-encoded when any leaf is an integer, which JSON writes
    without the ``.0`` a float has.
    """
    if not isinstance(rows, list) or not rows:
        raise DocumentError(f"{where}: expected a nonempty "
                            + ("list of [re, im] pairs" if ndim == 1 else "nested list"))
    shape = (len(rows),) * ndim
    level = [rows]
    for kinds, size in zip((list,) * ndim + ((list, tuple),), (*shape, 2)):
        if not all(map(isinstance, level, itertools.repeat(kinds))) or (
                set(map(len, level)) != {size}):
            raise _first_error(rows, ndim, where)
        level = list(itertools.chain.from_iterable(level))
    leaf_types = set(map(type, level))
    if not leaf_types <= {int, float}:
        raise _first_error(rows, ndim, where)
    array = np.array(level, dtype=float).view(complex).reshape(shape)
    return array, complex_to_json(array) if int in leaf_types else rows


def _first_error(rows: list, ndim: int, where: str) -> DocumentError:
    """The error naming the first row or entry of ``rows``, in row-major order,
    that ``_complex_array`` refuses; ``rows`` holds one.  An integer beyond
    float range before it raises ``float()``'s ``OverflowError`` instead."""
    for i, row in enumerate(rows):
        entries = [(f"{where}[{i}]", row)]
        if ndim == 2:
            if not isinstance(row, list) or len(row) != len(rows):
                return DocumentError(
                    f"{where}: row {i} has {len(row) if isinstance(row, list) else 'no'} "
                    f"entries, expected {len(rows)} (square, row-major)"
                )
            entries = [(f"{where}[{i}][{j}]", entry) for j, entry in enumerate(row)]
        for at, pair in entries:
            if not (isinstance(pair, (list, tuple)) and len(pair) == 2
                    and set(map(type, pair)) <= {int, float}):
                return DocumentError(f"{at}: expected a [re, im] pair, got {pair!r}")
            for x in pair:
                float(x)


def _device_document(dims: list, state: list, observables: dict, metadata: dict) -> dict:
    """The one device-document layout, from its JSON-ready parts: what
    ``device_to_document`` writes and what ``device_from_document`` hashes."""
    return {"schemaVersion": DEVICE_SCHEMA_VERSION, "dims": dims, "state": state,
            "observables": observables, "metadata": metadata}


def device_to_document(device: DeviceStack, metadata: dict | None = None) -> dict:
    """The document of one device, an n = 1 stack; any other count raises
    ``ValueError`` naming it, rather than write the first row."""
    if len(device) != 1:
        raise ValueError(f"a device document holds one device, an n = 1 stack, "
                         f"got {len(device)} devices")
    return _device_document(
        [int(device.dims[0]), int(device.dims[1])],
        complex_to_json(device.state[0]),
        {"alice": {name: complex_to_json(m[0]) for name, m in device.alice_obs.items()},
         "bob": {name: complex_to_json(m[0]) for name, m in device.bob_obs.items()}},
        dict(metadata or {}),
    )


def device_from_document(doc) -> tuple[DeviceStack, str]:
    """The device of a schema-checked document, as the n = 1 stack, and the
    digest of the document as checked, which is
    ``document_digest(device_to_document(device))``."""
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
    state, state_rows = _complex_array(doc.get("state"), 1, "state")
    obs = doc.get("observables")
    if not isinstance(obs, dict) or set(obs) - {"alice", "bob"}:
        raise DocumentError("observables: expected an object with 'alice' and 'bob'")
    parties, party_rows = {}, {}
    for party in ("alice", "bob"):
        named = obs.get(party, {})
        if not isinstance(named, dict):
            raise DocumentError(f"observables.{party}: expected an object of name -> matrix")
        parsed = {name: _complex_array(m, 2, f"observables.{party}.{name}")
                  for name, m in named.items()}
        parties[party] = {name: array for name, (array, _) in parsed.items()}
        party_rows[party] = {name: rows for name, (_, rows) in parsed.items()}
    device = make_device((dims[0], dims[1]), state, parties["alice"], parties["bob"])
    return device, document_digest(_device_document(dims, state_rows, party_rows, {}))


def document_digest(doc: dict) -> str:
    # A document built from arrays, or checked as device_from_document checks
    # one, cannot be cyclic, so the cycle check is skipped.
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


def load_device(path: str | Path) -> tuple[DeviceStack, str]:
    """Parse and schema-check a device document file: its device, the n = 1
    stack, and the digest of the document (see ``device_from_document``).

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
    "w")`` creates a new file, and the rename keeps that mode.  Its name has a
    fixed length, so any name the directory takes can be the target's.
    """
    target = Path(path)
    tmp = target.parent / f".{os.urandom(8).hex()}.tmp"
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
