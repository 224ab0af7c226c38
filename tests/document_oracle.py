"""Reference parser for the arrays of a device document: one entry at a time.

It converts each [re, im] pair with ``float()``, row by row, and raises at the
first row or entry it cannot take: ``DocumentError`` naming it, or
``float()``'s ``OverflowError`` for an integer beyond float range.  The
library checks and converts each array in bulk; the tests hold its values and
its error type and text to this walk's.
"""

from __future__ import annotations

import numpy as np

from singlet_selftest.documents import DocumentError


def _unpair(value, where: str) -> complex:
    # Exact types: JSON true/false load as bool, which is an int subclass.
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or not all(type(x) in (int, float) for x in value)
    ):
        raise DocumentError(f"{where}: expected a [re, im] pair, got {value!r}")
    return complex(float(value[0]), float(value[1]))


def vector_from_json(rows, where: str) -> np.ndarray:
    if not isinstance(rows, list) or not rows:
        raise DocumentError(f"{where}: expected a nonempty list of [re, im] pairs")
    return np.array([_unpair(r, f"{where}[{i}]") for i, r in enumerate(rows)], dtype=complex)


def matrix_from_json(rows, where: str) -> np.ndarray:
    if not isinstance(rows, list) or not rows:
        raise DocumentError(f"{where}: expected a nonempty nested list")
    dim = len(rows)
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
