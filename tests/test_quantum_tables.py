"""The angle-interval test for correlation tables against Landau's arcsine test.

``cli._incompatible_settings`` decides whether some quantum device produces a
correlation table.  The reference here is the test it replaced: on every 2x2
sub-table (Alice's two settings against two of Bob's), each of the eight sums
+-asin E00 +-asin E01 +-asin E10 +-asin E11 with an odd number of minus signs
must be at most pi (Landau 1988; Masanes, arXiv:quant-ph/0309137), each entry
first moved ``TABLE_ROUNDING_TOL`` toward the side that lowers the sum.  Both
must give the same verdict on every table, and a rejection must name two Bob
settings whose sub-table the reference rejects.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from singlet_selftest.bounds import MODES
from singlet_selftest.cli import TABLE_ROUNDING_TOL, _incompatible_settings
from singlet_selftest.device import TSIRELSON

ODD_SIGNS = [signs for signs in itertools.product((1, -1), repeat=4) if signs.count(-1) % 2]
SNAPPED = (1.0, -1.0, 0.0, 0.5, -0.5, 1.0 / math.sqrt(2.0), -1.0 / math.sqrt(2.0))
TABLES_PER_FAMILY = 7000


def arcsine_rejects(table: dict[str, float], alice: list[str], bobs: list[str]) -> bool:
    """Whether an odd-sign arcsine sum of some 2x2 sub-table exceeds pi."""
    for b0, b1 in itertools.combinations(bobs, 2):
        values = [table[f"{a}_{b}"] for a in alice for b in (b0, b1)]
        for signs in ODD_SIGNS:
            total = sum(s * math.asin(min(1.0, max(-1.0, e - s * TABLE_ROUNDING_TOL)))
                        for s, e in zip(signs, values))
            if total > math.pi:
                return True
    return False


def settings_of(mode: str) -> tuple[list[str], list[str]]:
    pairs = MODES[mode].pairs
    return list(dict.fromkeys(a for a, _ in pairs)), list(dict.fromkeys(b for _, b in pairs))


def seeded_tables(mode: str, seed: int) -> np.ndarray:
    """(n, 2, nB) correlation matrices, rows Alice's settings, from three families:
    coplanar strategies plus noise of 0 or 1e-14 to 1e-8, which sit on the quantum
    boundary; random strategies in R^4 plus noise up to 0.3; and entries snapped
    to {+-1, 0, +-1/2, +-1/sqrt(2)}, some +-1 moved out by up to the tolerance."""
    rng = np.random.default_rng(seed)
    n, nb = TABLES_PER_FAMILY, len(settings_of(mode)[1])
    alpha = rng.uniform(0.0, 2.0 * np.pi, (n, 2, 1))
    beta = rng.uniform(0.0, 2.0 * np.pi, (n, 1, nb))
    noise = rng.choice([0.0, 1e-14, 1e-13, 1e-12, 1e-11, 1e-10, 1e-9, 1e-8], (n, 1, 1))
    coplanar = np.cos(alpha - beta) + noise * rng.uniform(-1.0, 1.0, (n, 2, nb))

    u = rng.normal(size=(n, 2, 4))
    v = rng.normal(size=(n, nb, 4))
    u /= np.linalg.norm(u, axis=-1, keepdims=True)
    v /= np.linalg.norm(v, axis=-1, keepdims=True)
    spread = rng.uniform(0.0, 0.3, (n, 1, 1))
    random = u @ v.transpose(0, 2, 1) + spread * rng.uniform(-1.0, 1.0, (n, 2, nb))

    snapped = rng.choice(SNAPPED, (n, 2, nb))
    outward = (np.abs(snapped) == 1.0) & (rng.random((n, 2, nb)) < 0.3)
    snapped[outward] *= 1.0 + rng.random(np.count_nonzero(outward)) * TABLE_ROUNDING_TOL

    return np.concatenate((np.clip(coplanar, -1.0, 1.0), np.clip(random, -1.0, 1.0), snapped))


@pytest.mark.parametrize("mode,seed", [("chsh", 11), ("my", 12)])
def test_verdicts_match_the_arcsine_test(mode, seed):
    selftest = MODES[mode]
    alice, bobs = settings_of(mode)
    rejected = over_tsirelson = 0
    tables = seeded_tables(mode, seed)
    for matrix in tables.tolist():
        table = {f"{a}_{b}": matrix[i][j] for i, a in enumerate(alice)
                 for j, b in enumerate(bobs)}
        conflict = _incompatible_settings(selftest, table)
        assert (conflict is not None) == arcsine_rejects(table, alice, bobs), table
        if conflict is not None:
            rejected += 1
            low, lo, high, hi = conflict
            assert low != high and lo > hi
            assert arcsine_rejects(table, alice, [low, high]), (table, low, high)
        if mode == "chsh":
            chsh, _ = selftest.deviation(dict(zip(selftest.pairs, table.values())))
            if chsh > TSIRELSON + 4 * TABLE_ROUNDING_TOL:
                # Tsirelson's bound on the CHSH value follows from the test.
                over_tsirelson += 1
                assert conflict is not None, table
    assert len(tables) >= 20_000
    # Both verdicts are common, so the agreement is not all on one side.
    assert 0.1 * len(tables) < rejected < 0.9 * len(tables)
    assert mode == "my" or over_tsirelson > 100


@pytest.mark.parametrize("d,quantum", [
    (0.0, True), (5e-13, True), (1e-12, True), (1.2e-12, False), (2e-12, False),
])
def test_tsirelson_table_threshold_is_the_rounding_tolerance(d, quantum):
    c = 1.0 / math.sqrt(2.0) + d
    table = {"A0_B0": c, "A0_B1": c, "A1_B0": c, "A1_B1": -c}
    conflict = _incompatible_settings(MODES["chsh"], table)
    assert (conflict is None) == quantum
    assert arcsine_rejects(table, ["A0", "A1"], ["B0", "B1"]) != quantum
