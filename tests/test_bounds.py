from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import tilted_device
from helpers import first_observables, rows_by_category
from singlet_selftest.bounds import (
    CERT_TOL,
    MODES,
    b_extraction_bound,
    certify,
    extraction_bound,
    fidelity_block,
    my_fidelity_bound,
)
from singlet_selftest.derive import ResidualSet
from singlet_selftest.device import (
    DeviceValidationError,
    canonical_chsh_device,
    canonical_my_device,
    make_device,
)
from singlet_selftest.explorer import FamilySpec, family_chunks
from singlet_selftest.linalg import PAULI_X, PAULI_Z


class TestExtractionBound:
    def test_zero(self):
        assert extraction_bound(0.0, 0.0) == 0.0

    def test_arithmetic(self):
        assert extraction_bound(0.1, 0.2) == pytest.approx(1.05, rel=1e-15)

    def test_budget_composition(self):
        from singlet_selftest.derive import chsh_budget

        budget = chsh_budget(0.01)
        assert extraction_bound(budget.eps1, budget.eps2) == pytest.approx(
            4.7566160677512084, rel=1e-14
        )

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            extraction_bound(-0.1, 0.2)


class TestStateErrorBounds:
    """The state rows' bounds before and after junk normalization, composed
    from residuals whose budgets are eps1 and eps2."""

    NAMES = ("state_error_pre_normalization", "state_error_normalized")

    def bounds(self, eps1, eps2):
        rows = {spec.name: spec for spec in MODES["chsh"].rows}
        residuals = ResidualSet(2.0 * eps1, 2.0 * eps1, eps2, eps2)
        return tuple(rows[name].measured_bound(residuals) for name in self.NAMES)

    def test_zero(self):
        assert self.bounds(0.0, 0.0) == (0.0, 0.0)

    def test_arithmetic(self):
        pre, post = self.bounds(0.1, 0.2)
        assert pre == pytest.approx(0.5, rel=1e-15)
        assert post == pytest.approx(0.65, rel=1e-15)
        # The headline grades are the same composition of the budget, in both modes.
        for mode in MODES.values():
            budget = mode.budget(0.01)
            rows = {spec.name: spec for spec in mode.rows}
            assert tuple(rows[name].grades(budget)[0] for name in self.NAMES) == self.bounds(
                budget.eps1, budget.eps2)

    @settings(max_examples=100, deadline=None)
    @given(
        st.floats(min_value=0.0, max_value=5.0),
        st.floats(min_value=0.0, max_value=5.0),
    )
    def test_normalization_cost_identity(self, eps1, eps2):
        pre, post = self.bounds(eps1, eps2)
        assert post - pre == pytest.approx((eps1 + eps2) / 2.0, abs=1e-12)


class TestBExtractionBound:
    def test_frozen_value(self):
        assert b_extraction_bound(0.01) == pytest.approx(0.98952190371520454, rel=1e-14)

    def test_zero_limit(self):
        assert b_extraction_bound(0.0) == 0.0
        assert b_extraction_bound(1e-12) < 1e-2

    @settings(max_examples=100, deadline=None)
    @given(
        st.floats(min_value=0.0, max_value=0.999),
        st.floats(min_value=0.0, max_value=0.999),
    )
    def test_monotone(self, a, b):
        lo, hi = sorted((a, b))
        assert b_extraction_bound(lo) <= b_extraction_bound(hi) + 1e-15

    def test_domain(self):
        for bad in (-0.01, 1.0):
            with pytest.raises(ValueError):
                b_extraction_bound(bad)


class TestMyFidelityBound:
    def test_exact_one_at_zero(self):
        assert my_fidelity_bound(0.0) == 1.0

    def test_frozen_reference_value(self):
        assert my_fidelity_bound(1e-4) == pytest.approx(0.68292742987802069, rel=1e-14)

    def test_clamped_at_zero(self):
        # the raw polynomial is already < 0 here
        assert my_fidelity_bound(0.01) == 0.0
        assert my_fidelity_bound(0.9) == 0.0

    def test_monotone_nonincreasing_grid(self):
        grid = np.linspace(0.0, 0.1, 100)
        values = [my_fidelity_bound(float(e)) for e in grid]
        assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            my_fidelity_bound(-1e-9)

    def test_fidelity_block_flags_discrepancy(self):
        block = fidelity_block(1e-4)
        assert block["reference_value"] == 0.20
        assert block["formula_value_at_reference"] == pytest.approx(0.6829274, rel=1e-6)
        assert block["discrepancy"] is True


class TestCertify:
    @pytest.mark.parametrize("mode", ["chsh", "my"])
    def test_stack_of_other_than_one_device_raises_naming_the_count(self, mode):
        # certify reports one device: it must not report row 0 of a larger stack.
        (_, stack), = family_chunks(FamilySpec("random", {"count": 2}, (2, 3), 1, mode))
        for count in (2, 0):
            with pytest.raises(ValueError, match=f"^certify takes one device, an n = 1 stack, "
                                                 f"got {count} devices$"):
                certify(stack.select(slice(0, count)), mode)

    def test_canonical_chsh_all_rows_pass(self):
        report = certify(canonical_chsh_device(), "chsh")
        assert report.all_pass
        assert len(report.rows) == len(MODES["chsh"].rows) == 35
        categories = {
            "condition": 4,
            "chain": 14,
            "state": 2,
            "extraction": 9,
            "b_operator": 6,
        }
        for category, count in categories.items():
            assert len(rows_by_category(report, category)) == count, category
        for row in rows_by_category(report, "condition"):
            assert row.measured <= 1e-9
        for row in rows_by_category(report, "extraction"):
            assert row.measured <= 1e-9

    def test_canonical_my_all_rows_pass(self):
        report = certify(canonical_my_device(), "my")
        assert report.all_pass
        assert len(report.rows) == len(MODES["my"].rows) == 25
        assert len(rows_by_category(report, "b_operator")) == 0
        assert report.chsh is None
        assert set(report.correlations) == {
            "XA_XB", "XA_ZB", "XA_DB", "ZA_XB", "ZA_ZB", "ZA_DB",
        }

    def test_tilted_passes_with_slack(self):
        report = certify(tilted_device(math.pi / 4 - 0.05), "chsh")
        assert report.all_pass
        assert report.epsilon > 0.0
        for row in report.rows:
            assert row.slack >= -CERT_TOL
        assert any(row.slack > 0.01 for row in rows_by_category(report, "extraction"))

    def test_invalid_device_gated(self):
        base = canonical_chsh_device()
        broken = make_device(
            (2, 2),
            base.state[0],
            {"A0": 0.5 * PAULI_X, "A1": PAULI_Z},
            first_observables(base.bob_obs),
        )
        with pytest.raises(DeviceValidationError):
            certify(broken, "chsh")

    def test_large_deviation_fails_budget_rows(self):
        # product state: valid device, deviation >= 1, budgets undefined
        report = certify(tilted_device(0.0), "chsh")
        assert report.epsilon >= 1.0
        assert report.budget is None
        assert not report.all_pass
        assert all(not row.passed for row in rows_by_category(report, "condition"))
        # measured-residual rows survive: the isometry guarantee still holds
        assert all(row.passed for row in rows_by_category(report, "extraction"))
        assert not report.degenerate

    def test_degenerate_extraction_is_failed_rows_not_crash(self):
        base = canonical_chsh_device()
        state = np.array([0.0, 0.0, 0.0, 1.0], dtype=complex)
        device = make_device((2, 2), state, first_observables(base.alice_obs),
                             first_observables(base.bob_obs))
        report = certify(device, "chsh")
        assert report.degenerate
        assert not report.all_pass
        for row in rows_by_category(report, "extraction"):
            assert not row.passed and math.isnan(row.measured)

    def test_bad_mode(self):
        with pytest.raises(ValueError, match="mode"):
            certify(canonical_chsh_device(), "bell")

    def test_grade_columns_recorded(self):
        report = certify(tilted_device(0.7), "chsh")
        row = next(r for r in report.rows if r.name == "condition_diff_x")
        assert row.bound == max(row.bound_headline, row.bound_exact)
        overlap = next(r for r in report.rows if r.name == "xa_bsum_overlap")
        assert overlap.direction == ">="
        assert overlap.bound == min(overlap.bound_headline, overlap.bound_exact)
