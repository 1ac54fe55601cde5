"""Lattice Greeks: definitions, limits, cross-checks, and the oscillation
pathologies they are supposed to exhibit near the call region."""

from datetime import date

import numpy as np
import pytest

from cblab import (
    ConfigurationError,
    ConversionTerms,
    ConvertibleTerms,
    DomainError,
    greek_point,
    price_tf_crr,
    rollback_batch,
    surface,
)
from cblab import sensitivities
from cblab.sensitivities import (
    local_extrema_count,
    monotonicity_violations,
    second_difference_sign_changes,
)


class TestDeltaDefinition:
    def test_matches_front_layer_formula(self, table1, market, jan2004):
        res = rollback_batch(table1, market, jan2004, np.array([100.0]), 500, front_layers=1)
        lp = res.params
        v1 = res.fronts[1]
        expected = (v1[0, 1] - v1[0, 0]) / ((lp.up - lp.down) * 100.0)
        assert greek_point(table1, market, jan2004, 100.0, 500).delta == expected

    def test_deep_itm_delta_one(self, table1, market, issue):
        gp = greek_point(table1, market, issue, 10_000.0, 500)
        assert gp.delta == pytest.approx(1.0, abs=1e-3)

    def test_deep_itm_gamma_zero(self, table1, market, issue):
        gp = greek_point(table1, market, issue, 10_000.0, 500)
        assert gp.gamma == pytest.approx(0.0, abs=1e-4)

    def test_minimum_steps_enforced(self, table1, market, jan2004):
        with pytest.raises(ConfigurationError):
            greek_point(table1, market, jan2004, 100.0, 1)
        with pytest.raises(ConfigurationError):
            greek_point(table1, market, jan2004, 100.0, 2)


class TestDeltaPct:
    def test_ratio_one_identity(self, table1, market, jan2004):
        gp = greek_point(table1, market, jan2004, 100.0, 300)
        assert gp.delta_pct == gp.delta

    def test_rescales_by_ratio(self, table1, market, jan2004):
        quarter = table1.with_nominal_scaled(0.25)  # ratio 0.25, nominal 25
        gp = greek_point(quarter, market, jan2004, 100.0, 200)
        assert gp.delta_pct == pytest.approx(gp.delta / 0.25, rel=1e-12)

    def test_zero_ratio_is_nan(self, market, jan2004):
        issue, maturity = date(2002, 1, 2), date(2007, 1, 2)
        terms = ConvertibleTerms(
            nominal=100.0, issue=issue, maturity=maturity,
            coupon_rate=0.04, coupon_frequency=2,
            conversion=ConversionTerms(0.0, issue, maturity),
        )
        assert np.isnan(greek_point(terms, market, jan2004, 100.0, 200).delta_pct)

    def test_deep_itm_near_one(self, table1, market, issue):
        gp = greek_point(table1, market, issue, 10_000.0, 500)
        assert gp.delta_pct == pytest.approx(1.0, abs=1e-3)


class TestSmoothRegionAgreement:
    """Far below the call region the lattice Greeks should approximate actual
    derivatives.  The lattice profile carries a decision-boundary staircase of
    period ~ S*(u^2 - 1) (about 1.9 currency units at S = 40), so the central
    differences use a stride spanning several periods."""

    def test_delta_matches_central_difference(self, table1, market, issue):
        h = 5.0
        vp = price_tf_crr(table1, market, issue, 40.0 + h, 500).price
        vm = price_tf_crr(table1, market, issue, 40.0 - h, 500).price
        d_fd = (vp - vm) / (2 * h)
        assert greek_point(table1, market, issue, 40.0, 500).delta == pytest.approx(
            d_fd, abs=1e-2
        )

    def test_gamma_matches_central_difference(self, table1, market, issue):
        h = 5.0
        vp = price_tf_crr(table1, market, issue, 40.0 + h, 500).price
        v0 = price_tf_crr(table1, market, issue, 40.0, 500).price
        vm = price_tf_crr(table1, market, issue, 40.0 - h, 500).price
        g_fd = (vp - 2 * v0 + vm) / h**2
        assert greek_point(table1, market, issue, 40.0, 500).gamma == pytest.approx(
            g_fd, abs=1e-1
        )


class TestPortfolioLinearity:
    def test_delta_scales_with_nominal(self, table1, market, jan2004):
        doubled = table1.with_nominal_scaled(2.0)
        assert greek_point(doubled, market, jan2004, 100.0, 200).delta == pytest.approx(
            2.0 * greek_point(table1, market, jan2004, 100.0, 200).delta, rel=1e-12
        )


class TestSurface:
    def test_single_cell_matches_pointwise(self, table1, market, jan2004):
        srf = surface(table1, market, [jan2004], [100.0], 300)
        p = srf.point(0, 0)
        gp = greek_point(table1, market, jan2004, 100.0, 300)
        assert (p.value, p.equity, p.debt, p.delta, p.gamma) == (
            gp.value, gp.equity, gp.debt, gp.delta, gp.gamma,
        )
        assert p.delta_pct == gp.delta_pct == p.delta  # ratio 1

    def test_row_equals_profile(self, table1, market, jan2004):
        spots = np.array([95.0, 100.0, 105.0])
        srf = surface(table1, market, [date(2003, 1, 2), jan2004], spots, 200)
        for j, s in enumerate(spots):
            gp = greek_point(table1, market, jan2004, float(s), 200)
            assert srf.value[1, j] == gp.value
            assert srf.delta[1, j] == gp.delta
            assert srf.gamma[1, j] == gp.gamma

    def test_grid_validation(self, table1, market, jan2004, monkeypatch):
        with pytest.raises(DomainError, match="date grid"):
            surface(table1, market, [], [100.0], 200)
        with pytest.raises(DomainError, match="surface row t=2004-01-02"):
            surface(table1, market, [jan2004], [], 200)
        # a date at maturity is refused before any row is priced
        rolled, engine = [], sensitivities.rollback_batch

        def counted(terms, mkt, t, *args, **kwargs):
            rolled.append(t)
            return engine(terms, mkt, t, *args, **kwargs)

        monkeypatch.setattr(sensitivities, "rollback_batch", counted)
        with pytest.raises(DomainError, match="^surface row t=2007-01-02: anchor 2007-01-02 "
                                              "must satisfy issue <= t0 < maturity$"):
            surface(table1, market, [jan2004, table1.maturity], [100.0], 200)
        assert rolled == []

    def test_value_equals_component_sum(self, table1, market, jan2004):
        srf = surface(table1, market, [jan2004], np.arange(90.0, 111.0, 5.0), 200)
        assert np.array_equal(srf.value, srf.equity + srf.debt)

    def test_row_context_on_cblab_errors(self, table1, market, jan2004):
        with pytest.raises(ConfigurationError, match="surface row t=2004-01-02") as info:
            surface(table1, market, [jan2004], [100.0], 2)
        assert isinstance(info.value.__cause__, ConfigurationError)

    def test_foreign_exception_propagates_unchanged(self, table1, market, jan2004, monkeypatch):
        class Foreign(Exception):
            def __init__(self, code, detail):
                super().__init__(code, detail)
                self.code = code

        raised = Foreign(7, "kernel fault")

        def fail(*args, **kwargs):
            raise raised

        monkeypatch.setattr(sensitivities, "rollback_batch", fail)
        with pytest.raises(Foreign) as info:
            surface(table1, market, [jan2004], [100.0], 200)
        assert info.value is raised and info.value.code == 7


class TestPathologies:
    def test_price_profile_defect_at_both_step_counts(self, table1, market, jan2004):
        """Non-convexity plus failure of strict monotonicity, persisting when
        the step count grows."""
        grid = np.round(np.arange(105.0, 112.0001, 0.1), 6)
        for steps in (500, 750):
            srf = surface(table1, market, [jan2004], grid, steps)
            v = srf.value[0]
            assert monotonicity_violations(v) >= 1
            assert second_difference_sign_changes(v) >= 1
            sub = v[(grid >= 108.0 - 1e-9) & (grid <= 110.0 + 1e-9)]
            assert np.any(sub[1:] <= sub[:-1])  # not strictly monotone there

    def test_delta_oscillates(self, table1, market, jan2004):
        spots = np.round(np.arange(90.0, 120.0001, 0.25), 6)
        srf = surface(table1, market, [jan2004], spots, 500)
        assert local_extrema_count(srf.delta[0]) >= 3

    def test_gamma_inconsistent(self, table1, market, jan2004):
        spots = np.round(np.arange(90.0, 120.0001, 0.25), 6)
        srf = surface(table1, market, [jan2004], spots, 500)
        g = srf.gamma[0]
        # spiky bumps spanning orders of magnitude, and a numerically flat
        # stretch where every tree path is pinned by the call
        assert g.max() > 20 * np.median(g[np.abs(g) > 1e-12])
        assert np.any(np.abs(g) < 1e-12)
