"""Delta-hedge position and shock-increment stress test."""

from datetime import date

import numpy as np
import pytest

from cblab import (
    ConfigurationError,
    ConversionTerms,
    ConvertibleTerms,
    DomainError,
    greek_point,
    hedge_increment,
    price_tf_crr,
    stress_increments,
)
from cblab.cli import main
from cblab.reports import format_number


def straight_bond():
    issue, maturity = date(2002, 1, 2), date(2007, 1, 2)
    return ConvertibleTerms(
        nominal=100.0, issue=issue, maturity=maturity,
        coupon_rate=0.04, coupon_frequency=2,
        conversion=ConversionTerms(0.0, issue, maturity),
    )


def one_spot_position(terms, market, t, spot, steps):
    """The pre-shock hedged position that `stress_increments` reports for one spot."""
    _, positions = stress_increments(terms, market, t, np.array([spot]), 0.5, steps)
    return positions[0]


class TestHedgedPosition:
    def test_straight_bond_position_is_value(self, market, issue):
        terms = straight_bond()
        v = price_tf_crr(terms, market, issue, 100.0, 300).price
        assert one_spot_position(terms, market, issue, 100.0, 300) == v

    def test_recomposition_identity(self, table1, market, issue):
        v = price_tf_crr(table1, market, issue, 100.0, 500).price
        d = greek_point(table1, market, issue, 100.0, 500).delta
        assert one_spot_position(table1, market, issue, 100.0, 500) == pytest.approx(
            v - d * 100.0, rel=1e-12
        )

    def test_deep_itm_position_near_zero_fraction(self, table1, market, issue):
        # pure equity limit: V ~ S and delta ~ 1, so the hedge nets out
        pos = one_spot_position(table1, market, issue, 10_000.0, 500)
        assert abs(pos) < 0.02 * 10_000.0


class TestHedgeIncrement:
    def test_zero_shock_zero_increment(self, table1, market, issue):
        assert hedge_increment(table1, market, issue, 100.0, 0.0, 300) == 0.0

    def test_straight_bond_increment_zero(self, market, issue):
        terms = straight_bond()
        for h in (0.5, -0.25, 2.0):
            assert hedge_increment(terms, market, issue, 100.0, h, 300) == pytest.approx(
                0.0, abs=1e-10
            )

    def test_bad_spots_rejected(self, table1, market, issue):
        with pytest.raises(DomainError):
            hedge_increment(table1, market, issue, -1.0, 0.5, 100)
        # a valid spot that the shock moves to <= 0: the shock is at fault
        with pytest.raises(ConfigurationError, match="shock"):
            hedge_increment(table1, market, issue, 0.2, -0.5, 100)
        # the zero-shock shortcut must not skip the spot check
        for spot in (float("nan"), -1.0):
            with pytest.raises(DomainError):
                hedge_increment(table1, market, issue, spot, 0.0, 100)

    @pytest.mark.parametrize("when, spot, steps", [
        (date(1990, 1, 1), 100.0, 100),
        (date(2002, 1, 2), 100.0, 1.5),
        (date(2002, 1, 2), 100.0, 10**9),
        (date(2002, 1, 2), -1.0, 100),
    ], ids=["pre-issue", "fractional-steps", "steps-over-cap", "negative-spot"])
    def test_zero_shock_refuses_what_a_shock_refuses(self, table1, market, when, spot, steps):
        """The zero-shock increment is 0.0 only for inputs the engine would roll back."""
        errors = []
        for shock in (0.5, 0.0):
            with pytest.raises((ConfigurationError, DomainError)) as info:
                hedge_increment(table1, market, when, spot, shock, steps)
            errors.append((type(info.value), str(info.value)))
        assert errors[0] == errors[1]

    @pytest.mark.parametrize("grid", [[-1.0], [float("nan")], []],
                             ids=["negative", "nan", "empty"])
    def test_bad_stress_grid_is_a_domain_error(self, table1, market, issue, grid):
        with pytest.raises(DomainError):
            stress_increments(table1, market, issue, np.array(grid), 0.5, 20)


class TestStressCurve:
    def test_singleton_matches_pointwise(self, table1, market, issue):
        (inc,), _ = stress_increments(table1, market, issue, np.array([100.0]), 0.5, 300)
        assert inc == hedge_increment(table1, market, issue, 100.0, 0.5, 300)

    def test_scaling_linearity_exact(self, table1, market, issue, tmp_path):
        """The position size scales the increment and nothing else, exactly:
        `cblab hedge-stress` multiplies by contract_size / nominal."""
        grid = np.array([80.0, 100.0, 120.0])
        increments, _ = stress_increments(table1, market, issue, grid, 0.5, 200)
        for size, factor in ((None, 10_000.0), (3_000_000.0, 30_000.0)):
            args = ["hedge-stress", "--s-min", "80", "--s-max", "120", "--s-step", "20",
                    "--steps", "200", "--out", str(tmp_path / str(size))]
            if size is not None:
                args += ["--contract-size", str(size)]
            assert main(args) == 0
            rows = [line.split(",") for line in
                    (tmp_path / str(size) / "hedge_stress.csv").read_text().splitlines()[4:]]
            assert len(rows) == 3
            for row, inc in zip(rows, increments):
                assert row[1] == format_number(float(inc))
                assert row[2] == format_number(float(inc * factor))

    @pytest.mark.parametrize("shock", [0.0, float("nan"), float("inf"), float("-inf")],
                             ids=["zero", "nan", "inf", "-inf"])
    def test_bad_shock_is_a_configuration_error(self, table1, market, issue, shock):
        with pytest.raises(ConfigurationError, match="shock"):
            stress_increments(table1, market, issue, np.array([100.0]), shock, 20)
        if shock != 0:  # zero is hedge_increment's shortcut, not a refusal
            with pytest.raises(ConfigurationError, match="shock"):
                hedge_increment(table1, market, issue, 100.0, shock, 20)

    @pytest.mark.parametrize("shock", [True, False, "0.5"], ids=["true", "false", "str"])
    def test_shock_must_be_a_real_number(self, table1, market, issue, shock):
        """False would pass as a zero shock, True as a shock of 1.0."""
        for view in (stress_increments, hedge_increment):
            spots = np.array([100.0]) if view is stress_increments else 100.0
            with pytest.raises(ConfigurationError, match="^shock must be a finite real number, got "):
                view(table1, market, issue, spots, shock, 20)

    def test_shock_below_zero_spot_names_shock_and_spot(self, table1, market, issue):
        grid = np.array([-1.0, 200.0, 120.0, 100.0])
        with pytest.raises(ConfigurationError, match=r"shock -150\.0 moves spot 120\.0 to -30\.0"):
            stress_increments(table1, market, issue, grid[1:], -150.0, 20)
        # a spot that is bad before the shock stays the engine's to refuse
        with pytest.raises(DomainError, match="spot"):
            stress_increments(table1, market, issue, grid[:2], -150.0, 20)

    def test_smooth_region_taylor_control(self, table1, market, issue):
        """Deep out-of-the-money the increment is second order in the shock up
        to the lattice's decision-boundary noise (measured staircase jumps are
        a few hundredths); the curvature reference uses a stride wide enough
        to average over the staircase."""
        h_shock = 0.5
        inc = hedge_increment(table1, market, issue, 40.0, h_shock, 500)
        hh = 5.0
        vp = price_tf_crr(table1, market, issue, 40.0 + hh, 500).price
        v0 = price_tf_crr(table1, market, issue, 40.0, 500).price
        vm = price_tf_crr(table1, market, issue, 40.0 - hh, 500).price
        g_fd = (vp - 2 * v0 + vm) / hh**2
        noise_allowance = 0.1
        assert abs(inc) <= 0.5 * abs(g_fd) * h_shock**2 + noise_allowance

    def test_oscillation_pathology(self, table1, market, issue):
        grid = np.arange(50.0, 200.0 + 1e-9, 0.5)
        inc, _ = stress_increments(table1, market, issue, grid, 0.5, 500)
        signs = np.sum(inc[1:] * inc[:-1] < 0)
        assert signs >= 5
        assert np.abs(inc).max() > 0.1  # spikes far beyond the smooth second-order scale

    def test_shrinking_shock_recorded(self, table1, market, issue, capsys):
        """As the shock shrinks the increment should vanish at smooth points;
        near the call region the hedge-ratio error dominates instead.  The
        behavior is recorded here, not bounded: it is the finding."""
        rows = []
        for s in (40.0, 109.0):
            for h in (0.5, 0.1, 0.02):
                inc = hedge_increment(table1, market, issue, s, h, 500)
                rows.append((s, h, inc))
                assert np.isfinite(inc)
        with capsys.disabled():
            print("\n  shock-size sweep (S, h, increment):")
            for s, h, inc in rows:
                print(f"    S={s:6.1f} h={h:4.2f} increment={inc:+.6f}")
