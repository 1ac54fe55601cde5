"""Term-sheet arithmetic: day counts, schedules, accrual, contract functions."""

import json
from dataclasses import replace
from datetime import date, timedelta

import numpy as np
import pytest

from cblab import (
    CallTerms,
    ConfigurationError,
    ConversionTerms,
    ConvertibleTerms,
    DomainError,
    MarketParams,
    PutTerms,
    accrued_interest,
    dump_terms,
    load_terms,
    reference_terms_path,
    year_fraction,
)
from cblab.reports import config_hash
from cblab.termsheet import Timeline, check_real, terms_from_dict, terms_to_dict


def count_days(d1: date, d2: date) -> int:
    """Independent day-count oracle: walk the calendar one day at a time."""
    n, d = 0, d1
    while d < d2:
        d += timedelta(days=1)
        n += 1
    return n


class TestCheckReal:
    @pytest.mark.parametrize("value", [2, 2.0, np.int64(2), np.float32(2.0), np.float64(2.0)],
                             ids=["int", "float", "np.int64", "np.float32", "np.float64"])
    def test_real_numbers_come_back_as_floats(self, value):
        x = check_real(value, "x")
        assert type(x) is float and x == 2.0

    @pytest.mark.parametrize("value", [True, np.True_, "2", None, 10**400, float("nan"),
                                       float("-inf")],
                             ids=["bool", "np.bool", "str", "None", "huge-int", "nan", "-inf"])
    def test_everything_else_refused(self, value):
        with pytest.raises(ConfigurationError, match=r"^x must be a finite real number, got "):
            check_real(value, "x")

    def test_bounds(self):
        assert check_real(0, "x", 0.0, strict=False) == 0.0
        assert check_real(1e-300, "x", 0.0) == 1e-300
        with pytest.raises(ConfigurationError, match=r"^x must be a finite real number > 0, got 0$"):
            check_real(0, "x", 0.0)
        with pytest.raises(ConfigurationError,
                           match=r"^x must be a finite real number >= 0, got -1e-300$"):
            check_real(-1e-300, "x", 0.0, strict=False)


class TestYearFraction:
    def test_identity(self):
        assert year_fraction(date(2002, 1, 2), date(2002, 1, 2)) == 0.0

    def test_five_years_with_leap_day(self):
        days = count_days(date(2002, 1, 2), date(2007, 1, 2))
        assert days == 1826  # includes 29-Feb-2004
        assert year_fraction(date(2002, 1, 2), date(2007, 1, 2)) == days / 365

    def test_half_year(self):
        days = count_days(date(2002, 1, 2), date(2002, 7, 2))
        assert days == 181
        assert year_fraction(date(2002, 1, 2), date(2002, 7, 2)) == days / 365

    def test_reversed_dates_rejected(self):
        with pytest.raises(DomainError):
            year_fraction(date(2002, 1, 3), date(2002, 1, 2))

    def test_additivity(self):
        a, b, c = date(2002, 1, 2), date(2003, 8, 15), date(2006, 2, 28)
        # the underlying day counts add exactly; the /365 division may round
        # the sum by one ulp
        assert count_days(a, c) == count_days(a, b) + count_days(b, c)
        assert year_fraction(a, c) == pytest.approx(
            year_fraction(a, b) + year_fraction(b, c), rel=5e-16
        )


class TestCouponSchedule:
    def test_reference_dates(self, table1):
        expected = [
            date(2002, 7, 2), date(2003, 1, 2), date(2003, 7, 2), date(2004, 1, 2),
            date(2004, 7, 2), date(2005, 1, 2), date(2005, 7, 2), date(2006, 1, 2),
            date(2006, 7, 2), date(2007, 1, 2),
        ]
        assert list(table1.coupon_dates) == expected
        assert table1.coupon_amount == 2.0

    def test_dates_strictly_increasing_first_after_issue_last_at_maturity(self, table1):
        d = table1.coupon_dates
        assert all(b > a for a, b in zip(d, d[1:]))
        assert d[0] > table1.issue
        assert d[-1] == table1.maturity

    def test_misaligned_grid_rejected(self, table1):
        with pytest.raises(ConfigurationError, match="does not land on issue date"):
            replace(table1, maturity=date(2007, 1, 15))

    def test_frequency_must_divide_year(self, table1):
        with pytest.raises(ConfigurationError, match="does not divide the year"):
            replace(table1, coupon_frequency=5)

    @pytest.mark.parametrize("frequency", [2.0, True, "2"], ids=["float", "bool", "str"])
    def test_frequency_must_be_an_integer(self, table1, frequency):
        """2.0 would divide the year as a float, and True count as annual coupons."""
        with pytest.raises(ConfigurationError, match="^coupon_frequency must be an integer"):
            replace(table1, coupon_frequency=frequency)


class TestAccruedInterest:
    def test_zero_on_coupon_dates_and_issue(self, table1):
        assert accrued_interest(table1, table1.issue) == 0.0
        for d in table1.coupon_dates:
            assert accrued_interest(table1, d) == 0.0

    def test_midperiod_value_from_day_counts(self, table1):
        # first period is 181 days; 90 days in accrues 2 * 90/181
        t = table1.issue + timedelta(days=90)
        assert accrued_interest(table1, t) == pytest.approx(2.0 * 90 / 181, abs=1e-15)
        t2 = table1.issue + timedelta(days=91)
        assert accrued_interest(table1, t2) == pytest.approx(2.0 * 91 / 181, abs=1e-15)

    def test_piecewise_linear_increasing_bounded(self, table1):
        prev = -1.0
        for k in range(1, 181):
            ai = accrued_interest(table1, table1.issue + timedelta(days=k))
            assert 0.0 < ai <= 2.0
            assert ai > prev
            prev = ai

    def test_outside_life_rejected(self, table1):
        with pytest.raises(DomainError):
            accrued_interest(table1, date(2001, 12, 31))
        with pytest.raises(DomainError):
            accrued_interest(table1, date(2007, 1, 3))


def at(terms: ConvertibleTerms, t: date) -> tuple[Timeline, float]:
    """The engines' view of the contract at date t: a Timeline anchored at
    issue and the year fraction of t within it."""
    return Timeline(terms, terms.issue), year_fraction(terms.issue, t)


def conversion(tl: Timeline, S: float, tau: float) -> float:
    """ratio * S where the timeline allows conversion, 0 elsewhere."""
    return float(np.where(tl.conversion_active(tau), tl.ratio * S, 0.0)[0])


class TestContractFunctions:
    def test_conversion_value_inside_window(self, table1):
        tl, tau = at(table1, date(2004, 1, 2))
        assert conversion(tl, 110.0, tau) == 110.0

    def test_outside_window(self, table1):
        terms = ConvertibleTerms(
            nominal=100.0, issue=table1.issue, maturity=table1.maturity,
            coupon_rate=table1.coupon_rate, coupon_frequency=table1.coupon_frequency,
            conversion=ConversionTerms(1.0, table1.issue, date(2004, 1, 2)),
        )
        tl, tau = at(terms, date(2004, 1, 3))
        assert conversion(tl, 150.0, tau) == 0.0

    def test_dirty_call_on_coupon_date(self, table1):
        # coupon date inside the call window: accrued resets to zero
        tl, tau = at(table1, date(2004, 1, 2))
        assert tl.call_dirty(tau)[0] == 110.0

    def test_dirty_call_before_window(self, table1):
        tl, tau = at(table1, date(2003, 1, 2))
        assert tl.call_dirty(tau)[0] == np.inf

    def test_dirty_call_midperiod(self, table1):
        tl, tau = at(table1, date(2004, 1, 2) + timedelta(days=50))
        # period 2-Jan-2004 .. 2-Jul-2004 is 182 days
        assert tl.call_dirty(tau)[0] == pytest.approx(110.0 + 2.0 * 50 / 182, abs=1e-12)

    def test_no_put_means_zero(self, table1):
        for d in (table1.issue, date(2004, 1, 2), date(2006, 12, 31)):
            tl, tau = at(table1, d)
            assert tl.put_dirty(tau)[0] == 0.0

    def test_put_levels(self, table1):
        terms = ConvertibleTerms(
            nominal=100.0, issue=table1.issue, maturity=table1.maturity,
            coupon_rate=table1.coupon_rate, coupon_frequency=table1.coupon_frequency,
            conversion=table1.conversion,
            put=PutTerms(98.0, date(2003, 1, 2), date(2005, 1, 2)),
        )

        def put_at(d):
            tl, tau = at(terms, d)
            return tl.put_dirty(tau)[0]

        assert put_at(date(2004, 1, 2)) == 98.0
        t = date(2004, 1, 2) + timedelta(days=50)
        assert put_at(t) == pytest.approx(98.0 + 2.0 * 50 / 182, abs=1e-12)
        assert put_at(date(2002, 6, 1)) == 0.0


class TestExerciseRights:
    def test_call_never_equals_put(self):
        args = (110.0, date(2004, 1, 2), date(2007, 1, 2))
        assert CallTerms(*args) == CallTerms(*args)
        assert CallTerms(*args) != PutTerms(*args)

    @pytest.mark.parametrize("price", [0.0, -1.0, float("nan"), float("inf")])
    @pytest.mark.parametrize("right, name", [(CallTerms, "call"), (PutTerms, "put")])
    def test_bad_price_names_the_right(self, right, name, price):
        with pytest.raises(ConfigurationError,
                           match=f"^{name} price must be a finite real number > 0, got "):
            right(price, date(2004, 1, 2), date(2007, 1, 2))

    @pytest.mark.parametrize("right, name", [(CallTerms, "call"), (PutTerms, "put"),
                                             (ConversionTerms, "conversion")])
    def test_window_ending_before_it_starts_names_the_right(self, right, name):
        with pytest.raises(ConfigurationError, match=f"^{name} window start is after its end"):
            right(110.0, date(2006, 1, 2), date(2004, 1, 2))
        right(110.0, date(2004, 1, 2), date(2004, 1, 2))  # a one-day window is valid

    @pytest.mark.parametrize("change, message", [
        (dict(issue=date(2007, 1, 2)), "issue date must precede maturity"),
        (dict(call=CallTerms(110.0, date(2001, 1, 2), date(2005, 1, 2))),
         "call window must lie inside the bond life"),
    ], ids=["issue-at-maturity", "call-before-issue"])
    def test_sheet_outside_its_life_refused(self, table1, change, message):
        with pytest.raises(ConfigurationError, match=message):
            replace(table1, **change)


class TestMarketParams:
    def test_sigma_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            MarketParams(rate=0.05, credit_spread=0.02, sigma=0.0)

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf")])
    def test_sigma_must_be_finite(self, sigma):
        with pytest.raises(ConfigurationError):
            MarketParams(rate=0.05, credit_spread=0.02, sigma=sigma)

    @pytest.mark.parametrize("rates", [dict(rate=float("nan")), dict(credit_spread=float("inf"))],
                             ids=["rate-nan", "spread-inf"])
    def test_rate_and_spread_must_be_finite(self, rates):
        name = next(iter(rates)).replace("_", " ")
        with pytest.raises(ConfigurationError, match=f"{name} must be a finite real number, got "):
            MarketParams(**{"rate": 0.05, "credit_spread": 0.02, "sigma": 0.3, **rates})

    @pytest.mark.parametrize("bad", [True, "0.3"], ids=["bool", "str"])
    @pytest.mark.parametrize("field", ["rate", "credit_spread", "sigma"])
    def test_bool_and_string_refused(self, field, bad):
        """float(True) is 1.0 and float("0.3") parses, but neither is a market input."""
        name = field.replace("_", " ")
        with pytest.raises(ConfigurationError, match=f"^{name} must be a finite real number"):
            MarketParams(**{"rate": 0.05, "credit_spread": 0.02, "sigma": 0.3, field: bad})

    def test_negative_spread_allowed(self):
        MarketParams(rate=0.05, credit_spread=-0.001, sigma=0.3)


class TestTermSheetFile:
    def test_reference_file_round_trip_lossless(self, tmp_path, table1):
        src = reference_terms_path().read_text()
        parsed = load_terms(reference_terms_path())
        assert parsed == table1
        out = tmp_path / "roundtrip.json"
        dump_terms(parsed, out)
        assert out.read_text() == src
        assert load_terms(out) == parsed

    def test_int_nominal_hashes_as_the_packaged_sheet(self, table1):
        """A library int is stored as the float a JSON sheet gives, so the
        configuration echo and its hash do not depend on how it was typed."""
        built = replace(table1, nominal=100)
        assert type(built.nominal) is float
        assert config_hash(terms_to_dict(built)) == config_hash(terms_to_dict(table1))

    def test_dict_round_trip(self, table1):
        callable_putable = replace(table1, put=PutTerms(98.0, date(2003, 1, 2), date(2005, 1, 2)))
        assert callable_putable.call is not None and callable_putable.put is not None
        for terms in (table1, callable_putable):
            assert terms_from_dict(terms_to_dict(terms)) == terms

    def test_repo_tables_copy_matches_packaged(self, table1):
        # src/cblab/data/tf_table1.json -> repo root is four levels up
        repo_copy = reference_terms_path().parents[3] / "tables" / "tf_table1.json"
        if not repo_copy.exists():
            pytest.skip("repo-level tables/ not present in installed layout")
        assert repo_copy.read_bytes() == reference_terms_path().read_bytes()

    def test_reference_values(self, table1):
        assert table1.nominal == 100.0
        assert table1.coupon_rate == 0.04
        assert table1.coupon_frequency == 2
        assert table1.issue == date(2002, 1, 2)
        assert table1.maturity == date(2007, 1, 2)
        assert table1.conversion.ratio == 1.0
        assert table1.call is not None and table1.call.price == 110.0
        assert table1.call.start == date(2004, 1, 2)
        assert table1.put is None
        assert terms_to_dict(table1)["day_count"] == "ACT_365"

    def test_malformed_input_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        from cblab import TermSheetError

        with pytest.raises(TermSheetError):
            load_terms(bad)
        with pytest.raises(TermSheetError):
            terms_from_dict({"nominal": 100.0})

    def test_day_count_other_than_act_365_rejected(self, table1):
        from cblab import TermSheetError

        with pytest.raises(TermSheetError, match="ACT_360"):
            terms_from_dict(dict(terms_to_dict(table1), day_count="ACT_360"))


class TestTimeline:
    def test_accrued_matches_date_based(self, table1):
        """On every day of the life, issue and maturity included, the accrual
        read off a Timeline is the ratio of day counts to within 2 ulp, and
        the same number at the 10 significant digits the CLI writes."""
        bounds = (table1.issue,) + table1.coupon_dates
        for k in range((table1.maturity - table1.issue).days + 1):
            t = table1.issue + timedelta(days=k)
            got = accrued_interest(table1, t)
            if t in bounds:
                assert got == 0.0
                continue
            prev = max(b for b in bounds if b < t)
            nxt = min(b for b in bounds if b > t)
            want = table1.coupon_amount * (((t - prev).days / 365.0) / ((nxt - prev).days / 365.0))
            assert abs(got - want) <= 2 * np.spacing(want), t
            assert f"{got:.10g}" == f"{want:.10g}", t

    def test_accrual_resets_within_eps_of_every_bound(self, table1):
        """Zero within eps of each coupon date, maturity included; past eps it
        is the tiny or the full accrual of the period on that side."""
        tl = Timeline(table1, date(2003, 3, 10))
        c = tl.coupon_taus[tl.coupon_taus > 0]
        assert np.all(tl.accrued(c) == 0.0)
        assert np.all(tl.accrued(c - 0.5e-12) == 0.0)
        assert np.all(tl.accrued(c + 0.5e-12) == 0.0)
        after = tl.accrued(c[:-1] + 3e-12)
        assert np.all((after > 0.0) & (after < 1e-9))
        assert tl.accrued(c - 3e-12) == pytest.approx(np.full(c.size, 2.0), abs=1e-9)

    def test_call_window_levels(self, table1):
        tl = Timeline(table1, date(2002, 1, 2))
        taus = np.array([0.0, 1.0, 730 / 365.0, 3.0, 1826 / 365.0 - 0.01])
        lv = tl.call_dirty(taus)
        assert lv[0] == np.inf and lv[1] == np.inf
        assert lv[2] == 110.0  # window start, coupon date
        assert np.isfinite(lv[3]) and lv[3] > 110.0
        assert np.isfinite(lv[4])

    def test_risky_cash_pv_at_origin(self, table1):
        tl = Timeline(table1, date(2002, 1, 2))
        rate = 0.07
        expected = 100.0 * np.exp(-rate * 1826 / 365)
        for d in table1.coupon_dates:
            expected += 2.0 * np.exp(-rate * (d - date(2002, 1, 2)).days / 365)
        assert tl.risky_cash_pv(0.0, rate)[0] == pytest.approx(expected, rel=1e-14)

    def test_risky_cash_pv_grid_matches_single_time_formula(self, table1):
        tl = Timeline(table1, date(2002, 1, 2))
        rate = 0.07
        c = tl.coupon_taus
        # on coupon dates, between them, and after the last coupon before maturity
        taus = np.concatenate([[0.0], c[:-1], (c[:-1] + c[1:]) / 2, [c[-2] + 0.1, c[-1] - 1e-3, tl.tau_maturity]])

        def single(tau):
            pv = tl.nominal * np.exp(-rate * (tl.tau_maturity - tau))
            future = c[c > tau + 1e-12]
            if future.size:
                pv += tl.coupon_amount * np.exp(-rate * (future - tau)).sum()
            return float(pv)

        assert np.array_equal(tl.risky_cash_pv(taus, rate), [single(t) for t in taus])

    def test_anchor_must_be_in_life(self, table1):
        with pytest.raises(DomainError):
            Timeline(table1, date(2001, 6, 1))
        with pytest.raises(DomainError):
            Timeline(table1, table1.maturity)
