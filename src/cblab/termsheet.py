"""Convertible-bond contract representation.

Term sheet types (a fixed-rate coupon stream, a conversion window, and one
exercise-right type for the call and the put: a flat clean level inside
[start, end]) and act/365 date arithmetic.  A sheet holds what its JSON file
holds: the coupon is a rate and a yearly frequency, its dates derived once, at
construction.  Everything here is immutable and pure.  `Timeline` is the one
implementation of the contract queries (accrued interest, dirty call and put
levels, the conversion window): it re-expresses the contract as year fractions
from an anchor date, and every query takes a whole grid of times.
`accrued_interest` at a date is a view of it.
"""

from __future__ import annotations

import bisect
import calendar
import json
import math
import numbers
from dataclasses import dataclass, field, replace
from datetime import date
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, DomainError, TermSheetError

__all__ = [
    "ConversionTerms",
    "CallTerms",
    "PutTerms",
    "ConvertibleTerms",
    "MarketParams",
    "year_fraction",
    "accrued_interest",
    "load_terms",
    "dump_terms",
    "terms_to_dict",
    "terms_from_dict",
    "reference_terms",
    "reference_market",
    "reference_terms_path",
]


def check_integer(value, what: str) -> int:
    """`value` as an int if it is a Python or numpy integer; a bool, a float
    (even 10.0) or a string is refused with an error naming `what`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigurationError(f"{what} must be an integer, got {value!r}")
    return int(value)


def check_real(value, what: str, lower: float | None = None, strict: bool = True) -> float:
    """`value` as a float if it is a finite Python or numpy real number above `lower` (or
    at it, if not `strict`); a bool, a string or None is refused with an error naming `what`."""
    try:
        x = float(value) if isinstance(value, numbers.Real) and not isinstance(value, bool) else math.nan
    except OverflowError:  # an int past the float range
        x = math.nan
    if not math.isfinite(x) or lower is not None and (x <= lower if strict else x < lower):
        bound = "" if lower is None else f" {'>' if strict else '>='} {lower:g}"
        raise ConfigurationError(f"{what} must be a finite real number{bound}, got {value!r}")
    return x


def year_fraction(d1: date, d2: date) -> float:
    """Year fraction between two dates, exact day count over 365."""
    if d1 > d2:
        raise DomainError(f"year_fraction: {d1} is after {d2}")
    return (d2 - d1).days / 365.0


def _add_months(d: date, months: int) -> date:
    """Shift a date by calendar months, clamping the day into the target month."""
    m = d.month - 1 + months
    y = d.year + m // 12
    m = m % 12 + 1
    return date(y, m, min(d.day, calendar.monthrange(y, m)[1]))


@dataclass(frozen=True)
class ConversionTerms:
    """Right to exchange the bond for `ratio` shares inside [start, end]."""

    ratio: float
    start: date
    end: date

    def __post_init__(self) -> None:
        object.__setattr__(self, "ratio", check_real(self.ratio, "conversion ratio", 0.0, strict=False))
        if self.start > self.end:
            raise ConfigurationError("conversion window start is after its end")


@dataclass(frozen=True)
class _ExerciseRight:
    """Right to exercise at a flat clean level inside [start, end]."""

    price: float
    start: date
    end: date

    def __post_init__(self) -> None:
        object.__setattr__(self, "price", check_real(self.price, f"{self._name} price", 0.0))
        if self.start > self.end:
            raise ConfigurationError(f"{self._name} window start is after its end")


class CallTerms(_ExerciseRight):
    """Issuer redemption right at a clean level inside [start, end]."""

    _name = "call"


class PutTerms(_ExerciseRight):
    """Holder sell-back right at a clean level inside [start, end]."""

    _name = "put"


@dataclass(frozen=True)
class ConvertibleTerms:
    """Full convertible-bond term sheet; `coupon_dates` is derived: ascending,
    12/frequency months apart, from the first after issue to maturity."""

    nominal: float
    issue: date
    maturity: date
    coupon_rate: float
    coupon_frequency: int
    conversion: ConversionTerms
    call: CallTerms | None = None
    put: PutTerms | None = None
    coupon_dates: tuple[date, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "nominal", check_real(self.nominal, "nominal", 0.0))
        object.__setattr__(self, "coupon_rate",
                           check_real(self.coupon_rate, "coupon rate", 0.0, strict=False))
        object.__setattr__(self, "coupon_frequency",
                           check_integer(self.coupon_frequency, "coupon_frequency"))
        if self.coupon_frequency < 1:
            raise ConfigurationError("coupon frequency must be >= 1 per year")
        if 12 % self.coupon_frequency != 0:
            raise ConfigurationError(f"frequency {self.coupon_frequency} does not divide the year evenly")
        if self.issue >= self.maturity:
            raise ConfigurationError("issue date must precede maturity")
        for name, window in (("conversion", self.conversion), ("call", self.call), ("put", self.put)):
            if window is None:
                continue
            if window.start < self.issue or window.end > self.maturity:
                raise ConfigurationError(f"{name} window must lie inside the bond life")
        step = 12 // self.coupon_frequency
        dates: list[date] = []
        d = self.maturity
        while d > self.issue:
            dates.append(d)
            d = _add_months(d, -step)
        if d != self.issue:
            raise ConfigurationError(
                f"coupon grid from {self.maturity} does not land on issue date {self.issue}"
            )
        object.__setattr__(self, "coupon_dates", tuple(reversed(dates)))

    @property
    def coupon_amount(self) -> float:
        """Cash paid per coupon date."""
        return self.nominal * self.coupon_rate / self.coupon_frequency

    def with_nominal_scaled(self, factor: float) -> "ConvertibleTerms":
        """Scale nominal (and with it the coupon), conversion ratio and call/put levels together."""
        return replace(
            self,
            nominal=self.nominal * factor,
            conversion=replace(self.conversion, ratio=self.conversion.ratio * factor),
            call=None if self.call is None else replace(self.call, price=self.call.price * factor),
            put=None if self.put is None else replace(self.put, price=self.put.price * factor),
        )


@dataclass(frozen=True)
class MarketParams:
    """Flat market inputs: risk-free rate, credit spread, stock volatility.

    Rates are continuously compounded per year; sigma is per sqrt(year).
    """

    rate: float
    credit_spread: float
    sigma: float

    def __post_init__(self) -> None:
        for f, lower in (("rate", None), ("credit_spread", None), ("sigma", 0.0)):
            object.__setattr__(self, f, check_real(getattr(self, f), f.replace("_", " "), lower))


# ---------------------------------------------------------------------------
# Engine-facing timeline (year-fraction coordinates)
# ---------------------------------------------------------------------------

_WINDOW_EPS = 1e-12  # fp guard when grid times land on window boundaries or pay dates


class Timeline:
    """Contract quantities re-expressed as year fractions from an anchor date.

    Pricing engines work in continuous time; all date arithmetic happens here,
    once, at construction.  Times before the anchor come out negative.
    """

    def __init__(self, terms: ConvertibleTerms, t0: date):
        if t0 < terms.issue or t0 >= terms.maturity:
            raise DomainError(f"anchor {t0} must satisfy issue <= t0 < maturity")
        self.terms = terms
        self.t0 = t0
        self.tau_maturity = year_fraction(t0, terms.maturity)
        self.ratio = terms.conversion.ratio
        self.nominal = terms.nominal
        self.coupon_amount = terms.coupon_amount

        to_tau = lambda d: (d - t0).days / 365.0
        # issue, then every coupon date: the accrual periods' bounds
        self._accrual_bounds = np.array([to_tau(d) for d in (terms.issue, *terms.coupon_dates)])
        self.coupon_taus = self._accrual_bounds[1:]
        self._conv_window = (to_tau(terms.conversion.start), to_tau(terms.conversion.end))
        self._call_window = None if terms.call is None else (to_tau(terms.call.start), to_tau(terms.call.end))
        self._put_window = None if terms.put is None else (to_tau(terms.put.start), to_tau(terms.put.end))
        self.redemption = terms.nominal + terms.coupon_amount

    def accrued(self, tau) -> np.ndarray:
        """Accrued interest at year-fraction times tau (1-D); piecewise linear."""
        tau = np.atleast_1d(np.asarray(tau, dtype=float))
        b = self._accrual_bounds
        if self.coupon_amount == 0.0:
            return np.zeros_like(tau)
        idx = np.clip(np.searchsorted(b, tau + _WINDOW_EPS, side="right") - 1, 0, len(b) - 2)
        frac = (tau - b[idx]) / (b[idx + 1] - b[idx])
        out = self.coupon_amount * np.clip(frac, 0.0, 1.0)
        # exact zero on boundaries (payment resets accrual); bounds are at least
        # a day apart, so any bound within eps of tau is one of its neighbours
        on_bound = (np.abs(tau - b[idx]) <= _WINDOW_EPS) | (np.abs(tau - b[idx + 1]) <= _WINDOW_EPS)
        return np.where(on_bound, 0.0, out)

    def _in_window(self, window, tau: np.ndarray) -> np.ndarray:
        if window is None:
            return np.zeros(tau.shape, dtype=bool)
        lo, hi = window
        return (tau >= lo - _WINDOW_EPS) & (tau <= hi + _WINDOW_EPS)

    def _dirty_levels(self, window, right, tau: np.ndarray, outside: float) -> np.ndarray:
        levels = np.full(tau.shape, outside)
        inside = self._in_window(window, tau)
        if inside.any():
            levels[inside] = right.price + self.accrued(tau[inside])
        return levels

    def call_dirty(self, tau) -> np.ndarray:
        """Dirty call level at tau: clean + accrued inside the window, +inf outside."""
        tau = np.atleast_1d(np.asarray(tau, dtype=float))
        return self._dirty_levels(self._call_window, self.terms.call, tau, np.inf)

    def put_dirty(self, tau) -> np.ndarray:
        """Dirty put level at tau: clean + accrued inside the window, 0 outside."""
        tau = np.atleast_1d(np.asarray(tau, dtype=float))
        return self._dirty_levels(self._put_window, self.terms.put, tau, 0.0)

    def conversion_active(self, tau) -> np.ndarray:
        """Boolean mask: is conversion permitted at each tau."""
        tau = np.atleast_1d(np.asarray(tau, dtype=float))
        return self._in_window(self._conv_window, tau)

    def coupon_injections(self, taus, risky_rate: float) -> dict[int, float]:
        """Cash coupons bucketed onto an ascending time grid that spans the life,
        as {grid index: amount}.

        Each coupon paid strictly inside (0, maturity) attaches to the first
        grid time at or after its pay date, compounded over the gap at the
        risky rate, so its present value at every earlier grid time is exact.
        The final coupon is part of the redemption amount.  `taus` is any
        ascending sequence of the grid's times, an array or one that computes
        them on demand: each coupon reads only the times its bisection visits.
        """
        inject: dict[int, float] = {}
        for tau_c in self.coupon_taus:
            if tau_c <= _WINDOW_EPS or tau_c >= self.tau_maturity - _WINDOW_EPS:
                continue
            j = bisect.bisect_left(taus, tau_c - _WINDOW_EPS)
            inject[j] = inject.get(j, 0.0) + self.coupon_amount * math.exp(risky_rate * (taus[j] - tau_c))
        return inject

    def risky_cash_pv(self, taus, risky_rate: float) -> np.ndarray:
        """PV at each tau of all remaining contractual cash (coupons + nominal) at risky_rate.

        A coupon falling exactly on tau counts as already paid.  Times are
        grouped by how many coupons are still to come, so each row sums the
        same terms in the same order as a single-time evaluation.
        """
        taus = np.atleast_1d(np.asarray(taus, dtype=float))
        pv = self.nominal * np.exp(-risky_rate * (self.tau_maturity - taus))
        # coupon times ascend, so the coupons still to come are a suffix: the rows
        # from coupon k on are those with first == k (a loop over the suffixes, since
        # np.unique would load numpy.ma, a megabyte, on its first call)
        n = len(self.coupon_taus)
        first = np.searchsorted(self.coupon_taus, taus + _WINDOW_EPS, side="right")
        for k in range(first.min(initial=n), n):
            rows = first == k
            if rows.any():  # one (rows, coupons) matrix: the gaps, then their discount factors
                gaps = self.coupon_taus[k:] - taus[rows, None]
                np.multiply(-risky_rate, gaps, out=gaps)
                pv[rows] += self.coupon_amount * np.exp(gaps, out=gaps).sum(axis=1)
        return pv


def accrued_interest(terms: ConvertibleTerms, t: date) -> float:
    """Coupon accrued at date t since the last coupon date (or issue), act/365
    pro-rata: `Timeline.accrued` at its own anchor, and zero at maturity, where
    the last coupon is paid.  DomainError outside [issue, maturity]."""
    if t == terms.maturity:
        return 0.0
    return float(Timeline(terms, t).accrued(0.0)[0])


# ---------------------------------------------------------------------------
# Term-sheet file format (key/value JSON, ISO-8601 dates)
# ---------------------------------------------------------------------------

def terms_to_dict(terms: ConvertibleTerms) -> dict:
    """Serialize a term sheet to the plain key/value form used on disk."""
    out: dict = {
        "nominal": terms.nominal,
        "coupon_rate": terms.coupon_rate,
        "coupon_frequency": terms.coupon_frequency,
        "issue_date": terms.issue.isoformat(),
        "maturity_date": terms.maturity.isoformat(),
        "conversion": {
            "ratio": terms.conversion.ratio,
            "start": terms.conversion.start.isoformat(),
            "end": terms.conversion.end.isoformat(),
        },
    }
    for name in ("call", "put"):
        right = getattr(terms, name)
        if right is not None:
            out[name] = {
                "price": right.price,
                "start": right.start.isoformat(),
                "end": right.end.isoformat(),
            }
    out["day_count"] = "ACT_365"
    return out


def terms_from_dict(data: dict) -> ConvertibleTerms:
    """Inverse of terms_to_dict; raises TermSheetError on malformed input."""
    try:
        issue = date.fromisoformat(data["issue_date"])
        maturity = date.fromisoformat(data["maturity_date"])
        conv = data["conversion"]
        conversion = ConversionTerms(
            ratio=conv["ratio"],
            start=date.fromisoformat(conv["start"]),
            end=date.fromisoformat(conv["end"]),
        )
        rights = {}
        for name, right in (("call", CallTerms), ("put", PutTerms)):
            r = data.get(name)
            rights[name] = None if r is None else right(
                price=r["price"],
                start=date.fromisoformat(r["start"]),
                end=date.fromisoformat(r["end"]),
            )
        if data.get("day_count", "ACT_365") != "ACT_365":
            raise ValueError(f"day count {data['day_count']!r} is not ACT_365")
        return ConvertibleTerms(
            nominal=data["nominal"],
            issue=issue,
            maturity=maturity,
            coupon_rate=data["coupon_rate"],
            coupon_frequency=data["coupon_frequency"],
            conversion=conversion,
            **rights,
        )
    except (KeyError, ValueError, TypeError) as exc:
        if isinstance(exc, ConfigurationError):
            raise
        raise TermSheetError(f"malformed term sheet: {exc}") from exc


def load_terms(path: str | Path) -> ConvertibleTerms:
    """Load a term sheet from a JSON file."""
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise TermSheetError(f"cannot read term sheet {path}: {exc}") from exc
    return terms_from_dict(data)


def dump_terms(terms: ConvertibleTerms, path: str | Path) -> None:
    """Write a term sheet as formatted JSON (round-trips losslessly)."""
    Path(path).write_text(json.dumps(terms_to_dict(terms), indent=2) + "\n")


# ---------------------------------------------------------------------------
# Reference instrument: 5y 4% semi-annual convertible, callable at 110 from
# year 2, conversion 1:1 over the whole life, act/365
# ---------------------------------------------------------------------------

def reference_terms_path() -> Path:
    """Location of the packaged reference term sheet."""
    return Path(__file__).parent / "data" / "tf_table1.json"


def reference_terms() -> ConvertibleTerms:
    """The reference convertible used throughout the docs, demos, and tests."""
    return load_terms(reference_terms_path())


def reference_market() -> MarketParams:
    """Flat market calibration that goes with the reference instrument."""
    return MarketParams(rate=0.05, credit_spread=0.02, sigma=0.30)
