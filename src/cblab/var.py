"""Monte Carlo Value-at-Risk with full lattice repricing of every scenario.

Scenario generation draws log-normal stock prices at the horizon from a
counter-based Philox-2x64-10 stream, mapped to normals through the inverse
normal CDF `ndtri`.  Both are implemented here, so the scenario bits are pinned
by this file and its golden tests, independent of any library's RNG policy:
`ndtri` is the Cephes algorithm as scipy 1.17 runs it, bit for bit, with its two
logarithms taken by libm (`math.log`).  Each scenario is repriced on its own
full tree at the horizon date; the loss quantile is read from the sorted P&L
without interpolation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from datetime import date, timedelta

import numpy as np

from .errors import ConfigurationError, DomainError
from .lattice import check_steps, price_tf_crr, rollback_batch
from .reports import format_number
from .termsheet import ConvertibleTerms, MarketParams, check_integer, check_real

__all__ = [
    "VaRSpec",
    "VaRResult",
    "Histogram",
    "philox_uniforms",
    "ndtri",
    "simulate_stock",
    "revalue",
    "var_quantile",
    "density_histogram",
    "run_var",
]

# Philox-2x64 constants (multiplier and Weyl key increment)
_PHILOX_M = np.uint64(0xD2B74407B1CE6E93)
_PHILOX_W = np.uint64(0x9E3779B97F4A7C15)
_MASK32 = np.uint64(0xFFFFFFFF)
_ROUNDS = 10
HIST_BINS = 100  # bins of the stock and bond-value densities
MAX_SCENARIOS = 10**7  # the most scenarios a run draws, as many as cli.MAX_SPOT_POINTS

# Cephes `ndtri` constants: sqrt(2 pi), exp(-2), and the rational approximations'
# coefficients, highest power first (central branch P0/Q0; tails P1/Q1 below
# x = 8, P2/Q2 from 8 on).  The Q polynomials are monic, their leading 1 implied.
_S2PI = 2.50662827463100050242e0
_EXP_M2 = 0.13533528323661269189
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
       1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _mulhilo64(a: np.ndarray, b: np.uint64) -> tuple[np.ndarray, np.ndarray]:
    """Full 128-bit product of uint64s as (high, low) words, via 32-bit limbs."""
    lo = a * b
    a0, a1 = a & _MASK32, a >> np.uint64(32)
    b0, b1 = b & _MASK32, b >> np.uint64(32)
    t = a1 * b0 + ((a0 * b0) >> np.uint64(32))
    s = a0 * b1 + (t & _MASK32)
    hi = a1 * b1 + (t >> np.uint64(32)) + (s >> np.uint64(32))
    return hi, lo


def _check_seed(seed) -> int:
    """A Philox seed as an int: an integer (`check_integer`) in [0, 2**64),
    the key's one 64-bit word."""
    seed = check_integer(seed, "seed")
    if not 0 <= seed < 2**64:
        raise ConfigurationError(f"seed must be in [0, 2**64), got {seed}")
    return seed


def philox_uniforms(seed: int, n: int) -> np.ndarray:
    """n uniforms in the open interval (0,1) from Philox-2x64-10 keyed by seed.

    Counter blocks 0,1,2,... each yield two output words; word w maps to
    ((w >> 11) + 0.5) * 2**-53.  Pure function of (seed, n): the stream is
    identical on every platform and library version.  The seed is the key,
    one 64-bit word: an integer in [0, 2**64), so no two seeds share a stream.
    """
    seed, n = _check_seed(seed), check_integer(n, "uniform count")
    if n < 1:
        raise DomainError("need n >= 1 uniforms")
    blocks = (n + 1) // 2
    x0 = np.arange(blocks, dtype=np.uint64)
    x1 = np.zeros(blocks, dtype=np.uint64)
    # 1-element array, not scalar: numpy scalars warn on wrap-around adds
    key = np.full(1, seed, dtype=np.uint64)
    for _ in range(_ROUNDS):
        hi, lo = _mulhilo64(x0, _PHILOX_M)
        x0 = hi ^ key ^ x1
        x1 = lo
        key = key + _PHILOX_W
    words = np.empty(2 * blocks, dtype=np.uint64)
    words[0::2] = x0
    words[1::2] = x1
    return ((words[:n] >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53


def _polevl(x: np.ndarray, coef: tuple) -> np.ndarray:
    """Horner from the first coefficient: a = c0; a = a*x + c_k."""
    a = coef[0]
    for c in coef[1:]:
        a = a * x + c
    return a


def _p1evl(x: np.ndarray, coef: tuple) -> np.ndarray:
    """Horner for a monic polynomial: a = x + c0; a = a*x + c_k."""
    a = x + coef[0]
    for c in coef[1:]:
        a = a * x + c
    return a


def _libm_log(x: np.ndarray) -> np.ndarray:
    """Elementwise `math.log`: numpy's own log loop can differ in the last bit."""
    return np.fromiter(map(math.log, x.tolist()), dtype=np.float64, count=x.size)


def ndtri(u) -> np.ndarray:
    """Inverse standard normal CDF, elementwise: the Cephes algorithm with
    scipy's operation order, so the bits equal `scipy.special.ndtri`.

    Only IEEE basic operations and `sqrt` run in numpy, which rounds them as C
    does; the logarithms go through libm.  0 maps to -inf, 1 to inf, and
    anything outside [0, 1] to nan.
    """
    u = np.asarray(u, dtype=np.float64)
    out = np.where(u == 0.0, -np.inf, np.where(u == 1.0, np.inf, np.nan))
    inside = (u > 0.0) & (u < 1.0)
    upper = u > 1.0 - _EXP_M2
    y = np.where(upper, 1.0 - u, u)
    central = inside & (y > _EXP_M2)
    yc = y[central] - 0.5
    y2 = yc * yc
    out[central] = (yc + yc * (y2 * _polevl(y2, _P0) / _p1evl(y2, _Q0))) * _S2PI
    tail = inside & ~central
    x = np.sqrt(-2.0 * _libm_log(y[tail]))
    x0 = x - _libm_log(x) / x
    z = 1.0 / x
    x1 = np.where(x < 8.0, z * _polevl(z, _P1) / _p1evl(z, _Q1),
                  z * _polevl(z, _P2) / _p1evl(z, _Q2))
    x = x0 - x1
    out[tail] = np.where(upper[tail], x, -x)
    return out


@dataclass(frozen=True)
class VaRSpec:
    """Scenario-generation and repricing parameters for one VaR run."""

    eval_date: date
    spot: float
    holding_days: int = 1
    confidence: float = 0.99
    n_scenarios: int = 10_000
    drift: float = 0.05
    scen_sigma: float = 0.30
    seed: int = 0
    steps: int = 500

    def __post_init__(self) -> None:
        for field in ("holding_days", "n_scenarios"):
            object.__setattr__(self, field, check_integer(getattr(self, field), field))
        object.__setattr__(self, "seed", _check_seed(self.seed))  # at construction, not at the draw
        # before any draw: the trees are built only after every scenario is simulated
        object.__setattr__(self, "steps", check_steps(self.steps))
        for field, what, lower, strict in (("confidence", "confidence", None, True),
                                           ("drift", "drift", None, True),
                                           ("scen_sigma", "scenario volatility", 0.0, False),
                                           ("spot", "spot", 0.0, True)):
            object.__setattr__(self, field, check_real(getattr(self, field), what, lower, strict))
        if not 0.0 < self.confidence < 1.0:
            raise ConfigurationError("confidence must be in (0,1)")
        if self.n_scenarios < 1:
            raise ConfigurationError("need at least one scenario")
        if self.n_scenarios > MAX_SCENARIOS:  # before philox_uniforms allocates them
            raise ConfigurationError(f"{self.n_scenarios:,} scenarios exceed the limit "
                                     f"of {MAX_SCENARIOS:,}")
        if self.holding_days <= 0:
            raise ConfigurationError("holding period must be positive")

    @property
    def horizon_years(self) -> float:
        return self.holding_days / 365.0

    @property
    def horizon_date(self) -> date:
        return self.eval_date + timedelta(days=self.holding_days)


@dataclass(frozen=True)
class Histogram:
    """Equal-width histogram; the top edge is inclusive."""

    edges: np.ndarray
    counts: np.ndarray

    @property
    def centers(self) -> np.ndarray:
        return 0.5 * (self.edges[:-1] + self.edges[1:])


@dataclass(frozen=True)
class VaRResult:
    """Everything one VaR run produced, quantile and distributions included."""

    spec: VaRSpec
    value0: float
    scenario_spots: np.ndarray
    scenario_values: np.ndarray
    pnl: np.ndarray
    var_abs: float
    var_pct: float
    stock_hist: Histogram
    value_hist: Histogram

    def report_lines(self) -> list[str]:
        """Structured text record: spec echo, V0, VaR, histogram arrays."""
        lines = [f"{f.name}: {format_number(getattr(self.spec, f.name))}"
                 for f in fields(self.spec)]
        lines += [f"{k}: {format_number(getattr(self, k))}" for k in ("value0", "var_abs", "var_pct")]
        for name in ("stock_hist", "value_hist"):
            hist = getattr(self, name)
            lines += [f"{name}_edges: " + " ".join(map(format_number, hist.edges)),
                      f"{name}_counts: " + " ".join(map(format_number, hist.counts))]
        return lines


def simulate_stock(spec: VaRSpec) -> np.ndarray:
    """Horizon stock prices S0 * exp((mu - sigma^2/2) h + sigma sqrt(h) Z)
    with Z from the seeded Philox stream; bit-reproducible."""
    u = philox_uniforms(spec.seed, spec.n_scenarios)
    z = ndtri(u)
    h = spec.horizon_years
    try:
        with np.errstate(over="ignore"):  # an overflow is refused just below
            drift_term = (spec.drift - 0.5 * spec.scen_sigma**2) * h
            s = spec.spot * np.exp(drift_term + spec.scen_sigma * math.sqrt(h) * z)
        if np.all((s > 0) & (s < np.inf)):
            return s
    except OverflowError:  # scen_sigma**2 past the float range
        pass
    raise ConfigurationError(f"scenario drift {spec.drift:g} and volatility {spec.scen_sigma:g} "
                             "take a horizon stock price out of (0, inf)")


def revalue(
    spec: VaRSpec, terms: ConvertibleTerms, mkt: MarketParams, scenarios: np.ndarray
) -> np.ndarray:
    """Reprice every scenario spot at the horizon date on its own tree."""
    return rollback_batch(terms, mkt, spec.horizon_date, scenarios, spec.steps).value


def var_quantile(pnl, alpha: float) -> float:
    """Loss quantile: sort P&L ascending and negate the ceil(alpha*n)-th order
    statistic (1-based).  No interpolation."""
    x = np.sort(np.asarray(pnl, dtype=float))
    if x.size == 0:
        raise DomainError("P&L sample is empty")
    if not 0.0 < alpha < 1.0:
        raise DomainError("alpha must be in (0,1)")
    k = max(math.ceil(alpha * x.size), 1)
    return float(-x[k - 1])


def density_histogram(values, bins: int) -> Histogram:
    """Equal-width histogram over [min, max]; counts sum to len(values)."""
    if bins < 1:
        raise DomainError("need at least one bin")
    values = np.asarray(values, dtype=float)
    counts, edges = np.histogram(values, bins=bins)
    return Histogram(edges=edges, counts=counts)


def run_var(spec: VaRSpec, terms: ConvertibleTerms, mkt: MarketParams) -> VaRResult:
    """Full VaR experiment: simulate, reprice, take the loss quantile, and
    build the stock / bond-value densities."""
    # compared in days, so no horizon date past the calendar is ever formed
    if spec.holding_days >= (terms.maturity - spec.eval_date).days:
        raise ConfigurationError(
            f"holding period of {spec.holding_days} days from {spec.eval_date} "
            f"does not end before maturity {terms.maturity}")
    scen = simulate_stock(spec)
    v_h = revalue(spec, terms, mkt, scen)
    v0 = price_tf_crr(terms, mkt, spec.eval_date, spec.spot, spec.steps).price
    pnl = v_h - v0
    var_abs = var_quantile(pnl, 1.0 - spec.confidence)
    return VaRResult(
        spec=spec,
        value0=v0,
        scenario_spots=scen,
        scenario_values=v_h,
        pnl=pnl,
        var_abs=var_abs,
        var_pct=var_abs / v0 * 100.0,
        stock_hist=density_histogram(scen, HIST_BINS),
        value_hist=density_histogram(v_h, HIST_BINS),
    )
