"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  The Monte Carlo criterion reprices 10 x 10,000 scenarios
on 500-step trees and dominates the runtime (minutes on one core).
"""

import math
from datetime import date

import numpy as np
import pytest
from scipy import stats

from cblab import (
    ConversionTerms,
    ConvertibleTerms,
    FDGrid,
    MarketParams,
    VaRSpec,
    density_histogram,
    fd_profile,
    price_profile_raw,
    price_tf_crr,
    reference_market,
    reference_terms,
    revalue,
    simulate_stock,
    solve_tf_fd,
    stress_increments,
    surface,
    var_quantile,
)
from cblab.sensitivities import (
    local_extrema_count,
    monotonicity_violations,
    second_difference_sign_changes,
)
from cblab.termsheet import Timeline, year_fraction

TABLE1 = reference_terms()
MARKET = reference_market()
ISSUE = date(2002, 1, 2)
JAN2004 = date(2004, 1, 2)


def report(n: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {n} {'PASS' if ok else 'FAIL'}: {detail}")


def profile_values(t, grid, steps):
    return price_profile_raw(TABLE1, MARKET, t, grid, steps).value


def test_criterion_1_lattice_price_pathology():
    """Profile over [105,112] has genuine decreases; between 108 and 110 it is
    neither strictly monotone nor convex; same picture at 750 steps."""
    grid = np.round(np.arange(105.0, 112.0001, 0.1), 6)
    sub_mask = (grid >= 108.0 - 1e-9) & (grid <= 110.0 + 1e-9)
    results = {}
    for steps in (500, 750):
        v = profile_values(JAN2004, grid, steps)
        sub = v[sub_mask]
        results[steps] = dict(
            strict_decreases=monotonicity_violations(v),
            sub_nonstrict=int(np.sum(sub[1:] <= sub[:-1])),
            sub_d2_flips=second_difference_sign_changes(sub),
        )
    ok = all(
        r["strict_decreases"] >= 1 and r["sub_nonstrict"] >= 1 and r["sub_d2_flips"] >= 1
        for r in results.values()
    )
    report(1, ok, ", ".join(
        f"N={n}: {r['strict_decreases']} strict decreases in [105,112], "
        f"{r['sub_nonstrict']} strict-monotonicity violations and "
        f"{r['sub_d2_flips']} convexity flips in [108,110]"
        for n, r in results.items()
    ))
    for n, r in results.items():
        assert r["strict_decreases"] >= 1, f"N={n}: no strict decrease in [105,112]"
        assert r["sub_nonstrict"] >= 1, f"N={n}: strictly monotone inside [108,110]"
        assert r["sub_d2_flips"] >= 1, f"N={n}: convex inside [108,110]"


def test_criterion_2_greek_pathology():
    """Delta profile over [90,120] oscillates; the gamma series changes sign."""
    spots = np.round(np.arange(90.0, 120.0001, 0.1), 6)
    srf = surface(TABLE1, MARKET, [JAN2004], spots, 500)
    d, g = srf.delta[0], srf.gamma[0]
    extrema = local_extrema_count(d)
    gamma_flips = int(np.sum(g[1:] * g[:-1] < 0.0))
    ok = extrema >= 3 and gamma_flips >= 2
    report(2, ok, f"delta extrema={extrema} (span [{d.min():.3f},{d.max():.3f}]), "
                  f"gamma sign changes={gamma_flips} "
                  f"(gamma span [{g.min():.2e},{g.max():.2e}])")
    assert extrema >= 3
    assert gamma_flips >= 2


def test_criterion_3_hedge_stress_pathology():
    """Issue-date shock increments flip sign repeatedly and dwarf the Taylor
    scale implied by smooth-region curvature."""
    shock, S = 0.5, np.arange(50.0, 200.0 + 1e-9, 0.5)
    inc, _ = stress_increments(TABLE1, MARKET, ISSUE, S, shock, 500)
    sign_changes = int(np.sum(inc[1:] * inc[:-1] < 0.0))
    # smooth curvature at S=40 from a staircase-averaging stride
    hh = 5.0
    vp = price_tf_crr(TABLE1, MARKET, ISSUE, 40.0 + hh, 500).price
    v0 = price_tf_crr(TABLE1, MARKET, ISSUE, 40.0, 500).price
    vm = price_tf_crr(TABLE1, MARKET, ISSUE, 40.0 - hh, 500).price
    gamma_fd = (vp - 2 * v0 + vm) / hh**2
    bound = 0.5 * abs(gamma_fd) * shock**2
    callable_region = (S >= 90.0) & (S <= 140.0)
    spike = float(np.abs(inc[callable_region]).max())
    ok = sign_changes >= 5 and spike >= 10.0 * bound
    report(3, ok, f"sign changes={sign_changes}, max |increment| in callable region="
                  f"{spike:.4f} vs smooth Taylor bound {bound:.2e} "
                  f"(ratio {spike / bound:.0f}x)")
    assert sign_changes >= 5
    assert spike >= 10.0 * bound


def test_criterion_4_var_reproduction():
    """VaR(99%, 1d) lands in [0.9%, 1.4%] of V0 for ten seeds; the bond-value
    density piles mass into call-quantization spikes including one in the upper
    price region; the stock density is plain log-normal."""
    v0 = price_tf_crr(TABLE1, MARKET, JAN2004, 100.0, 500).price
    var_pcts = []
    first_values = None
    for seed in range(10):
        spec = VaRSpec(eval_date=JAN2004, spot=100.0, holding_days=1, confidence=0.99,
                       n_scenarios=10_000, drift=0.05, scen_sigma=0.30, seed=seed,
                       steps=500)
        scen = simulate_stock(spec)
        values = revalue(spec, TABLE1, MARKET, scen)
        if first_values is None:
            first_values = (scen, values)
        var_abs = var_quantile(values - v0, 0.01)
        var_pcts.append(var_abs / v0 * 100.0)
    in_band = [0.9 <= x <= 1.4 for x in var_pcts]

    scen, values = first_values
    vh = density_histogram(values, 100)
    counts, centers = vh.counts, vh.centers
    spikiness = counts.max() / np.median(counts[counts > 0])
    local_mean = np.convolve(counts, np.ones(9) / 9.0, mode="same")
    spike_ratio = counts / np.maximum(local_mean, 1.0)
    upper = centers >= vh.edges[0] + 0.75 * (vh.edges[-1] - vh.edges[0])
    upper_spike = float(spike_ratio[upper].max())
    upper_mode = bool(upper_spike >= 2.0)

    log_s = np.log(scen)
    mu = math.log(100.0) + (0.05 - 0.045) * (1 / 365)
    sd = 0.30 * math.sqrt(1 / 365)
    ks, _ = stats.kstest(log_s, "norm", args=(mu, sd))
    stock_lognormal = ks < 0.02

    ok = all(in_band) and spikiness >= 10.0 and upper_mode and stock_lognormal
    report(4, ok, f"VaR99 across seeds: [{min(var_pcts):.4f}%, {max(var_pcts):.4f}%], "
                  f"{sum(in_band)}/10 inside the [0.9%, 1.4%] band; bond-value "
                  f"density global spike {spikiness:.0f}x median bin, upper-region "
                  f"spike {upper_spike:.1f}x local mean; stock KS={ks:.4f}")
    assert all(in_band), f"VaR out of band: {var_pcts}"
    assert spikiness >= 10.0, "bond-value density lacks call-quantization spikes"
    assert upper_mode, "no mass concentration in the upper price region"
    assert stock_lognormal, "stock density departs from log-normal"


def test_criterion_5_oracle_contrast():
    """The PDE solution is monotone where the lattice is not, and the two
    methods agree at the spot to a half percent."""
    grid = np.round(np.arange(105.0, 112.0001, 0.1), 6)
    v_lat = profile_values(JAN2004, grid, 500)
    lat_strict = monotonicity_violations(v_lat)
    span = year_fraction(JAN2004, TABLE1.maturity)
    sol = solve_tf_fd(TABLE1, MARKET, JAN2004, FDGrid.auto(MARKET, span),
                      snapshot_dates=[JAN2004])
    v_fd = fd_profile(sol, JAN2004, grid)
    fd_viol = monotonicity_violations(v_fd, tol=1e-6)
    lat_100 = price_tf_crr(TABLE1, MARKET, JAN2004, 100.0, 500).price
    fd_100 = fd_profile(sol, JAN2004, [100.0])[0]
    rel = abs(lat_100 - fd_100) / fd_100
    ok = fd_viol == 0 and lat_strict >= 1 and rel < 5e-3
    report(5, ok, f"FD monotonicity violations={fd_viol} (tol 1e-6), lattice strict "
                  f"decreases={lat_strict}, |lattice-FD|/FD at S=100: {rel:.2e}")
    assert fd_viol == 0
    assert lat_strict >= 1
    assert rel < 5e-3


def test_criterion_6_exact_property_suite():
    """Machine-precision identities: split sum, degenerate closed forms, the
    zero-spread reduction, exact expiry, determinism, and the quantile oracle."""
    from cblab import rollback_batch

    failures = []

    res = rollback_batch(TABLE1, MARKET, JAN2004, np.array([70.0, 100.0, 109.0]), 400,
                         front_layers=2)
    if not np.array_equal(res.fronts[0][:, 0], res.equity + res.debt):
        failures.append("E + B != V at the root")

    issue, maturity = date(2002, 1, 2), date(2007, 1, 2)
    straight = ConvertibleTerms(
        nominal=100.0, issue=issue, maturity=maturity,
        coupon_rate=0.0, coupon_frequency=2,
        conversion=ConversionTerms(0.0, issue, maturity),
    )
    horizon = 1826 / 365.0
    closed = 100.0 * math.exp(-0.07 * horizon)
    lat = price_tf_crr(straight, MARKET, issue, 100.0, 500).price
    if abs(lat - closed) / closed > 1e-10:
        failures.append(f"lattice straight bond off by {abs(lat - closed) / closed:.2e}")
    sol = solve_tf_fd(straight, MARKET, issue, FDGrid.auto(MARKET, horizon))
    fd_err = max(
        abs(fd_profile(sol, issue, [s])[0] - closed) / closed for s in (50.0, 100.0, 300.0)
    )
    if fd_err > 1e-6:
        failures.append(f"FD straight bond off by {fd_err:.2e}")

    mkt0 = MarketParams(rate=0.05, credit_spread=0.0, sigma=0.30)
    tl = Timeline(TABLE1, JAN2004)
    steps = 400
    taus = tl.tau_maturity * np.arange(steps + 1) / steps
    dt = tl.tau_maturity / steps
    u = math.exp(0.30 * math.sqrt(dt))
    p = (math.exp(0.05 * dt) - 1 / u) / (u - 1 / u)
    disc = math.exp(-0.05 * dt)
    call = tl.call_dirty(taus)
    inject = np.zeros(steps + 1)
    for tc in tl.coupon_taus:
        if 1e-12 < tc < tl.tau_maturity - 1e-12:
            j = int(np.searchsorted(taus, tc - 1e-12, side="left"))
            inject[j] += tl.coupon_amount * math.exp(0.05 * (taus[j] - tc))
    v = np.maximum(100.0 * u ** (2.0 * np.arange(steps + 1) - steps), tl.redemption)
    for i in range(steps - 1, -1, -1):
        v = disc * (p * v[1:] + (1 - p) * v[:-1]) + inject[i]
        conv = 100.0 * u ** (2.0 * np.arange(i + 1) - i)
        v = np.maximum(np.minimum(v, call[i]), conv)
    engine0 = price_tf_crr(TABLE1, mkt0, JAN2004, 100.0, steps).price
    if abs(engine0 - float(v[0])) / float(v[0]) > 1e-10:
        failures.append("zero-spread reduction mismatch")

    # 8 steps over 3y keeps every coupon date strictly before the final layer
    term = rollback_batch(TABLE1, MARKET, JAN2004, np.array([1.0, 100.0, 400.0]), 8,
                          front_layers=8)
    lp = term.params
    s_t = np.array([1.0, 100.0, 400.0])[:, None] * lp.up ** (2.0 * np.arange(9) - 8)
    expect_v = np.maximum(s_t, 102.0)
    if not np.array_equal(term.fronts[8], expect_v):
        failures.append("terminal payoff not exact")

    a = price_tf_crr(TABLE1, MARKET, JAN2004, 103.7, 500)
    b = price_tf_crr(TABLE1, MARKET, JAN2004, 103.7, 500)
    if not (a.price == b.price and a.node == b.node):
        failures.append("pricing not deterministic")
    sa = simulate_stock(VaRSpec(eval_date=JAN2004, spot=100.0, seed=5, n_scenarios=64))
    sb = simulate_stock(VaRSpec(eval_date=JAN2004, spot=100.0, seed=5, n_scenarios=64))
    if not np.array_equal(sa, sb):
        failures.append("scenario stream not deterministic")

    hand_cases = [
        ([-5.0, -1.0, 0.0, 2.0, 3.0], 0.2, 5.0),
        ([4.0, -7.0, 2.0, 0.0, 1.0, -2.0, 9.0, 3.0], 0.25, 2.0),
        ([1.5] * 6, 0.5, -1.5),
    ]
    for pnl, alpha, expected in hand_cases:
        sorted_oracle = -sorted(pnl)[max(math.ceil(alpha * len(pnl)), 1) - 1]
        if not (var_quantile(pnl, alpha) == expected == sorted_oracle):
            failures.append(f"quantile mismatch on {pnl}")

    report(6, not failures, "all exact identities hold" if not failures
           else "; ".join(failures))
    assert not failures


def test_criterion_7_convergence_telemetry():
    """Root price vs step count: differences shrink but keep oscillating."""
    steps_grid = (50, 100, 200, 400, 800)
    prices = {n: price_tf_crr(TABLE1, MARKET, ISSUE, 100.0, n).price for n in steps_grid}
    diffs = [prices[b] - prices[a] for a, b in zip(steps_grid, steps_grid[1:])]
    band = max(prices.values()) - min(prices.values())
    early = max(abs(d) for d in diffs[:2])
    late = max(abs(d) for d in diffs[-2:])
    nonvanishing = min(abs(d) for d in diffs) > 1e-6
    oscillating = any(d1 * d2 < 0 for d1, d2 in zip(diffs, diffs[1:]))
    ok = late < early and nonvanishing and oscillating
    detail = ", ".join(f"N={n}: {prices[n]:.6f}" for n in steps_grid)
    report(7, ok, f"{detail}; successive diffs "
                  f"{['%+.4f' % d for d in diffs]}, oscillation band {band:.4f}")
    assert late < early, "differences do not shrink"
    assert nonvanishing, "differences vanish: no persistent misbehavior to report"
    assert oscillating, "no sign alternation in the convergence"
