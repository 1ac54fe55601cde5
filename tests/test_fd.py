"""Explicit finite-difference solver: stability, boundary handling, reductions,
and agreement with the lattice."""

import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from datetime import date
from pathlib import Path

import numpy as np
import pytest

from cblab import (
    ConfigurationError,
    ConversionTerms,
    ConvertibleTerms,
    DomainError,
    FDGrid,
    MarketParams,
    NumericalError,
    PutTerms,
    fd,
    fd_profile,
    price_tf_crr,
    solve_tf_fd,
)
from cblab.fd import MAX_FD_LAYERS, MAX_FD_NODES, stable_time_layers
from cblab.termsheet import Timeline, year_fraction


def straight_bond(rate=0.0):
    issue, maturity = date(2002, 1, 2), date(2007, 1, 2)
    return ConvertibleTerms(
        nominal=100.0, issue=issue, maturity=maturity,
        coupon_rate=rate, coupon_frequency=2,
        conversion=ConversionTerms(0.0, issue, maturity),
    )


class TestGrid:
    def test_stability_bound_enforced(self, market):
        horizon = 3.0
        n_t = stable_time_layers(market.sigma, 0.07, horizon, 400.0, 401)
        FDGrid(s_max=400.0, n_s=401, n_t=n_t).check_stability(market, horizon)
        with pytest.raises(ConfigurationError):
            FDGrid(s_max=400.0, n_s=401, n_t=n_t // 2).check_stability(market, horizon)

    @pytest.mark.parametrize("sigma", [1e-300, 1e-170, 1e-160, 1e200])
    def test_no_finite_step_bound_rejected(self, sigma):
        # sigma^2 * S_max^2 underflows to 0, to a subnormal whose step bound
        # overflows, or overflows itself so that the bound is 0
        mkt = MarketParams(rate=0.0, credit_spread=0.0, sigma=sigma)
        with pytest.raises(ConfigurationError, match="no positive, finite stable time step"):
            FDGrid.auto(mkt, 3.0)
        with pytest.raises(ConfigurationError, match="no positive, finite stable time step"):
            FDGrid(s_max=400.0, n_s=401, n_t=100).check_stability(mkt, 3.0)

    def test_auto_grid_minimal(self, market):
        grid = FDGrid.auto(market, 3.0)
        grid.check_stability(market, 3.0)
        assert grid.ds == pytest.approx(1.0)

    def test_degenerate_grids_rejected(self):
        with pytest.raises(ConfigurationError):
            FDGrid(s_max=400.0, n_s=2, n_t=100)
        with pytest.raises(ConfigurationError):
            FDGrid(s_max=0.0, n_s=11, n_t=100)
        for s_max in (math.nan, math.inf):
            with pytest.raises(ConfigurationError):
                FDGrid(s_max=s_max, n_s=11, n_t=100)
        with pytest.raises(ConfigurationError, match="at least 2 time layers"):
            FDGrid(s_max=400.0, n_s=11, n_t=1)
        with pytest.raises(ConfigurationError, match="10,000,001 time layers exceed the limit"):
            FDGrid(s_max=400.0, n_s=11, n_t=MAX_FD_LAYERS + 1)
        FDGrid(s_max=400.0, n_s=11, n_t=MAX_FD_LAYERS)
        with pytest.raises(ConfigurationError, match="100,001 spot nodes exceed the limit"):
            FDGrid(s_max=400.0, n_s=MAX_FD_NODES + 1, n_t=100)
        FDGrid(s_max=400.0, n_s=MAX_FD_NODES, n_t=100)
        # node and layer counts are integers, refused with the grid, not in the march
        with pytest.raises(ConfigurationError, match=r"^n_s must be an integer, got 41\.5$"):
            FDGrid(400.0, 41.5, 2000)
        with pytest.raises(ConfigurationError, match=r"^n_t must be an integer, got 2000\.5$"):
            FDGrid(400.0, 41, 2000.5)
        mkt = MarketParams(rate=0.05, credit_spread=0.02, sigma=0.3)
        with pytest.raises(ConfigurationError, match=r"^n_s must be an integer, got 41\.0$"):
            FDGrid.auto(mkt, 1.0, n_s=41.0)
        grid = FDGrid(400.0, np.int64(41), np.int32(2000))
        assert (type(grid.n_s), type(grid.n_t)) == (int, int)

    @pytest.mark.parametrize("s_max", [True, "400.0"], ids=["bool", "str"])
    def test_s_max_must_be_a_real_number(self, s_max):
        with pytest.raises(ConfigurationError, match="^s_max must be a finite real number > 0, got "):
            FDGrid(s_max=s_max, n_s=11, n_t=100)
        assert type(FDGrid(s_max=400, n_s=11, n_t=100).s_max) is float

    @pytest.mark.parametrize("sigma, n_s, layers", [
        (0.30, 10**8, "2.7e+15"),
        (30.0, 401, "4.32e+08"),
        (0.30, 4 * 10**157, "inf"),  # the layer count overflows the float range
    ], ids=["fine-spot-grid", "high-vol", "overflowing-count"])
    def test_auto_grid_layer_count_capped(self, sigma, n_s, layers):
        """The auto grid's layer count is refused before any per-layer array
        exists (2.7e15 layers would need petabytes)."""
        mkt = MarketParams(rate=0.05, credit_spread=0.02, sigma=sigma)
        with pytest.raises(ConfigurationError, match=re.escape(f"needs {layers} time layers, more than 10,000,000")):
            FDGrid.auto(mkt, 3.0, n_s=n_s)


class TestStraightBondReduction:
    def test_zero_coupon_uniform_closed_form(self, market, issue):
        terms = straight_bond()
        span = year_fraction(issue, terms.maturity)
        grid = FDGrid.auto(market, span)
        sol = solve_tf_fd(terms, market, issue, grid)
        for i, tau in enumerate(sol.layer_taus):
            expected = 100.0 * math.exp(-0.07 * (span - tau))
            err = np.max(np.abs(sol.value[i] - expected)) / expected
            assert err < 1e-6
            assert np.max(np.abs(sol.equity[i])) < 1e-6 * expected


def single_equation_march(terms, t0, n_t):
    """rc = 0 collapses the pair to one equation: march V alone on the whole-grid
    inputs (`np.linspace` times, coupons bucketed by `np.searchsorted`) with the
    solver's stencil and constraints, on 101 spot nodes; returns the t0 layer."""
    span = year_fraction(t0, terms.maturity)
    tl = Timeline(terms, t0)
    n_s = 101
    S = np.linspace(0.0, 400.0, n_s)
    taus = np.linspace(0.0, span, n_t)
    dt = span / (n_t - 1)
    ds = 400.0 / (n_s - 1)
    S_int = S[1:-1]
    a = 0.5 * 0.09 * S_int**2 / ds**2
    b = 0.05 * S_int / (2 * ds)
    cu, cd = dt * (a + b), dt * (a - b)
    cm = 1.0 - dt * (2 * a + 0.05)
    call = tl.call_dirty(taus)
    conv_on = tl.conversion_active(taus)
    inject = np.zeros(n_t)
    for tc in tl.coupon_taus:
        if tc <= 1e-12 or tc >= span - 1e-12:
            continue
        j = int(np.searchsorted(taus, tc - 1e-12, side="left"))
        inject[j] += tl.coupon_amount * math.exp(0.05 * (taus[j] - tc))
    debt = tl.risky_cash_pv(taus, 0.05)
    conv_T = np.where(conv_on[n_t - 1], S, 0.0)
    v = np.maximum(conv_T, tl.redemption)
    for m in range(n_t - 2, -1, -1):
        v_new = np.empty_like(v)
        v_new[1:-1] = cu * v[2:] + cm * v[1:-1] + cd * v[:-2]
        v = v_new
        if inject[m] != 0.0:
            v[1:-1] += inject[m]
        v[0] = max(0.0, debt[m])
        v[-1] = max(400.0, debt[m])
        conv = np.where(conv_on[m], S[1:-1], 0.0)
        v[1:-1] = np.maximum(np.minimum(v[1:-1], call[m]), conv)
    return v


ZERO_SPREAD = MarketParams(rate=0.05, credit_spread=0.0, sigma=0.30)


class TestZeroSpreadReduction:
    def test_matches_single_equation_roller(self, table1, jan2004):
        """rc = 0 collapses the pair to one equation; march V alone with the
        same stencil and constraints and compare."""
        span = year_fraction(jan2004, table1.maturity)
        grid = FDGrid(s_max=400.0, n_s=101, n_t=stable_time_layers(0.30, 0.05, span, 400.0, 101))
        sol = solve_tf_fd(table1, ZERO_SPREAD, jan2004, grid, snapshot_dates=[jan2004])
        v = single_equation_march(table1, jan2004, grid.n_t)
        # compare the t0 layer
        idx = int(np.argmin(np.abs(sol.layer_taus - 0.0)))
        assert np.max(np.abs(sol.value[idx] - v)) < 1e-8


@pytest.fixture(scope="module")
def solved(table1, market, jan2004):
    span = year_fraction(jan2004, table1.maturity)
    grid = FDGrid.auto(market, span)
    return solve_tf_fd(table1, market, jan2004, grid, snapshot_dates=[jan2004]), span


class TestSolutionShape:
    def test_split_identity_everywhere(self, solved):
        sol, _ = solved
        assert np.array_equal(sol.value, sol.equity + sol.debt)
        assert np.all(sol.value >= 0.0)
        assert np.all(sol.debt >= -1e-12)
        assert np.all(np.isfinite(sol.value))

    def test_terminal_layer_exact(self, solved, table1):
        sol, span = solved
        i = int(np.argmin(np.abs(sol.layer_taus - span)))
        S = sol.spots
        expected_v = np.maximum(S, 102.0)  # ratio 1, redemption = nominal + final coupon
        assert np.array_equal(sol.value[i], expected_v)
        assert np.array_equal(sol.debt[i], np.where(S > 102.0, 0.0, 102.0))

    def test_profile_exact_at_grid_nodes(self, solved, table1, jan2004):
        sol, _ = solved
        idx = int(np.argmin(np.abs(sol.layer_taus)))
        v = fd_profile(sol, jan2004, [100.0, 250.0])
        assert v[0] == sol.value[idx][100]
        assert v[1] == sol.value[idx][250]

    def test_profile_linear_interpolation(self, solved, jan2004):
        sol, _ = solved
        idx = int(np.argmin(np.abs(sol.layer_taus)))
        v, = fd_profile(sol, jan2004, [100.5])
        assert v == pytest.approx(0.5 * (sol.value[idx][100] + sol.value[idx][101]), rel=1e-14)

    @pytest.mark.parametrize("day", [date(2003, 12, 31), date(2007, 1, 3)],
                             ids=["before-t0", "after-maturity"])
    def test_snapshot_outside_the_span_refused(self, table1, market, jan2004, day):
        grid = FDGrid.auto(market, year_fraction(jan2004, table1.maturity), n_s=5)
        with pytest.raises(DomainError, match=f"snapshot date {day} outside"):
            solve_tf_fd(table1, market, jan2004, grid, snapshot_dates=[jan2004, day])

    @pytest.mark.parametrize("n_s, n_t, coupon", [(3, 4, 6.44), (5, 9, 2.07)])
    def test_coupons_bucketed_into_the_expiry_layer(self, table1, market, issue, n_s, n_t, coupon):
        """On a coarse grid, coupons paid after the last interior layer land in
        the expiry layer as cash whether the node redeems or converts."""
        span = year_fraction(issue, table1.maturity)
        grid = FDGrid.auto(market, span, n_s=n_s)
        assert grid.n_t == n_t
        sol = solve_tf_fd(table1, market, issue, grid)
        taus = np.linspace(0.0, span, n_t)
        c = Timeline(table1, issue).coupon_injections(taus, market.rate + market.credit_spread)[n_t - 1]
        assert c == pytest.approx(coupon, abs=5e-3)
        S = sol.spots  # ratio 1, redemption = nominal + final coupon = 102
        assert sol.layer_taus[-1] == span
        assert np.array_equal(sol.value[-1], np.maximum(S, 102.0) + c)
        assert np.array_equal(sol.debt[-1], np.where(S > 102.0, 0.0, 102.0) + c)

    def test_profile_refuses_extrapolation(self, solved, jan2004, table1):
        sol, _ = solved
        with pytest.raises(DomainError):
            fd_profile(sol, jan2004, [401.0])
        with pytest.raises(DomainError):
            fd_profile(sol, date(2003, 12, 31), [100.0])

    def test_profile_refuses_unstored_dates(self, table1, market, jan2004):
        """A date more than half a marched step from every stored layer was not
        stored; reading the nearest layer (t0 or expiry) would be silently stale."""
        grid = FDGrid.auto(market, year_fraction(jan2004, table1.maturity), n_s=101)
        sol = solve_tf_fd(table1, market, jan2004, grid, snapshot_dates=[jan2004])
        for day in (date(2005, 6, 1), date(2006, 6, 1)):
            with pytest.raises(DomainError, match=f"date {day} has no stored layer"):
                fd_profile(sol, day, [100.0])
        assert fd_profile(sol, jan2004, [100.0])[0] == sol.value[0][25]
        assert fd_profile(sol, table1.maturity, [100.0])[0] == sol.value[-1][25]
        # the same date, stored, is read from its own layer
        sol = solve_tf_fd(table1, market, jan2004, grid, snapshot_dates=[date(2005, 6, 1)])
        assert fd_profile(sol, date(2005, 6, 1), [100.0])[0] == sol.value[1][25]

    def test_profile_refuses_non_finite_spots(self, solved, jan2004):
        """A NaN spot fails both range comparisons, so it is refused by name."""
        sol, _ = solved
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError, match="^spot prices must be finite$"):
                fd_profile(sol, jan2004, [100.0, bad])

    @pytest.mark.parametrize("spots, msg", [
        (True, "got dtype bool"), ("100", "got dtype <U3"), ([100.0, None], "got dtype object"),
        (np.array([True]), "got dtype bool"), ([100.0, True], "got a bool among them"),
        ([[100.0], [np.False_]], "got a bool among them"),
    ], ids=["true", "str", "none", "numpy_bool", "bool_among_floats", "nested_numpy_bool"])
    def test_profile_refuses_spots_that_are_not_numbers(self, solved, jan2004, spots, msg):
        """The engine's dtype rule: True used to read as S = 1.0 and '100' as 100."""
        sol, _ = solved
        with pytest.raises(DomainError, match=f"^spot prices must be integer or float numbers, {msg}$"):
            fd_profile(sol, jan2004, spots)

    def test_profile_reads_both_grid_ends(self, solved, jan2004):
        """S = 0 and S_max are grid nodes, so unlike the tree's spots they are read,
        and integer spots read as the equal floats."""
        sol, _ = solved
        idx = int(np.argmin(np.abs(sol.layer_taus)))
        assert fd_profile(sol, jan2004, [0.0, 400.0]).tolist() == [sol.value[idx][0],
                                                                   sol.value[idx][-1]]
        assert fd_profile(sol, jan2004, [0, 100, 400]).tolist() == fd_profile(
            sol, jan2004, [0.0, 100.0, 400.0]).tolist()

    def test_monotone_profile_where_lattice_oscillates(self, solved, jan2004):
        sol, _ = solved
        spots = np.round(np.arange(105.0, 112.0001, 0.1), 6)
        v = fd_profile(sol, jan2004, spots)
        assert np.all(v[1:] >= v[:-1] - 1e-6)

    def test_lattice_agreement_at_spot_100(self, solved, table1, market, jan2004):
        sol, _ = solved
        v_fd = fd_profile(sol, jan2004, [100.0])[0]
        v_lat = price_tf_crr(table1, market, jan2004, 100.0, 500).price
        assert abs(v_lat - v_fd) / v_fd < 5e-3


class TestSpreadMonotonicity:
    def test_value_never_increases_with_spread(self, table1, jan2004):
        span = year_fraction(jan2004, table1.maturity)
        grid = FDGrid(s_max=400.0, n_s=101,
                      n_t=stable_time_layers(0.30, 0.10, span, 400.0, 101))
        layers = {}
        for rc in (0.0, 0.02, 0.05):
            mkt = MarketParams(rate=0.05, credit_spread=rc, sigma=0.30)
            sol = solve_tf_fd(table1, mkt, jan2004, grid, snapshot_dates=[jan2004])
            idx = int(np.argmin(np.abs(sol.layer_taus)))
            layers[rc] = sol.value[idx]
        assert np.all(layers[0.02] <= layers[0.0] + 1e-9)
        assert np.all(layers[0.05] <= layers[0.02] + 1e-9)

    def test_lattice_breaks_what_the_oracle_keeps(self, table1, issue):
        """A wider spread discounts the cash part harder, so value should not
        rise with it.  The N=500 tree rises here while the FD oracle falls
        (and so does the tree at N=2000: 157.1662 -> 156.9413): a lattice
        pathology, not a kernel invariant to hold the engine to."""
        spot, span = 150.75, year_fraction(issue, table1.maturity)
        tree, oracle = [], []
        for rc in (0.055, 0.06):
            mkt = MarketParams(rate=0.05, credit_spread=rc, sigma=0.30)
            tree.append(price_tf_crr(table1, mkt, issue, spot, 500).price)
            sol = solve_tf_fd(table1, mkt, issue, FDGrid.auto(mkt, span, n_s=201),
                              snapshot_dates=[issue])
            oracle.append(fd_profile(sol, issue, [spot])[0])
        assert tree[1] > tree[0]  # 157.7444 -> 157.9813
        assert oracle[1] < oracle[0]  # 157.0984 -> 156.8700


class TestGridRefinement:
    def test_first_order_consistency(self, table1, market, jan2004):
        """Halving dS (with dt re-tied to the stability bound) changes the
        (t0, S=100) value by less than 4x the subsequent halving's change."""
        span = year_fraction(jan2004, table1.maturity)
        vals = {}
        for n_s in (201, 401, 801):
            grid = FDGrid(s_max=400.0, n_s=n_s,
                          n_t=stable_time_layers(0.30, 0.07, span, 400.0, n_s))
            sol = solve_tf_fd(table1, market, jan2004, grid, snapshot_dates=[jan2004])
            vals[n_s] = fd_profile(sol, jan2004, [100.0])[0]
        c1 = abs(vals[201] - vals[401])
        c2 = abs(vals[401] - vals[801])
        assert c1 < 4.0 * c2


class TestBoundaryRows:
    def test_s_max_row_follows_the_conversion_window(self, table1, market, issue):
        """With conversion ending a year before maturity, the S_max row holds
        the conversion value on every layer where conversion is allowed and
        beats debt, and the risky debt value on the layers after it."""
        terms = replace(table1, conversion=replace(table1.conversion, end=date(2006, 1, 2)))
        grid = FDGrid.auto(market, year_fraction(issue, terms.maturity), n_s=101)
        sol = solve_tf_fd(terms, market, issue, grid)
        tl = Timeline(terms, issue)
        taus = sol.layer_taus[:-1]  # the expiry layer redeems instead
        debt = tl.risky_cash_pv(taus, market.rate + market.credit_spread)
        conv = tl.ratio * grid.s_max
        active = tl.conversion_active(taus)
        assert active.any() and not active.all() and np.all(conv > debt)
        assert np.array_equal(sol.value[:-1, -1], np.where(active, conv, debt))
        assert np.array_equal(sol.debt[:-1, -1], np.where(active, 0.0, debt))


class TestMarchGuards:
    def test_non_finite_values_name_the_layer(self, table1, market, jan2004):
        huge = replace(table1, conversion=replace(table1.conversion, ratio=1e308))
        grid = FDGrid.auto(market, year_fraction(jan2004, table1.maturity), n_s=101)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError, match=r"^non-finite values at layer 2000 \(tau="):
                solve_tf_fd(huge, market, jan2004, grid)

    def test_memory_bounded_by_stored_layers_not_march(self, table1, market, issue):
        """The whole solve, Timeline queries included, holds the stored layers,
        O(n_s) buffers and a few O(n_t) float64 vectors; a Python list per
        layer input, a row kept per layer, or an (n_t x coupon date) matrix
        exceeds it."""
        grid = FDGrid.auto(market, year_fraction(issue, table1.maturity), n_s=101)
        tracemalloc.start()
        try:
            sol = solve_tf_fd(table1, market, issue, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert grid.n_t > 40 * grid.n_s
        # stored layers: the [V | B] copies, then value, debt and equity
        assert peak < 5 * sol.value.nbytes + 8 * 64 * grid.n_s + 8 * 8 * grid.n_t


# run in a fresh interpreter: `cblab compare` through cli.main, then the modules it loaded
COMPARE_MODULES = """
import json, sys
from cblab import cli
assert cli.main(["compare", "--date", "2004-01-02", "--s-min", "105", "--s-max", "112",
                 "--s-step", "0.5", "--steps", "50", "--fd-nodes", "41", "--out", sys.argv[1]]) == 0
print(json.dumps(sorted(sys.modules)))
"""


class TestChunkedMarch:
    """The march runs in chunks of `fd._FINITE_CHECK_EVERY` layers, each with its own
    inputs; every input equals the whole time grid's, to the bit."""

    def test_compare_never_imports_numpy_ma(self, tmp_path):
        """numpy's `np.unique` loads `numpy.ma` on its first call (about 1 MiB);
        nothing on the FD path calls it."""
        env = dict(os.environ, PYTHONPATH=str(Path(fd.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", COMPARE_MODULES, str(tmp_path)], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        modules = json.loads(proc.stdout.splitlines()[-1])
        assert "cblab.fd" in modules and "numpy.ma" not in modules

    def test_memory_flat_in_time_layers(self, table1, market):
        """Four times the layers, the same peak within eight chunk-long vectors:
        what grows is each chunk's inputs, and the stored layers, which are as
        many at both layer counts."""
        t0 = date(2006, 1, 2)
        # a first solve, so that nothing loaded once per process counts at either size
        solve_tf_fd(table1, market, t0, FDGrid.auto(market, year_fraction(t0, table1.maturity), n_s=5))
        peaks = []
        for n_t in (2500, 10000):
            assert n_t > fd._FINITE_CHECK_EVERY
            grid = FDGrid(s_max=400.0, n_s=101, n_t=n_t)
            tracemalloc.start()
            try:
                solve_tf_fd(table1, market, t0, grid)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 8 * 8 * fd._FINITE_CHECK_EVERY

    def test_layer_taus_are_linspace(self, table1, market, jan2004):
        """The stored layers' times are `np.linspace(0, span, n_t)` at those layers,
        bit for bit, on a grid whose last time is not (n_t - 1) * step."""
        span = year_fraction(jan2004, table1.maturity)
        n_t = 2704
        assert (n_t - 1) * (span / (n_t - 1)) != span
        sol = solve_tf_fd(table1, market, jan2004, FDGrid(s_max=400.0, n_s=41, n_t=n_t))
        layers = sorted({0, n_t - 1} | {int(round(x)) for x in np.linspace(0, n_t - 1, 41)})
        assert sol.layer_taus.tobytes() == np.linspace(0.0, span, n_t)[layers].tobytes()

    def test_chunk_inputs_equal_whole_grid_queries(self, monkeypatch, table1, market, issue):
        """Each chunk's times and inputs equal the whole grid's `Timeline` queries
        at the same layers, first and last layer of every chunk included, and the
        chunks run every march layer once, from the top, each starting on a
        multiple of the chunk length."""
        terms = replace(table1, put=PutTerms(98.0, date(2003, 1, 2), date(2005, 1, 2)),
                        conversion=replace(table1.conversion, end=date(2006, 1, 2)))
        chunks, chunk_inputs = [], fd._chunk_inputs

        def spy(timeline, taus, risky, conv_top):
            inputs = chunk_inputs(timeline, taus, risky, conv_top)
            chunks.append((taus.copy(), inputs))
            return inputs

        monkeypatch.setattr(fd, "_chunk_inputs", spy)
        span, n_t, s_max = year_fraction(issue, terms.maturity), 5001, 400.0
        solve_tf_fd(terms, market, issue, FDGrid(s_max=s_max, n_s=41, n_t=n_t))
        monkeypatch.undo()

        taus = np.linspace(0.0, span, n_t)
        tl, risky = Timeline(terms, issue), market.rate + market.credit_spread
        put, debt, active = tl.put_dirty(taus), tl.risky_cash_pv(taus, risky), tl.conversion_active(taus)
        whole = (tl.call_dirty(taus), put, active, debt, np.maximum(put, debt),
                 active & (tl.ratio * s_max > debt))
        assert [len(t) for t, _ in chunks] == [1000, 2000, 2000]
        lo = n_t - 1
        for chunk_taus, inputs in chunks:
            lo -= len(chunk_taus)
            assert lo % fd._FINITE_CHECK_EVERY == 0
            rows = slice(lo, lo + len(chunk_taus))
            assert chunk_taus.tobytes() == taus[rows].tobytes()
            for got, want in zip(inputs, whole, strict=True):
                assert got.tobytes() == want[rows].tobytes()
        assert lo == 0
        # both rights change state on this grid: the put opens, conversion ends
        assert not put[0] and put[2000] and not active[-2] and active[0]

    @pytest.mark.parametrize("n_t, layer", [(5986, 1999), (5988, 2000)], ids=["chunk-top", "chunk-bottom"])
    def test_coupon_bucketed_into_a_chunk_edge(self, table1, jan2004, n_t, layer):
        """The 2005-01-02 coupon buckets into the top layer of one chunk or the
        bottom layer of the next: the sparse coupon map equals the whole grid's
        bucketing, and the march matches the whole-grid single-equation march."""
        span = year_fraction(jan2004, table1.maturity)
        tl = Timeline(table1, jan2004)
        whole = tl.coupon_injections(np.linspace(0.0, span, n_t), 0.05)
        assert tl.coupon_injections(fd._LayerTimes(span, n_t), 0.05) == whole
        assert layer in whole
        sol = solve_tf_fd(table1, ZERO_SPREAD, jan2004, FDGrid(s_max=400.0, n_s=101, n_t=n_t),
                          snapshot_dates=[jan2004])
        assert np.max(np.abs(sol.value[0] - single_equation_march(table1, jan2004, n_t))) < 1e-8
