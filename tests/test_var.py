"""Scenario generation, loss quantile, histograms, and VaR orchestration.

The uniform stream is pinned forever by the golden values below (Philox-2x64-10
counter blocks keyed by the seed, word -> ((w >> 11) + 0.5) * 2^-53); any change
to the generator is a breaking change and must fail here.
"""

import math
import re
from datetime import date

import numpy as np
import pytest
from scipy import stats

from cblab import (
    ConfigurationError,
    DomainError,
    VaRSpec,
    density_histogram,
    revalue,
    run_var,
    simulate_stock,
    var_quantile,
)
from cblab.var import MAX_SCENARIOS, _mulhilo64, _PHILOX_M, philox_uniforms

GOLDEN_SEED0 = [
    0.78907205294696259, 0.40140164708432829, 0.15055945503530438,
    0.67070027981185576, 0.28102966310715433, 0.32541871573716025,
    0.49519101607795352, 0.79386949960619835,
]
GOLDEN_SEED42 = [
    0.96073943809833495, 0.042302622580721094, 0.027796148085440564,
    0.94521388962415198,
]


class TestPhiloxStream:
    def test_golden_values_seed0(self):
        assert philox_uniforms(0, 8).tolist() == GOLDEN_SEED0

    def test_golden_values_seed42(self):
        assert philox_uniforms(42, 4).tolist() == GOLDEN_SEED42

    def test_prefix_stability(self):
        # drawing more numbers never changes the earlier ones
        assert philox_uniforms(7, 3).tolist() == philox_uniforms(7, 1000)[:3].tolist()

    def test_open_interval(self):
        u = philox_uniforms(123, 100_000)
        assert u.min() > 0.0 and u.max() < 1.0

    def test_needs_one_draw(self):
        with pytest.raises(DomainError, match="n >= 1"):
            philox_uniforms(0, 0)

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**70])
    def test_refuses_seed_outside_the_key(self, seed):
        """The key is one 64-bit word: a seed outside [0, 2**64) would draw the
        stream of another seed (2**70 that of 0, -1 that of 2**64 - 1)."""
        with pytest.raises(ConfigurationError, match=r"^seed must be in \[0, 2\*\*64\), got "):
            philox_uniforms(seed, 3)
        assert philox_uniforms(2**64 - 1, 3).tolist() != philox_uniforms(0, 3).tolist()

    @pytest.mark.parametrize("seed, n, what", [(1.0, 3, "seed"), (True, 3, "seed"),
                                               (0, 3.0, "uniform count"), (0, "3", "uniform count")])
    def test_refuses_non_integers(self, seed, n, what):
        with pytest.raises(ConfigurationError, match=f"^{what} must be an integer, got "):
            philox_uniforms(seed, n)
        assert philox_uniforms(np.uint64(7), np.int32(3)).tolist() == philox_uniforms(7, 3).tolist()

    def test_uniformity(self):
        u = philox_uniforms(9, 200_000)
        d, _ = stats.kstest(u, "uniform")
        assert d < 0.005

    def test_mulhilo_against_bigint(self):
        rng = np.random.default_rng(7)
        a = rng.integers(0, 2**64, 50, dtype=np.uint64)
        hi, lo = _mulhilo64(a, _PHILOX_M)
        for i in range(50):
            full = int(a[i]) * int(_PHILOX_M)
            assert int(hi[i]) == full >> 64
            assert int(lo[i]) == full & (2**64 - 1)


def spec_with(**kw) -> VaRSpec:
    base = dict(eval_date=date(2004, 1, 2), spot=100.0, holding_days=1,
                confidence=0.99, n_scenarios=100, drift=0.05, scen_sigma=0.30,
                seed=0, steps=500)
    base.update(kw)
    return VaRSpec(**base)


class TestSimulateStock:
    def test_deterministic_drift_when_sigma_zero(self):
        spec = spec_with(scen_sigma=0.0, n_scenarios=10)
        expected = 100.0 * math.exp(0.05 * 1 / 365)
        assert np.all(simulate_stock(spec) == expected)

    def test_single_scenario_golden(self):
        spec = spec_with(n_scenarios=1, seed=12345)
        # frozen output of the documented generator, captured once
        assert simulate_stock(spec)[0] == 98.266382712450536

    def test_bit_reproducible(self):
        a = simulate_stock(spec_with(n_scenarios=5000, seed=99))
        b = simulate_stock(spec_with(n_scenarios=5000, seed=99))
        assert np.array_equal(a, b)

    def test_law_of_large_numbers(self):
        spec = spec_with(n_scenarios=1_000_000, seed=4)
        s = simulate_stock(spec)
        h = spec.horizon_years
        mean_exact = 100.0 * math.exp(0.05 * h)
        var_exact = mean_exact**2 * (math.exp(0.09 * h) - 1.0)
        se = math.sqrt(var_exact / spec.n_scenarios)
        assert abs(s.mean() - mean_exact) < 3 * se

    def test_spec_validation(self):
        with pytest.raises(ConfigurationError):
            spec_with(confidence=1.0)
        with pytest.raises(ConfigurationError):
            spec_with(n_scenarios=0)
        with pytest.raises(ConfigurationError):
            spec_with(holding_days=0)
        with pytest.raises(ConfigurationError):
            spec_with(scen_sigma=-0.1)
        with pytest.raises(ConfigurationError):
            spec_with(spot=0.0)
        for field, name in (("spot", "spot"), ("drift", "drift"),
                            ("scen_sigma", "scenario volatility")):
            for bad in (math.nan, math.inf):
                with pytest.raises(ConfigurationError, match=name):
                    spec_with(**{field: bad})

    @pytest.mark.parametrize("bad", [True, "0.5"], ids=["bool", "str"])
    @pytest.mark.parametrize("field, name", [("spot", "spot"), ("confidence", "confidence"),
                                             ("drift", "drift"),
                                             ("scen_sigma", "scenario volatility")])
    def test_rejects_bool_and_string_reals(self, field, name, bad):
        with pytest.raises(ConfigurationError, match=f"^{name} must be a finite real number"):
            spec_with(**{field: bad})

    @pytest.mark.parametrize("field", ["holding_days", "n_scenarios", "seed"])
    @pytest.mark.parametrize("bad", [1.5, 2.5, np.float64(2.0), "2", True],
                             ids=["1.5", "2.5", "numpy_float", "str", "bool"])
    def test_rejects_non_integer_fields(self, field, bad):
        """A fractional holding period would diffuse over h days but reprice
        at a whole-day horizon date; a holding period, scenario count or seed
        that is not an integer is refused by field name, not passed on to the
        calendar or the stream."""
        with pytest.raises(ConfigurationError, match=f"^{field} must be an integer, got "):
            spec_with(**{field: bad})

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**70])
    def test_rejects_seed_outside_the_key(self, seed):
        """The Philox key is one 64-bit word: -1 would draw the scenarios of
        2**64 - 1 and 2**70 those of 0, under a different configuration."""
        with pytest.raises(ConfigurationError,
                           match=re.escape(f"seed must be in [0, 2**64), got {seed}") + "$"):
            spec_with(seed=seed)

    @pytest.mark.parametrize("seed", [2**64, -1, 1.5, True])
    def test_seed_refused_as_the_stream_refuses_it(self, seed):
        """`VaRSpec` refuses at construction every seed that `philox_uniforms`
        refuses, with the same error and message."""
        with pytest.raises(ConfigurationError) as stream:
            philox_uniforms(seed, 3)
        with pytest.raises(ConfigurationError) as spec:
            spec_with(seed=seed)
        assert str(spec.value) == str(stream.value)

    def test_accepts_the_largest_seed(self):
        spec = spec_with(seed=2**64 - 1, n_scenarios=3)
        assert spec.seed == 2**64 - 1
        assert np.array_equal(simulate_stock(spec), simulate_stock(spec_with(seed=2**64 - 1,
                                                                             n_scenarios=3)))
        assert not np.array_equal(simulate_stock(spec), simulate_stock(spec_with(n_scenarios=3)))

    def test_numpy_integer_counts_are_ints(self):
        spec = spec_with(holding_days=np.int64(2), n_scenarios=np.uint16(3), steps=np.int32(20))
        assert [type(v) for v in (spec.holding_days, spec.n_scenarios, spec.steps)] == [int] * 3
        assert spec.horizon_date == date(2004, 1, 4)
        assert np.array_equal(simulate_stock(spec),
                              simulate_stock(spec_with(holding_days=2, n_scenarios=3)))

    @pytest.mark.parametrize("steps, msg", [
        (2.5, "tree steps must be an integer, got 2.5"),
        (0, "steps must be >= 1"),
        (10**4 + 1, "10,001 tree steps exceed the limit of 10,000"),
    ])
    def test_rejects_bad_steps_when_built(self, steps, msg):
        """The tree's step count is checked with the spec, before any scenario is drawn."""
        with pytest.raises(ConfigurationError, match=f"^{msg}$"):
            spec_with(steps=steps)

    def test_caps_scenarios(self):
        """Just over the cap is refused with the spec, before the stream allocates anything."""
        assert spec_with(n_scenarios=MAX_SCENARIOS).n_scenarios == 10**7
        with pytest.raises(ConfigurationError,
                           match="^10,000,001 scenarios exceed the limit of 10,000,000$"):
            spec_with(n_scenarios=MAX_SCENARIOS + 1)


class TestVarQuantile:
    def test_hand_case(self):
        # sorted X: -5 -1 0 2 3; ceil(0.2*5) = 1 -> -X_(1) = 5
        assert var_quantile([-5.0, -1.0, 0.0, 2.0, 3.0], 0.2) == 5.0

    def test_unsorted_input(self):
        assert var_quantile([3.0, -5.0, 2.0, -1.0, 0.0], 0.2) == 5.0

    def test_degenerate_distribution(self):
        assert var_quantile([4.0] * 10, 0.01) == -4.0

    def test_small_alpha_takes_minimum(self):
        x = [-9.0, -2.0, 1.0, 7.0]
        assert var_quantile(x, 1e-6) == 9.0

    def test_quantile_monotone_in_confidence(self):
        rng = np.random.default_rng(11)
        pnl = rng.normal(size=5001)
        assert var_quantile(pnl, 0.01) >= var_quantile(pnl, 0.05)

    def test_scale_equivariance(self):
        pnl = [-3.0, -1.0, 0.5, 2.0, 8.0]
        assert var_quantile([5.0 * x for x in pnl], 0.2) == 5.0 * var_quantile(pnl, 0.2)

    def test_rejects_bad_input(self):
        with pytest.raises(DomainError):
            var_quantile([], 0.05)
        with pytest.raises(DomainError):
            var_quantile([1.0], 0.0)


class TestDensityHistogram:
    def test_single_value_all_in_one_bin(self):
        h = density_histogram([5.0], 7)
        assert h.counts.sum() == 1 and h.counts.max() == 1

    def test_uniform_grid_even_fill(self):
        values = np.arange(100) + 0.5
        h = density_histogram(values, 10)
        assert h.counts.tolist() == [10] * 10

    def test_top_edge_inclusive(self):
        h = density_histogram([0.0, 1.0, 2.0], 2)
        assert h.counts.tolist() == [1, 2]
        assert h.counts.sum() == 3

    def test_rejects_zero_bins(self):
        with pytest.raises(DomainError):
            density_histogram([1.0], 0)


class TestRevalueAndRun:
    def test_revalue_matches_pointwise_pricing(self, table1, market):
        from cblab import price_tf_crr

        spec = spec_with(n_scenarios=3)
        scen = np.array([97.0, 100.0, 103.0])
        vals = revalue(spec, table1, market, scen)
        for s, v in zip(scen, vals):
            assert v == price_tf_crr(table1, market, spec.horizon_date, s, 500).price

    def test_revalue_rejects_nonpositive(self, table1, market):
        with pytest.raises(DomainError):
            revalue(spec_with(), table1, market, np.array([100.0, -1.0]))

    def test_deep_itm_scenario(self, table1, market):
        spec = spec_with()
        v = revalue(spec, table1, market, np.array([10_000.0]))[0]
        assert v == pytest.approx(10_000.0, rel=5e-3)

    def test_run_var_small(self, table1, market):
        spec = spec_with(n_scenarios=200, steps=120)
        res = run_var(spec, table1, market)
        assert res.pnl.shape == (200,)
        assert res.var_pct == pytest.approx(res.var_abs / res.value0 * 100.0, rel=1e-14)
        assert res.stock_hist.counts.sum() == 200
        assert res.value_hist.counts.sum() == 200
        # deterministic end to end
        res2 = run_var(spec, table1, market)
        assert np.array_equal(res.pnl, res2.pnl)
        assert res.var_abs == res2.var_abs

    def test_sigma_zero_collapses_to_deterministic_pnl(self, table1, market):
        from cblab import price_tf_crr

        spec = spec_with(scen_sigma=0.0, n_scenarios=5, steps=120)
        res = run_var(spec, table1, market)
        s_det = 100.0 * math.exp(0.05 * spec.horizon_years)
        v_det = price_tf_crr(table1, market, spec.horizon_date, s_det, 120).price
        assert res.var_abs == pytest.approx(-(v_det - res.value0), rel=1e-12)

    def test_nominal_scaling_equivariance(self, table1, market):
        spec = spec_with(n_scenarios=50, steps=120)
        res1 = run_var(spec, table1, market)
        res2 = run_var(spec, table1.with_nominal_scaled(2.0), market)
        assert res2.var_abs == pytest.approx(2.0 * res1.var_abs, rel=1e-12)
        assert res2.var_pct == pytest.approx(res1.var_pct, rel=1e-12)

    def test_report_lines_roundtrip_fields(self, table1, market):
        spec = spec_with(n_scenarios=30, steps=120)
        res = run_var(spec, table1, market)
        text = "\n".join(res.report_lines())
        assert "value0:" in text and "var_pct:" in text
        assert "stock_hist_counts:" in text and "value_hist_counts:" in text
