"""Lattice engine: CRR parameters, node decision rule, rollback identities.

The N=2 reference pricing is checked against a spreadsheet-style hand rollback
written out scalar by scalar below, independent of the engine's vectorized
path.  The zero-spread reduction is checked against a single-variable roller
that never splits the value.
"""

import inspect
import math
import re
from dataclasses import replace
from datetime import date, timedelta

import numpy as np
import pytest
from test_reference_roller import small_budget

from cblab import (
    ConfigurationError,
    ConversionTerms,
    ConvertibleTerms,
    DomainError,
    MarketParams,
    NodeValue,
    PutTerms,
    build_crr_params,
    greek_point,
    hedge_increment,
    price_profile_raw,
    price_tf_crr,
    rollback_batch,
)
from cblab import hedge, lattice, sensitivities, var
from cblab.lattice import decide
from cblab.termsheet import Timeline


class TestBuildCrrParams:
    def test_reference_values(self):
        # sigma=0.3, r=0.05, horizon 5y, 500 steps: direct formula evaluation
        lp = build_crr_params(0.3, 0.05, 5.0, 500)
        assert lp.dt == pytest.approx(0.01, rel=1e-15)
        assert lp.up == pytest.approx(math.exp(0.3 * math.sqrt(0.01)), rel=1e-15)
        assert lp.up == pytest.approx(1.030455, abs=5e-7)
        assert lp.down == pytest.approx(0.970446, abs=5e-7)
        assert lp.up * lp.down == pytest.approx(1.0, rel=1e-15)
        expected_p = (math.exp(0.05 * 0.01) - lp.down) / (lp.up - lp.down)
        assert lp.p_up == expected_p
        assert lp.p_up == pytest.approx(0.5008347, abs=5e-8)

    def test_p_limit_half(self):
        # CRR up-probability approaches 1/2 from above as dt -> 0 (r > 0)
        lp = build_crr_params(0.3, 0.05, 5.0, 2_000_000)
        assert abs(lp.p_up - 0.5) < 1e-4

    def test_zero_rate_p_below_half(self):
        lp = build_crr_params(0.25, 0.0, 2.0, 100)
        assert lp.p_up < 0.5

    def test_unstable_probability_rejected(self):
        # huge dt with tiny sigma pushes p out of (0,1); six significant digits
        with pytest.raises(ConfigurationError,
                           match=r"^risk-neutral probability 2330\.91 outside \(0,1\); dt too"):
            build_crr_params(0.01, 0.5, 10.0, 1)
        # exp(1e5 * 0.006) is finite, and p about 8.1e261 prints in six digits, not 262
        with pytest.raises(ConfigurationError,
                           match=r"^risk-neutral probability 8\.11752e\+261 outside \(0,1\); dt too"):
            build_crr_params(0.3, 1e5, 3.0, 500)

    def test_bad_inputs(self):
        with pytest.raises(ConfigurationError):
            build_crr_params(0.3, 0.05, 5.0, 0)
        with pytest.raises(ConfigurationError):
            build_crr_params(-0.1, 0.05, 5.0, 10)
        with pytest.raises(ConfigurationError):
            build_crr_params(0.3, 0.05, 0.0, 10)
        with pytest.raises(ConfigurationError):  # up == down: the tree cannot move
            build_crr_params(1e-300, 0.05, 5.0, 10)


def decide_one(held: NodeValue, call: float, put: float, conv: float) -> NodeValue:
    """`decide` on one node: held value, dirty call, dirty put, conversion value."""
    E, B, c = (np.array([x]) for x in (held.equity, held.debt, conv))
    V, vs = np.empty(1), np.empty(1)
    decide(E, B, V, vs, c, call, put, *(np.empty(1, dtype=bool) for _ in range(2)))
    return NodeValue(equity=float(E[0]), debt=float(B[0]))


class TestApplyConstraints:
    """The node rule, run through `decide` on one-element arrays."""

    def test_no_constraint_binds(self):
        out = decide_one(NodeValue(50.0, 60.0), np.inf, 0.0, 105.0)
        assert (out.equity, out.debt) == (50.0, 60.0)

    def test_conversion_dominates(self):
        out = decide_one(NodeValue(80.0, 40.0), 110.0, 0.0, 115.0)
        assert (out.equity, out.debt) == (115.0, 0.0)

    def test_call_binds_proceeds_are_cash(self):
        # max[min(120,110),0,100] = 110; call proceeds sit in the debt part
        out = decide_one(NodeValue(80.0, 40.0), 110.0, 0.0, 100.0)
        assert (out.equity, out.debt) == (0.0, 110.0)
        assert out.value == 110.0

    def test_put_binds(self):
        out = decide_one(NodeValue(10.0, 60.0), np.inf, 98.0, 20.0)
        assert (out.equity, out.debt) == (0.0, 98.0)

    def test_tie_prefers_continuation(self):
        out = decide_one(NodeValue(70.0, 40.0), 110.0, 0.0, 110.0)
        assert (out.equity, out.debt) == (70.0, 40.0)

    def test_tie_conversion_over_call(self):
        out = decide_one(NodeValue(80.0, 40.0), 110.0, 0.0, 110.0)
        assert (out.equity, out.debt) == (110.0, 0.0)

    @pytest.mark.parametrize(
        "held, call, put, conv, expected",
        [
            # V == call, conv < call: the call does not clip, the holder continues
            (NodeValue(70.0, 40.0), 110.0, 0.0, 100.0, (70.0, 40.0)),
            # V == put: continuation wins the tie with the put
            (NodeValue(50.0, 48.0), np.inf, 98.0, 20.0, (50.0, 48.0)),
            # conv == put > V: conversion wins the tie with the put
            (NodeValue(10.0, 60.0), np.inf, 98.0, 98.0, (98.0, 0.0)),
        ],
        ids=["held_equals_call", "held_equals_put", "conversion_equals_put"],
    )
    def test_exact_ties(self, held, call, put, conv, expected):
        out = decide_one(held, call, put, conv)
        assert (out.equity, out.debt) == expected

    def test_results_ignore_what_the_buffers_held(self):
        """`decide` sets V, vs, ncont and convb before it reads them (convb is
        scratch until it is set), so none of its results depends on what they
        held on entry.  The nodes cover every outcome and tie at call 110 and
        put 98: continue, convert, call, put, held = call, conversion = call,
        held = put, conversion = put."""
        held_E = [50.0, 80.0, 80.0, 10.0, 70.0, 80.0, 50.0, 10.0]
        held_B = [60.0, 40.0, 40.0, 60.0, 40.0, 40.0, 48.0, 60.0]
        conv = np.array([105.0, 115.0, 100.0, 20.0, 110.0, 110.0, 20.0, 98.0])
        results = set()
        for value, flag in ((np.nan, True), (np.nan, False), (0.0, True), (0.0, False)):
            E, B = np.array(held_E), np.array(held_B)
            V, vs = np.full(8, value), np.full(8, value)
            ncont, convb = np.full(8, flag), np.full(8, flag)
            decide(E, B, V, vs, conv, 110.0, 98.0, ncont, convb)
            results.add(tuple(x.tobytes() for x in (E, B, V, vs, ncont, convb)))
            assert E.tolist() == [50.0, 115.0, 0.0, 0.0, 70.0, 110.0, 50.0, 98.0]
            assert B.tolist() == [60.0, 0.0, 110.0, 98.0, 40.0, 0.0, 48.0, 0.0]
            assert ncont.tolist() == [False, True, True, True, False, True, False, True]
            assert convb.tolist() == [False, True, False, False, False, True, False, True]
        assert len(results) == 1

    @pytest.mark.parametrize("call, put", [(110.0, 98.0), (np.inf, 0.0), (np.inf, 98.0),
                                           (110.0, 0.0)])
    def test_operand_kinds_give_the_same_bits(self, call, put):
        """`decide` takes call and put as Python floats (as `expire` passes
        them), numpy floats or 0-d arrays (as the layer loops pass them), with
        the same bits in every output.  At call 110 and put 98 the nodes hold
        the ties V == call, conv == call, V == put and conv == put; the others
        are a NaN held value and nodes of -0.0."""
        held_E = [70.0, 80.0, 50.0, 10.0, np.nan, -0.0, -0.0, 50.0]
        held_B = [40.0, 40.0, 48.0, 60.0, 1.0, -0.0, 0.0, 60.0]
        conv = np.array([100.0, 110.0, 20.0, 98.0, 50.0, 0.0, -0.0, 200.0])
        results = {}
        for kind in (float, np.float64, np.array):
            E, B = np.array(held_E), np.array(held_B)
            V, vs = np.empty(8), np.empty(8)
            ncont, convb = np.empty(8, dtype=bool), np.empty(8, dtype=bool)
            decide(E, B, V, vs, conv, kind(call), kind(put), ncont, convb)
            results[kind] = tuple(x.tobytes() for x in (E, B, V, vs, ncont, convb))
        assert results[np.float64] == results[float] and results[np.array] == results[float]

    def test_shared_zero_is_read_only(self):
        """The layer loops' one 0-d zero cannot be written, so no call can
        change what every other call reads."""
        with pytest.raises(ValueError, match="read-only"):
            lattice.ZERO[...] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            np.add(lattice.ZERO, 1.0, out=lattice.ZERO)
        assert lattice.ZERO.shape == () and lattice.ZERO.tobytes() == np.zeros(()).tobytes()


def straight_bond(rate: float = 0.0, years: int = 1) -> ConvertibleTerms:
    issue, maturity = date(2002, 1, 2), date(2002 + years, 1, 2)
    return ConvertibleTerms(
        nominal=100.0, issue=issue, maturity=maturity,
        coupon_rate=rate, coupon_frequency=2,
        conversion=ConversionTerms(0.0, issue, maturity),
    )


class TestStraightBondReduction:
    def test_zero_coupon_closed_form(self, market):
        terms = straight_bond()
        horizon = (terms.maturity - terms.issue).days / 365.0
        expected = 100.0 * math.exp(-0.07 * horizon)
        for steps in (1, 2, 17, 500):
            res = price_tf_crr(terms, market, terms.issue, 100.0, steps)
            assert res.price == pytest.approx(expected, rel=1e-10)
            assert res.node.equity == 0.0

    def test_coupon_bond_equals_risky_cash_pv(self, market):
        # deterministic rollback plus gap-compounded coupon buckets must
        # reproduce the discounted cash-flow sum at machine precision
        terms = straight_bond(rate=0.04, years=5)
        tl = Timeline(terms, terms.issue)
        expected = tl.risky_cash_pv(0.0, market.rate + market.credit_spread)[0]
        for steps in (1, 2, 7, 13, 100, 500):
            res = price_tf_crr(terms, market, terms.issue, 100.0, steps)
            assert res.price == pytest.approx(expected, rel=1e-10)

    def test_delta_gamma_are_zero(self, market):
        terms = straight_bond(rate=0.04, years=5)
        gp = greek_point(terms, market, terms.issue, 100.0, 500)
        assert gp.delta == 0.0
        assert gp.gamma == 0.0

    @pytest.mark.parametrize("t,spot,steps", [
        (date(2002, 1, 2), 37.0, 3),
        (date(2003, 6, 15), 100.0, 47),
        (date(2006, 11, 1), 250.0, 120),
    ])
    def test_zero_ratio_gamma_zero_everywhere(self, market, t, spot, steps):
        terms = straight_bond(rate=0.04, years=5)
        assert greek_point(terms, market, t, spot, steps).gamma == 0.0


class TestReferenceInstrument:
    def test_deep_itm_near_conversion_value(self, table1, market, issue):
        res = price_tf_crr(table1, market, issue, 10_000.0, 500)
        assert res.price == pytest.approx(10_000.0, rel=5e-3)
        assert res.node.debt < res.price * 1e-3

    def test_n2_hand_rollback(self, table1, market, issue):
        """Spreadsheet-style 2-step rollback, scalar arithmetic only."""
        tau_T = 1826 / 365.0
        dt = tau_T / 2
        u = math.exp(0.3 * math.sqrt(dt))
        d = 1.0 / u
        p = (math.exp(0.05 * dt) - d) / (u - d)
        q = 1.0 - p
        de = math.exp(-0.05 * dt)
        db = math.exp(-0.07 * dt)
        layer_taus = [0.0, tau_T / 2, tau_T]
        # coupon pay times (years from issue) and their layer buckets:
        # first layer at-or-after, amount compounded over the gap at r + rc
        coupon_taus = [181 / 365, 365 / 365, 546 / 365, 730 / 365, 912 / 365,
                       1096 / 365, 1277 / 365, 1461 / 365, 1642 / 365]
        inj = [0.0, 0.0, 0.0]
        for tc in coupon_taus:
            j = next(k for k, t in enumerate(layer_taus) if t >= tc - 1e-12)
            inj[j] += 2.0 * math.exp(0.07 * (layer_taus[j] - tc))
        assert inj[0] == 0.0

        # terminal layer: V = max(S_T, 102), redemption pays nominal + coupon
        s_up, s_mid, s_dn = 100 * u * u, 100.0, 100 * d * d
        red = 102.0

        def terminal(s):
            return (s, 0.0) if s > red else (0.0, red)

        nodes_T = [terminal(s) for s in (s_dn, s_mid, s_up)]
        nodes_T = [(e, b + inj[2]) for e, b in nodes_T]

        # layer 1 (tau = 2.5014, inside the call window, dirty call = 110 + AI)
        ai_frac = (layer_taus[1] - 912 / 365) / ((1096 - 912) / 365)
        call_dirty = 110.0 + 2.0 * ai_frac
        layer1 = []
        for j, s in enumerate((100 * d, 100 * u)):
            e = de * (p * nodes_T[j + 1][0] + q * nodes_T[j][0])
            b = db * (p * nodes_T[j + 1][1] + q * nodes_T[j][1]) + inj[1]
            v = e + b
            conv = s
            v_star = max(min(v, call_dirty), 0.0, conv)
            if v <= call_dirty and v_star == v:
                pass
            elif v_star == conv:
                e, b = conv, 0.0
            elif v > call_dirty and v_star == call_dirty:
                e, b = 0.0, call_dirty
            else:
                e, b = 0.0, 0.0
            layer1.append((e, b))

        # root (not callable at issue, conversion active, AI = 0)
        e0 = de * (p * layer1[1][0] + q * layer1[0][0])
        b0 = db * (p * layer1[1][1] + q * layer1[0][1])
        v0 = e0 + b0
        if 100.0 > v0:
            e0, b0 = 100.0, 0.0

        res = price_tf_crr(table1, market, issue, 100.0, 2)
        assert res.node.equity == pytest.approx(e0, rel=1e-12)
        assert res.node.debt == pytest.approx(b0, rel=1e-12)
        assert res.price == pytest.approx(e0 + b0, rel=1e-12)

    def test_value_is_component_sum(self, table1, market, issue):
        res = price_tf_crr(table1, market, issue, 100.0, 500)
        assert res.price == res.node.equity + res.node.debt
        assert res.node.equity >= 0.0 and res.node.debt >= 0.0

    def test_root_conversion_floor(self, table1, market, jan2004):
        for s in (50.0, 109.0, 111.0, 150.0):
            res = price_tf_crr(table1, market, jan2004, s, 500)
            assert res.price >= s - 1e-12

    def test_root_call_cap_inside_window(self, table1, market, jan2004):
        # at the window-opening coupon date the dirty call is exactly 110
        for s in (90.0, 105.0, 109.0):
            res = price_tf_crr(table1, market, jan2004, s, 300)
            assert res.price <= max(110.0, s) + 1e-9

    def test_zero_spread_reduction_single_variable_oracle(self, table1, jan2004):
        """With rc = 0 the split discounting collapses; compare against an
        independent roller that tracks V only."""
        mkt0 = MarketParams(rate=0.05, credit_spread=0.0, sigma=0.30)
        steps = 200
        tl = Timeline(table1, jan2004)
        taus = tl.tau_maturity * np.arange(steps + 1) / steps
        dt = tl.tau_maturity / steps
        u = math.exp(0.3 * math.sqrt(dt))
        d = 1.0 / u
        p = (math.exp(0.05 * dt) - d) / (u - d)
        q = 1.0 - p
        disc = math.exp(-0.05 * dt)
        call = tl.call_dirty(taus)
        conv_on = tl.conversion_active(taus)
        inject = np.zeros(steps + 1)
        for tc in tl.coupon_taus:
            if tc <= 1e-12 or tc >= tl.tau_maturity - 1e-12:
                continue
            j = int(np.searchsorted(taus, tc - 1e-12, side="left"))
            inject[j] += tl.coupon_amount * math.exp(0.05 * (taus[j] - tc))
        spot = 100.0
        jj = np.arange(steps + 1)
        s_nodes = spot * u ** (2.0 * jj - steps)
        v = np.maximum(np.where(conv_on[steps], s_nodes, 0.0), tl.redemption)
        for i in range(steps - 1, -1, -1):
            v = disc * (p * v[1:] + q * v[:-1])
            v += inject[i]
            s_nodes = spot * u ** (2.0 * np.arange(i + 1) - i)
            conv = np.where(conv_on[i], s_nodes, 0.0)
            v = np.maximum(np.minimum(v, call[i]), conv)
        res = price_tf_crr(table1, mkt0, jan2004, spot, steps)
        assert res.price == pytest.approx(float(v[0]), rel=1e-10)

    def test_determinism(self, table1, market, jan2004):
        a = price_tf_crr(table1, market, jan2004, 104.3, 500)
        b = price_tf_crr(table1, market, jan2004, 104.3, 500)
        assert a.price == b.price and a.node == b.node
        ra, rb = (rollback_batch(table1, market, jan2004, np.array([104.3]), 500, binds=True)
                  for _ in range(2))
        assert np.array_equal(ra.binds, rb.binds)

    def test_calendar_translation(self, table1, market):
        """Pricing depends on dates only through day counts: shift the whole
        contract so every interval keeps its exact day count."""
        shift_issue, shift_mat = date(2102, 1, 2), date(2107, 1, 2)
        same_days = (date(2107, 1, 2) - date(2102, 1, 2)).days == 1826
        if not same_days:
            pytest.skip("century shift changes leap pattern")
        shifted = ConvertibleTerms(
            nominal=100.0, issue=shift_issue, maturity=shift_mat,
            coupon_rate=0.04, coupon_frequency=2,
            conversion=ConversionTerms(1.0, shift_issue, shift_mat),
            call=type(table1.call)(110.0, date(2104, 1, 2), shift_mat),
        )
        if [(d - shift_issue).days for d in shifted.coupon_dates] != [
            (d - table1.issue).days for d in table1.coupon_dates
        ]:
            pytest.skip("shifted coupon grid has different day counts")
        a = price_tf_crr(table1, market, date(2003, 5, 10), 97.0, 150)
        b = price_tf_crr(shifted, market, date(2103, 5, 10), 97.0, 150)
        assert a.price == b.price


class TestProfile:
    def test_singleton_matches_pointwise(self, table1, market, jan2004):
        prof = price_profile_raw(table1, market, jan2004, [100.0], 300)
        res = price_tf_crr(table1, market, jan2004, 100.0, 300)
        assert NodeValue(prof.equity[0], prof.debt[0]) == res.node

    def test_batch_bitwise_equals_pointwise(self, table1, market, jan2004):
        grid = np.array([95.0, 100.0, 104.5, 108.2, 110.0, 118.0])
        prof = price_profile_raw(table1, market, jan2004, grid, 200)
        for s, e, b in zip(grid, prof.equity, prof.debt):
            single = price_tf_crr(table1, market, jan2004, s, 200)
            assert e == single.node.equity
            assert b == single.node.debt

    def test_duplicated_points_equal(self, table1, market, jan2004):
        prof = price_profile_raw(table1, market, jan2004, [104.0, 104.0], 200)
        assert (prof.equity[0], prof.debt[0]) == (prof.equity[1], prof.debt[1])

    def test_not_strictly_monotone_between_108_and_110(self, table1, market, jan2004):
        grid = np.round(np.arange(108.0, 110.0001, 0.25), 6)
        values = price_profile_raw(table1, market, jan2004, grid, 500).value
        assert any(b <= a for a, b in zip(values, values[1:]))

    def test_rejects_bad_grids(self, table1, market, jan2004):
        with pytest.raises(DomainError):
            price_profile_raw(table1, market, jan2004, [], 100)
        with pytest.raises(DomainError):
            price_profile_raw(table1, market, jan2004, [[100.0, 110.0]], 100)
        with pytest.raises(ConfigurationError, match="front_layers cannot exceed the step count"):
            rollback_batch(table1, market, jan2004, [100.0], 2, front_layers=3)

    @pytest.mark.parametrize("spot, dtype", [
        (True, "bool"), (np.bool_(False), "bool"), ("100", "<U3"), (None, "object"),
        (10**400, "object"),
    ], ids=["true", "numpy_false", "str", "none", "huge_int"])
    def test_rejects_spots_that_are_not_numbers(self, table1, market, jan2004, spot, dtype):
        """Every view refuses a spot whose dtype is not integer or float,
        before any conversion: True used to price as spot 1.0 and '100' as
        100.0, and a zero hedge shock returned 0.0 for them."""
        msg = f"spot prices must be integer or float numbers, got dtype {re.escape(dtype)}$"
        views = {
            "rollback_batch": lambda: rollback_batch(table1, market, jan2004, [spot], 20),
            "price_profile_raw": lambda: price_profile_raw(table1, market, jan2004, [spot], 20),
            "price_tf_crr": lambda: price_tf_crr(table1, market, jan2004, spot, 20),
            "greek_point": lambda: greek_point(table1, market, jan2004, spot, 20),
            "surface": lambda: sensitivities.surface(table1, market, [jan2004], [spot], 20),
            "hedge_increment": lambda: hedge_increment(table1, market, jan2004, spot, 0.5, 20),
            "zero_shock": lambda: hedge_increment(table1, market, jan2004, spot, 0.0, 20),
            "stress_increments": lambda: hedge.stress_increments(table1, market, jan2004,
                                                                 [spot], 0.5, 20),
        }
        for name, view in views.items():
            with pytest.raises(DomainError, match=msg):
                view()

    @pytest.mark.parametrize("spots", [
        [100.0, True], (np.True_, 100.0), [100, False], [np.float64(90.0), np.bool_(True)],
    ], ids=["list_true", "tuple_numpy_true", "int_list_false", "numpy_scalars"])
    def test_rejects_a_bool_among_numbers(self, table1, market, jan2004, spots):
        """numpy folds a bool into a sequence of numbers (`[100.0, True]` is a
        float64 array), so the elements are checked too: the True used to
        price as spot 1.0 (91.678)."""
        views = {
            "rollback_batch": lambda: rollback_batch(table1, market, jan2004, spots, 20),
            "price_profile_raw": lambda: price_profile_raw(table1, market, jan2004, spots, 20),
            "surface": lambda: sensitivities.surface(table1, market, [jan2004], spots, 20),
            "stress_increments": lambda: hedge.stress_increments(table1, market, jan2004,
                                                                 spots, 0.5, 20),
        }
        for name, view in views.items():
            with pytest.raises(DomainError, match="spot prices must be integer or float "
                                                  "numbers, got a bool among them$"):
                view()

    def test_integer_spots_price_as_floats(self, table1, market, jan2004):
        """Integer spots are numbers: they price as the equal floats, bit for bit."""
        ints = rollback_batch(table1, market, jan2004, np.array([90, 100, 110], dtype=np.int32), 20)
        floats = rollback_batch(table1, market, jan2004, [90.0, 100.0, 110.0], 20)
        assert np.array_equal(ints.equity, floats.equity) and np.array_equal(ints.debt, floats.debt)
        assert greek_point(table1, market, jan2004, 100, 20) == greek_point(table1, market,
                                                                              jan2004, 100.0, 20)
        assert hedge_increment(table1, market, jan2004, 100, 0.5, 20) == hedge_increment(
            table1, market, jan2004, 100.0, 0.5, 20)

    @pytest.mark.parametrize("front_layers, msg", [
        (-1, "front_layers must be >= 0, got -1"),
        (1.5, "front_layers must be an integer, got 1.5"),
        (True, "front_layers must be an integer, got True"),
        (np.float64(1.0), "front_layers must be an integer, got np.float64(1.0)"),
        (3, "front_layers cannot exceed the step count"),
    ], ids=["negative", "float", "bool", "numpy_float", "over_steps"])
    def test_rejects_bad_front_layers(self, table1, market, jan2004, front_layers, msg):
        """Only 0 <= front_layers <= steps: -1 would return no fronts, a
        float end in a raw TypeError and True count as 1."""
        with pytest.raises(ConfigurationError, match=f"^{re.escape(msg)}$"):
            rollback_batch(table1, market, jan2004, [100.0], 2, front_layers=front_layers)

    def test_numpy_integer_front_layers(self, table1, market, jan2004):
        res = rollback_batch(table1, market, jan2004, [100.0], 2, front_layers=np.int64(2))
        assert [f.shape for f in res.fronts] == [(1, 1), (1, 2), (1, 3)]

    @pytest.mark.parametrize("steps", [2.5, np.float64(10.0), "10", True],
                             ids=["float", "numpy_float", "str", "bool"])
    def test_rejects_non_integer_steps(self, table1, market, jan2004, monkeypatch, steps):
        """A step count that is not an integer is refused by value before any
        table is built, on every path into the engine."""
        def no_tables(*args, **kwargs):
            pytest.fail("a table was built for a non-integer step count")

        msg = "tree steps must be an integer, got " + re.escape(repr(steps))
        with monkeypatch.context() as m:
            m.setattr(lattice, "Timeline", no_tables)
            with pytest.raises(ConfigurationError, match=f"^{msg}$"):
                rollback_batch(table1, market, jan2004, [100.0], steps)
            with pytest.raises(ConfigurationError, match=f"^{msg}$"):
                price_tf_crr(table1, market, jan2004, 100.0, steps)
            m.setattr(sensitivities, "Timeline", no_tables)
            with pytest.raises(ConfigurationError, match=f"^surface row t=2004-01-02: {msg}$"):
                sensitivities.surface(table1, market, [jan2004], [100.0], steps)
        with pytest.raises(ConfigurationError, match=f"^{msg}$"):
            var.VaRSpec(eval_date=jan2004, spot=100.0, n_scenarios=4, steps=steps)

    @pytest.mark.parametrize("steps", [np.int64(10), np.int32(10), np.uint16(10)])
    def test_numpy_integer_steps_price_as_int(self, table1, market, jan2004, steps):
        spots = np.array([90.0, 100.0, 110.0])
        res = rollback_batch(table1, market, jan2004, spots, steps)
        ref = rollback_batch(table1, market, jan2004, spots, 10)
        assert type(res.params.steps) is int
        assert np.array_equal(res.equity, ref.equity) and np.array_equal(res.debt, ref.debt)

    def test_rejects_overflowing_tree(self, table1, market, jan2004):
        """A finite spot whose top conversion value ratio * S * u^N is not
        finite is refused by name, not rolled back into inf."""
        spots = np.array([100.0, 1e307])
        assert np.all(np.isfinite(price_profile_raw(table1, market, jan2004, spots, 20).value))
        with pytest.raises(DomainError, match=r"spot 1e\+307 .*200-step tree"):
            price_profile_raw(table1, market, jan2004, spots, 200)

    def test_rejects_overflowing_market(self, table1, issue):
        """A rate, spread or volatility whose growth, discount or coupon factor
        leaves the float range is refused by name; a large finite one prices."""
        wide = MarketParams(rate=0.05, credit_spread=1e3, sigma=0.3)
        assert price_tf_crr(table1, wide, issue, 100.0, 500).price == pytest.approx(100.0, rel=1e-12)
        wider = MarketParams(rate=0.05, credit_spread=1e5, sigma=0.3)
        with pytest.raises(ConfigurationError, match=r"^rate 0\.05, credit spread 100000 and "
                                                     r"volatility 0\.3 overflow the 10-step tree$"):
            price_tf_crr(table1, wider, issue, 100.0, 10)

    @pytest.mark.parametrize("order", ["reversed", "shuffled"])
    def test_grid_order_only_permutes_outputs(self, table1, market, jan2004, monkeypatch, order):
        """No computation reads the order of a spot grid: over two kernel
        blocks at the tests' small budget (the kernel runs the spots sorted),
        a permuted grid gives the permuted profile, bind counts, front layers,
        surface and stress increments bit for bit, and a reversed date grid
        the reversed rows."""
        monkeypatch.setattr(lattice, "BLOCK_CELLS", small_budget(60))
        grid = np.round(np.arange(50.0, 200.0, 0.5), 6)  # 300 spots
        perm = (np.arange(grid.size)[::-1] if order == "reversed"
                else np.random.default_rng(3).permutation(grid.size))

        base = price_profile_raw(table1, market, jan2004, grid, 60)
        moved = price_profile_raw(table1, market, jan2004, grid[perm], 60)
        assert np.array_equal(moved.equity, base.equity[perm])
        assert np.array_equal(moved.debt, base.debt[perm])
        assert np.array_equal(moved.fronts[0], base.fronts[0][perm])

        assert lattice._rollback_job(table1, market, jan2004, grid, 60, 2, True).rows < grid.size
        base = rollback_batch(table1, market, jan2004, grid, 60, front_layers=2, binds=True)
        moved = rollback_batch(table1, market, jan2004, grid[perm], 60, front_layers=2, binds=True)
        assert np.array_equal(moved.value, base.value[perm])
        assert np.array_equal(moved.binds, base.binds[:, perm])
        assert all(np.array_equal(m, b[perm]) for m, b in zip(moved.fronts, base.fronts))

        dates = [date(2003, 1, 2), jan2004]
        base = sensitivities.surface(table1, market, dates, grid, 60)
        moved = sensitivities.surface(table1, market, dates[::-1], grid[perm], 60)
        for name in ("value", "equity", "debt", "delta", "delta_pct", "gamma"):
            assert np.array_equal(getattr(moved, name), getattr(base, name)[::-1, perm]), name

        base = hedge.stress_increments(table1, market, jan2004, grid, 0.5, 60)
        moved = hedge.stress_increments(table1, market, jan2004, grid[perm], 0.5, 60)
        for b, m in zip(base, moved):
            assert np.array_equal(m, b[perm])

    def test_rejects_bad_roots(self, table1, market):
        with pytest.raises(DomainError):
            price_tf_crr(table1, market, date(2001, 1, 1), 100.0, 10)
        with pytest.raises(DomainError):
            price_tf_crr(table1, market, table1.maturity, 100.0, 10)
        with pytest.raises(DomainError):
            price_tf_crr(table1, market, date(2004, 1, 2), -5.0, 10)


class TestScalingAndComponents:
    def test_nominal_scaling_homogeneity(self, table1, market, jan2004):
        doubled = table1.with_nominal_scaled(2.0)
        a = price_tf_crr(table1, market, jan2004, 100.0, 200)
        b = price_tf_crr(doubled, market, jan2004, 100.0, 200)
        assert b.price == pytest.approx(2.0 * a.price, rel=1e-12)

    def test_all_nodes_nonnegative_split(self, table1, market, jan2004):
        res = rollback_batch(table1, market, jan2004, np.array([60.0, 100.0, 140.0]), 300,
                             front_layers=2)
        assert np.all(res.equity >= 0.0) and np.all(res.debt >= 0.0)
        for layer in res.fronts:
            assert np.all(layer >= 0.0)


class TestConversionFrontier:
    """The first node c_i from which the kernel skips a layer, against brute force
    on the kernel's own conversion products: every node from c_i up, in every row
    of the block, has conv > dirty call and conv >= dirty put, so it converts
    whatever its held value; and node c_i - 1 of the block's lowest row does not
    (the frontier is tight, which is where the saving comes from)."""

    @staticmethod
    def frontier(terms, market, t0, steps, spots):
        tl = Timeline(terms, t0)
        lp = build_crr_params(market.sigma, market.rate, tl.tau_maturity, steps)
        job = lattice._Rollback(tl, market, lp, np.asarray(spots), 0, binds=False)
        return job, job.frontier(job.rs.min())

    @staticmethod
    def check_layer(job, i, c):
        if not job.conv_active[i]:
            assert c == i + 1
            return
        N = job.N
        conv = job.rs[:, None] * job.pw[N - i : N + i + 1 : 2]
        settled = (conv > job.call_levels[i]) & (conv >= job.put_levels[i])
        assert 0 <= c <= i + 1
        assert settled[:, c:].all()
        if c > 0:
            assert not settled[np.argmin(job.rs), c - 1]

    @pytest.mark.parametrize("put", [
        None,
        PutTerms(105.0, date(2004, 1, 2), date(2005, 1, 2)),  # below the call
        PutTerms(125.0, date(2003, 6, 2), date(2005, 1, 2)),  # above the call
    ], ids=["reference", "put_below_call", "put_above_call"])
    @pytest.mark.parametrize("t0, steps", [
        (date(2004, 1, 2), 300),
        (date(2002, 1, 2), 120),  # the call opens mid-tree
    ])
    def test_matches_brute_force(self, table1, market, put, t0, steps):
        terms = replace(table1, put=put, conversion=replace(table1.conversion,
                                                              end=date(2006, 1, 2)))
        job, cs = self.frontier(terms, market, t0, steps, [118.0, 96.5, 131.0, 104.25])
        assert len(cs) == steps
        for i, c in enumerate(cs):
            self.check_layer(job, i, c)
        assert any(c < i + 1 for i, c in enumerate(cs))  # the skip is not empty
        assert not all(job.conv_active[:steps])  # conversion ends mid-tree

    @pytest.mark.parametrize("put, level", [
        (None, "call"),  # conv == call: a held value at the call continues
        (PutTerms(125.0, date(2004, 1, 2), date(2005, 1, 2)), "put"),  # conv == put > call
    ])
    def test_exact_ties(self, table1, market, put, level):
        terms, t0, steps, i = replace(table1, put=put), date(2004, 1, 2), 100, 20
        job, _ = self.frontier(terms, market, t0, steps, [100.0])
        target = (job.call_levels if level == "call" else job.put_levels)[i]
        power = job.pw[steps - i + 2 * (i // 2)]  # the middle node of layer i
        spot = next(s for s in (target / power, np.nextafter(target / power, 0.0),
                                np.nextafter(target / power, np.inf)) if s * power == target)
        job, cs = self.frontier(terms, market, t0, steps, [1.2 * spot, spot])
        self.check_layer(job, i, cs[i])



class TestLayerPlan:
    """A block's layer plan, the lists k, d, c, top and low over the layers,
    against brute force on the kernel's own conversion products over the
    block's rows: every node of the settled rows [0, k_i), in every row,
    continues at every later layer it reaches (its conversion value is at most
    b_i', the redemption at expiry, and b_i' lies between the put and the
    call); the guessed run [0, d_i) stops at c_i and below the held floor H_i
    less its 1e-9 margin, on the block's top row, and is exactly as long as
    that allows unless BAND_CELLS zeroes it; low_i is the put where it is
    above that level, else 0 (no check); c_i is the frontier
    (`TestConversionFrontier`) and top_i the nodes the next layer reads."""

    SHEETS = {
        "reference": (lambda terms: terms, 3),
        "put_above_call": (lambda terms: replace(
            terms, put=PutTerms(125.0, date(2003, 6, 2), date(2005, 1, 2))), 0),
        "conversion_ends": (lambda terms: replace(
            terms, conversion=replace(terms.conversion, end=date(2005, 6, 2))), 0),
    }

    @staticmethod
    def job(terms, market, spots, front_layers=0, t0=date(2004, 1, 2), steps=100):
        tl = Timeline(terms, t0)
        lp = build_crr_params(market.sigma, market.rate, tl.tau_maturity, steps)
        return lattice._Rollback(tl, market, lp, np.asarray(spots, dtype=float), front_layers,
                                 binds=False)

    @staticmethod
    def conv(job, rs, i):
        """(rows, i + 1) conversion values of layer i: the kernel's products, 0 where off."""
        if not job.conv_active[i]:
            return np.zeros((rs.size, i + 1))
        return rs[:, None] * job.pw[job.N - i : job.N + i + 1 : 2]

    def check_plan(self, job):
        """Check the first block's plan by brute force; return it."""
        N, rs = job.N, job.rs[: job.rows]
        rows, plan, b = rs.size, job.plan(rs), job.settled
        levels = [*b[:N], job.redemption]  # a settled node continues at expiry iff conv <= this
        assert len(plan) == 5 and all(len(column) == N for column in plan)
        for i, (k, d, c, top, low) in enumerate(zip(*plan)):
            TestConversionFrontier.check_layer(job, i, c)
            assert top == (i + 1 if i <= job.front_layers else max(c, plan[2][i - 1] + 1))
            if k:
                for later in range(i, N + 1):
                    reach = min(k + later - i, later + 1)
                    assert np.all(self.conv(job, rs, later)[:, :reach] <= levels[later])
                    assert later == N or job.puts[later] <= b[later] <= job.calls[later]
            guess = job.held_floor[i] * (1.0 - 1e-9) if job.held_floor[i] >= 2.0**-800 else 0.0
            top_row = self.conv(job, rs, i)[-1]
            n = min(int(np.argmax(np.append(top_row >= guess, True))), c)
            assert d <= c and np.all(top_row[:d] < guess)
            assert d == (n if n * rows >= lattice.BAND_CELLS else 0)
            if d:
                assert low == (job.puts[i] if job.puts[i] > guess else 0.0)
        return plan

    @pytest.mark.parametrize("sheet", list(SHEETS))
    def test_matches_brute_force(self, table1, market, sheet):
        terms, front_layers = self.SHEETS[sheet]
        job = self.job(terms(table1), market, np.linspace(130.0, 40.0, 200), front_layers)
        ks, ds, *_ = self.check_plan(job)
        assert any(k > 0 for k in ks)  # the settled floor is not empty
        assert any(d > k for k, d in zip(ks, ds))  # nor is the guessed run above it
        if sheet == "conversion_ends":
            assert not all(job.conv_active[: job.N])

    @pytest.mark.parametrize("where", ["inside_margin", "at_margin"])
    def test_guess_stops_below_margin(self, table1, market, where):
        """The top row's conversion value at node j of layer i is inside
        (H_i * (1 - 1e-9), H_i), or exactly H_i * (1 - 1e-9): either way the
        guessed run stops at node j, below it."""
        i, j = 60, 30  # node 30 of layer 60 has the power u^0 = 1, and the ratio is 1
        held = self.job(table1, market, [100.0]).held_floor[i]
        spot = held * (1.0 - 5e-10) if where == "inside_margin" else held * (1.0 - 1e-9)
        job = self.job(table1, market, np.linspace(0.6 * spot, spot, 200))
        top = job.rs[-1] * job.pw[job.N - i + 2 * j]
        if where == "inside_margin":
            assert held * (1.0 - 1e-9) < top < held
        else:
            assert top == held * (1.0 - 1e-9)
        _, ds, cs, _, _ = self.check_plan(job)
        assert ds[i] == j < cs[i] - 1  # node j + 1 is still below the frontier

    def test_put_at_the_level_is_not_checked(self, table1, market):
        """A put exactly at the level H_i * (1 - 1e-9) of a layer with a
        guessed run is under every held value, so low_i is 0 there; one ulp
        above the level it is the put.  The put's window ends between layers
        i and i + 1, so the floor above layer i does not see it."""
        t0, i = date(2004, 1, 2), 60
        job = self.job(table1, market, [100.0])
        level = job.held_floor[i] * (1.0 - 1e-9)
        tau = Timeline(table1, t0).tau_maturity * i / job.N  # layer i's time, as the kernel's
        end = t0 + timedelta(days=math.floor(tau * 365.0) + 3)  # before layer i + 1, 11 days on
        accrued = Timeline(table1, t0).accrued(tau)[0]
        for target in (level, np.nextafter(level, np.inf)):
            clean = next(x for x in (target - accrued, np.nextafter(target - accrued, 0.0),
                                     np.nextafter(target - accrued, np.inf))
                         if x + accrued == target)
            terms = replace(table1, put=PutTerms(float(clean), t0, end))
            job = self.job(terms, market, np.linspace(130.0, 40.0, 200))
            assert job.puts[i] == target and job.puts[i + 1] == 0.0
            assert job.held_floor[i] * (1.0 - 1e-9) == level
            _, ds, _, _, lows = self.check_plan(job)
            assert ds[i] > 0 and lows[i] == (0.0 if target == level else target)

    def test_no_run_on_a_tiny_floor(self, table1, market):
        """Scaled by 1e-250, the reference sheet's held floor is under 2^-800,
        where underflowing products could outgrow the margin: the plan guesses
        no run.  The settled floor does not rest on the margin and stays."""
        job = self.job(table1.with_nominal_scaled(1e-250), market, np.linspace(130.0, 40.0, 200))
        assert job.held_floor.max() < 2.0**-800
        ks, ds, *_ = self.check_plan(job)
        assert not any(ds) and any(ks)

    def test_held_floor_takes_a_put_above_the_call(self, table1, market):
        """Where the put binds above the call at layer i + 1, the held floor is
        H_i = min(disc_E, disc_B) * put_{i+1} + coupon_i."""
        terms = self.SHEETS["put_above_call"][0](table1)
        job = self.job(terms, market, [100.0])
        above = [i for i in range(job.N) if job.puts[i + 1] > job.calls[i + 1]]
        assert above
        for i in above:
            assert job.held_floor[i] == (min(job.disc_E, job.disc_B) * job.puts[i + 1]
                                         + job.injects[i])


class TestThinViews:
    @pytest.mark.parametrize("view", [
        lambda terms, mkt, t: price_tf_crr(terms, mkt, t, 100.0, 120),
        lambda terms, mkt, t: greek_point(terms, mkt, t, 100.0, 120),
        lambda terms, mkt, t: hedge_increment(terms, mkt, t, 100.0, 0.5, 120),
    ], ids=["price_tf_crr", "greek_point", "hedge_increment"])
    def test_one_engine_call_without_binds(self, table1, market, jan2004, monkeypatch, view):
        """Pointwise calls are views of the engine: one rollback each, and no
        bind counting, which only `cblab price` reads."""
        engine = lattice.rollback_batch
        asked = []

        def recording(*args, **kwargs):
            bound = inspect.signature(engine).bind(*args, **kwargs)
            bound.apply_defaults()
            asked.append(bound.arguments["binds"])
            return engine(*args, **kwargs)

        for module in (lattice, sensitivities, hedge, var):
            monkeypatch.setattr(module, "rollback_batch", recording)
        view(table1, market, jan2004)
        assert asked == [False]
