"""The rollback kernel against a plain reference roller, on random term sheets.

`reference_rollback` is the tree with nothing left out for speed: one (m, i+1)
array per layer, no blocks, no reused buffers, and the node rule written out
from the `lattice.decide` docstring.  Hypothesis draws the term sheets (call,
put and conversion windows that open and close inside the tree, puts above the
call, zero coupons, trees coarse enough that a coupon lands in the expiry
layer), the spot batches (block edges included) and the front layers, and
`rollback_batch` must match the reference bit for bit.  The same draws check
value invariants that hold for every sheet.  The draws run at a small block
budget (`small_budget`), a few hundred spots per block, since the kernel's own
budget holds any batch of these trees in one block.

The kernel skips the nodes that the block's lowest spot shows to convert
whatever their held value.  That needs conversion and a call in force and a
lowest spot near the rest of the block, so half the sheets have both rights
open over the whole life and half the batches are narrow spot bands; pinned
examples cover the skip's edge cases.

The kernel also skips `decide` on a certified run of continuing nodes up from
node 0, in layers where that run holds at least `lattice.BAND_CELLS` node-spots;
batches of up to 200 spots on trees of up to 120 steps cross that gate, and
the draws reach both the certified run and its fallback.  A call below the
sheet's cash value pins the fallback.

Below that gate a layer certifies its whole band [0, c_i) or none of it: if
every held value is at most the call and at least the conversion value and
the put, `decide` would keep every node, and the kernel skips it; otherwise it
decides the whole band.  Every batch of up to 17 spots on these trees takes
that path on every layer, and so does a wider one on its narrow layers.  A
property test holds the check to `decide` itself on small arrays with exact
ties, and a pinned single spot reaches the fallback: the call binds at node
c_i - 1, the last node below the frontier.  A second property test holds the
guessed run's certificate to `decide` on the same arrays, and on every draw
the certificate's verdict at every guessed run is the exact test that it
replaces (`certificate_verdicts`).  A put over the held floor where no call is
in force pins the certificate's put check on layers without a call.

The kernel also leaves unrolled the settled floor, the nodes [0, k_i) from
which no decision binds before expiry, whose E is +0 and whose B is one level
b_i per layer, where the floor holds at least BAND_CELLS node-spots.  Pinned
200-spot batches engage it and end it by each rule: a put above b_i, a call
under it, an expiry coupon that lifts b_N over a converting expiry node, and
front layers that the floor would reach without them.  A put or a call that
binds on every floor row resets the values there, so a floor that ignored it
would show only in the bind counts, which the reference roller checks too.
"""

import math
import tempfile
from contextlib import contextmanager
from dataclasses import replace
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from cblab import lattice, reference_market, reference_terms
from cblab.termsheet import (
    CallTerms,
    ConversionTerms,
    ConvertibleTerms,
    MarketParams,
    PutTerms,
    Timeline,
)

ISSUE = date(2002, 1, 2)
REF, REF_MKT, JAN2004 = reference_terms(), reference_market(), date(2004, 1, 2)
# call 95 against a cash value of about 109 at a 1% rate and no credit spread
LOW_CALL = (replace(REF, call=CallTerms(95.0, ISSUE, REF.maturity)), JAN2004,
            MarketParams(rate=0.01, credit_spread=0.0, sigma=0.3))


# Hypothesis caches the constants it reads from the source, while pytest collects,
# under ./.hypothesis by default: keep that cache out of the checkout
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "cblab-hypothesis")


def reference_rollback(terms, mkt, t0, spots, steps, front_layers):
    """Roll every spot's tree back to t0; returns (equity, debt, binds, fronts)
    with binds as conversion, call and put counts per spot."""
    tl = Timeline(terms, t0)
    lp = lattice.build_crr_params(mkt.sigma, mkt.rate, tl.tau_maturity, steps)
    N = steps
    taus = tl.tau_maturity * np.arange(N + 1) / N
    calls, puts = tl.call_dirty(taus), tl.put_dirty(taus)
    active = tl.conversion_active(taus)
    risky = mkt.rate + mkt.credit_spread
    inject = np.zeros(N + 1)
    for i, cash in tl.coupon_injections(taus, risky).items():
        inject[i] = cash
    disc_e, disc_b = math.exp(-mkt.rate * lp.dt), math.exp(-risky * lp.dt)
    p, q = lp.p_up, 1.0 - lp.p_up
    rs = (tl.ratio * spots)[:, None]

    binds = np.zeros((3, spots.size), dtype=np.int64)
    fronts = [None] * (front_layers + 1)
    # expiry: redeem or convert, i.e. the node rule with no call and no put
    E, B = np.zeros((spots.size, N + 1)), np.full((spots.size, N + 1), tl.redemption)
    for i in range(N, -1, -1):
        call, put = (np.inf, 0.0) if i == N else (calls[i], puts[i])
        if i < N:
            E = disc_e * (p * E[:, 1:] + q * E[:, :-1])
            B = disc_b * (p * B[:, 1:] + q * B[:, :-1]) + inject[i]
        if active[i]:
            conv = rs * lp.up ** np.arange(-i, i + 1, 2, dtype=float)
        else:
            conv = np.zeros_like(E)

        # V* = max(min(V, call), put, conv); ties: continuation > conversion > call > put
        V = E + B
        vstar = np.maximum(np.maximum(np.minimum(V, call), put), conv)
        held = (V <= call) & (vstar == V)
        converted = ~held & (vstar == conv)
        called = ~held & ~converted & (V > call) & (vstar == call)
        put_bound = ~held & ~converted & ~called
        # conversion pays shares (equity); call and put proceeds are cash (debt)
        E = np.where(held, E, np.where(converted, vstar, 0.0))
        B = np.where(held, B, np.where(converted, 0.0, vstar))
        binds += np.stack([converted.sum(axis=1), called.sum(axis=1), put_bound.sum(axis=1)])

        if i == N:
            # a coupon bucketed into the expiry layer is cash either way
            B = B + inject[N]
        if i <= front_layers:
            fronts[i] = E + B
    return E[:, 0], B[:, 0], binds, fronts


@st.composite
def instruments(draw, live=False):
    """A random term sheet, an evaluation date inside its life and a market.
    `live`: conversion and a call open over the whole life, the sheets on which
    the kernel skips nodes."""
    maturity = date(ISSUE.year + draw(st.integers(1, 5)), 1, 2)
    life = (maturity - ISSUE).days

    def window(whole=False):
        if whole:
            return ISSUE, maturity
        # as often at the ends of the life as inside it
        day = st.one_of(st.sampled_from([0, life]), st.integers(0, life))
        a, b = sorted((draw(day), draw(day)))
        return ISSUE + timedelta(days=a), ISSUE + timedelta(days=b)

    def right(kind, lo, hi, whole=False):
        if whole or draw(st.booleans()):
            return kind(draw(st.floats(lo, hi)), *window(whole))
        return None

    terms = ConvertibleTerms(
        nominal=100.0, issue=ISSUE, maturity=maturity,
        coupon_rate=draw(st.sampled_from([0.0, 0.03, 0.08])),
        coupon_frequency=draw(st.sampled_from([1, 2, 4])),
        conversion=ConversionTerms(draw(st.floats(0.0, 2.0)), *window(live)),
        call=right(CallTerms, 95.0, 130.0, live),
        put=right(PutTerms, 80.0, 130.0),  # may sit above the call
    )
    t0 = ISSUE + timedelta(days=draw(st.integers(0, life - 1)))
    mkt = MarketParams(rate=draw(st.floats(0.0, 0.08)), credit_spread=draw(st.floats(0.0, 0.06)),
                       sigma=draw(st.floats(0.2, 0.6)))
    return terms, t0, mkt


BLOCK_ROWS = 128  # full-height rows per block at the tests' small budget


def small_budget(steps):
    """A block budget of BLOCK_ROWS full-height rows of an N-step tree, in
    node-spots: blocks of BLOCK_ROWS * (N + 1) // H spots, at most a few
    hundred on these trees, where `lattice.BLOCK_CELLS` holds thousands."""
    return BLOCK_ROWS * (steps + 1)


@contextmanager
def block_budget(cells):
    """The kernel with a block budget of `cells` node-spots."""
    saved = lattice.BLOCK_CELLS
    lattice.BLOCK_CELLS = cells
    try:
        yield
    finally:
        lattice.BLOCK_CELLS = saved


def block_width(instrument, lowest, steps, front_layers):
    """The spots per block, at the small budget, of a batch too wide for one
    block whose lowest spot is `lowest`: BLOCK_ROWS full-height rows over the
    frontier height that spot sets."""
    terms, t0, mkt = instrument
    height = lattice._rollback_job(terms, mkt, t0, [lowest], steps, front_layers).height
    return small_budget(steps) // height


def assert_one_geometry(instrument, spots, steps, front_layers):
    """A rollback that counts binds runs the height, the blocks and each
    block's layer plan of one that does not."""
    terms, t0, mkt = instrument
    plain, counted = (lattice._rollback_job(terms, mkt, t0, spots, steps, front_layers, binds)
                      for binds in (False, True))
    assert (counted.height, counted.rows) == (plain.height, plain.rows)

    def plans(job):
        return [job.plan(job.rs[lo : lo + job.rows]) for lo in range(0, job.rs.size, job.rows)]

    assert plans(counted) == plans(plain)


def certificate_verdicts(instrument, spots, steps, front_layers):
    """Roll the batch back and return (call, put, verdict) of the run
    certificate at every guessed run [k_i, d_i) of every block, the verdict
    asserted equal to the exact
    test that it replaces: every held value of the run at most the call and
    at least the larger of the put and the run's top conversion value, the
    block's top product at node d_i - 1 (0 where conversion is off)."""
    terms, t0, mkt = instrument
    job = lattice._rollback_job(terms, mkt, t0, spots, steps, front_layers)
    N, plan, continues = job.N, job.plan, job.continues
    runs, verdicts = [], []  # runs: (layer, exact low) of the block's runs, the top layer last

    def planned(rs):
        assert not runs  # the last block certified each of its runs
        ks, ds, *_ = layers = plan(rs)
        prod = rs[-1] * job.pw_ceil
        runs.extend((i, max(job.puts[i], prod[max(N - i + 2 * ds[i] - 2, 0)]
                            if job.active[i] else 0.0))
                    for i in range(N) if ds[i] > ks[i])
        return layers

    def certified(E, B, V, call, put):
        i, low = runs.pop()
        held = E + B
        verdict = continues(E, B, V, call, put)
        assert call == job.calls[i]
        assert verdict == (held.max() <= call and held.min() >= low)
        verdicts.append((call, put, verdict))
        return verdict

    job.plan, job.continues = planned, certified
    for lo in range(0, job.rs.size, job.rows):
        job._roll_block(lo, min(lo + job.rows, job.rs.size))
    assert not runs
    return verdicts


SEEDS = st.integers(0, 2**32 - 1)
EDGE_MAX = 3 * BLOCK_ROWS  # wider blocks cost the reference roller too much per example


@st.composite
def rollbacks(draw):
    """(instrument, spots, steps, front_layers).  The spots are a batch in
    [1, 400], unordered, or a band [lo, lo * (1 + width)] with lo in [1, 400]
    and width <= 10%, sorted or not.  A batch holds up to 200 spots or sits on
    a block edge: the block width at the small budget for the drawn sheet, tree
    and lowest spot, less one, equal or plus one (a width over EDGE_MAX draws a size up
    to 200 instead)."""
    instrument = draw(st.one_of(instruments(), instruments(live=True)))
    steps = draw(st.one_of(st.integers(3, 12), st.integers(3, 120)))
    front_layers = min(draw(st.integers(0, 3)), steps)
    band = draw(st.booleans())
    lo = draw(st.floats(1.0, 400.0)) if band else 1.0
    hi = lo * (1.0 + draw(st.floats(0.0, 0.1))) if band else 400.0
    rng = np.random.default_rng(draw(SEEDS))
    if draw(st.booleans()):
        spots = rng.uniform(lo, hi, draw(st.integers(1, 200)))
    else:
        # the block width depends on the lowest spot alone: draw that first
        lowest = rng.uniform(lo, hi)
        rows = block_width(instrument, lowest, steps, front_layers)
        m = (rows + draw(st.sampled_from([-1, 0, 1])) if rows <= EDGE_MAX
             else draw(st.integers(1, 200)))
        spots = rng.permutation(np.append(lowest, rng.uniform(lowest, hi, m - 1)))
    if band and draw(st.booleans()):
        spots = np.sort(spots)
    return instrument, spots, steps, front_layers


REF_SHEET = (REF, JAN2004, REF_MKT)
# every expiry node at or above the height H converts: no layer holds them, and
# a rollback that counts binds counts them from their conversion values
ABOVE_H = (REF_SHEET, np.array([105.0, 100.0, 110.0]), 60, 0)
# conversion ends 2006-01-02: no node of the last layers is skipped, so H = N + 1
ENDS_2006 = ((replace(REF, conversion=replace(REF.conversion, end=date(2006, 1, 2))), JAN2004,
              REF_MKT), np.linspace(90.0, 130.0, 20), 50, 0)
# a call of 90 under the redemption of 102: some expiry nodes above H redeem
CALL_UNDER_REDEMPTION = ((replace(REF, call=CallTerms(90.0, ISSUE, REF.maturity)), JAN2004,
                          LOW_CALL[2]), np.array([95.0, 80.0, 110.0]), 120, 1)
# the same sheet, one spot of 102 on a 40-step tree: expiry node 20, the first at or
# above H, has the power u^0 and a conversion value equal to the redemption (it redeems)
TIE_AT_H = (CALL_UNDER_REDEMPTION[0], np.array([102.0]), 40, 0)
# conversion ends 2006-12-01, between the last two layers of a 12-step tree: expiry
# nodes above H would convert if it were on
CONVERSION_OFF_AT_EXPIRY = ((replace(REF, conversion=replace(REF.conversion,
                                                               end=date(2006, 12, 1))),
                             JAN2004, REF_MKT), np.array([150.0, 120.0, 200.0]), 12, 0)
# the settled floor, nodes [0, k_i) from which no decision binds before expiry, on
# at least BAND_CELLS node-spots (k_i * rows), ended by each rule in turn: a put of
# 105 above the floor's level b_i from 2005-01-02 to 2006-04-02
PUT_OVER_FLOOR = ((replace(REF, put=PutTerms(105.0, date(2005, 1, 2), date(2006, 4, 2))), JAN2004,
                   REF_MKT), np.linspace(20.0, 30.0, 200), 60, 0)
# the call of 90 under the redemption of 102, in force until 2006-04-02
CALL_UNDER_FLOOR = ((replace(REF, call=CallTerms(90.0, ISSUE, date(2006, 4, 2))), JAN2004,
                     LOW_CALL[2]), np.linspace(20.0, 30.0, 200), 60, 0)
# monthly coupons on a 50-step tree from issue: the last one lands in the expiry
# layer, and the top spot's expiry node 27 converts at a value between the
# redemption and the redemption plus that coupon
COUPON_AT_EXPIRY = ((replace(REF, coupon_frequency=12), ISSUE, REF_MKT),
                    np.linspace(50.0, 68.75, 200), 50, 0)
# front layers where the floor would reach without them: each front is rolled whole
DEEP_FRONTS = (REF_SHEET, np.linspace(5.0, 10.0, 200), 60, 30)
# a put of 115 over the held floor from 2002-06-02 to 2003-06-02, before the call
# opens in 2004: the guessed runs there fail on the put alone
PUT_WITHOUT_CALL = ((replace(REF, put=PutTerms(115.0, date(2002, 6, 2), date(2003, 6, 2))), ISSUE,
                     REF_MKT), np.linspace(20.0, 30.0, 200), 60, 0)


# print_blob: a failure prints the @reproduce_failure line that replays it exactly
@settings(derandomize=True, database=None, deadline=None, max_examples=200, print_blob=True)
@given(rollbacks())
# the root converts whatever its held value (c_0 = 0)
@example((REF_SHEET, np.array([150.0, 180.0, 240.0]), 40, 0))
# one block whose rows straddle the call level (110 clean, on a coupon date)
@example((REF_SHEET, np.linspace(125.0, 100.0, block_width(REF_SHEET, 100.0, 60, 0)), 60, 0))
# a put above the call, conversion above both
@example(((replace(REF, put=PutTerms(125.0, JAN2004, date(2005, 1, 2))), JAN2004, REF_MKT),
          np.array([128.0, 140.0, 150.0]), 50, 1))
# conversion ends mid-tree
@example(((replace(REF, conversion=replace(REF.conversion, end=date(2005, 6, 2))), JAN2004,
           REF_MKT), np.linspace(115.0, 125.0, 20), 50, 0))
# front layers that are themselves skipped, and skipping below them
@example((REF_SHEET, np.array([135.0, 130.0, 140.0]), 30, 3))
# the call sits below the cash value: a guessed continuation run fails its certificate
@example((LOW_CALL, np.linspace(60.0, 100.0, block_width(LOW_CALL, 60.0, 60, 0)), 60, 0))
# one spot: the call binds at node c_i - 1, so the whole-band certificate fails there
@example((REF_SHEET, np.array([100.0]), 40, 0))
@example(ABOVE_H)
@example(ENDS_2006)
@example(CALL_UNDER_REDEMPTION)
@example(TIE_AT_H)
@example(CONVERSION_OFF_AT_EXPIRY)
@example(PUT_OVER_FLOOR)
@example(CALL_UNDER_FLOOR)
@example(COUPON_AT_EXPIRY)
@example(DEEP_FRONTS)
@example(PUT_WITHOUT_CALL)
def test_kernel_matches_reference_roller(case):
    (terms, t0, mkt), spots, steps, front_layers = case
    with block_budget(small_budget(steps)):
        assert_one_geometry((terms, t0, mkt), spots, steps, front_layers)
        certificate_verdicts((terms, t0, mkt), spots, steps, front_layers)
        res = lattice.rollback_batch(terms, mkt, t0, spots, steps, front_layers, binds=True)
        plain = lattice.rollback_batch(terms, mkt, t0, spots, steps, front_layers)
        doubled = lattice.rollback_batch(terms.with_nominal_scaled(2.0), mkt, t0, spots, steps)
    equity, debt, binds, fronts = reference_rollback(terms, mkt, t0, spots, steps, front_layers)

    assert np.array_equal(res.binds, binds)
    # with bind counts and without: the same blocks, the same bits
    for run in (res, plain):
        assert np.array_equal(run.equity, equity)
        assert np.array_equal(run.debt, debt)
        assert len(run.fronts) == len(fronts)
        for got, want in zip(run.fronts, fronts):
            assert np.array_equal(got, want)

    # invariants of the node rule at the root (layer 0, tau = 0)
    tl = Timeline(terms, t0)
    value = res.value
    assert np.all(res.equity >= 0.0) and np.all(res.debt >= 0.0)
    conv0 = tl.ratio * spots if tl.conversion_active(0.0)[0] else np.zeros_like(spots)
    assert np.all(value >= conv0)
    call0, put0 = tl.call_dirty(0.0)[0], tl.put_dirty(0.0)[0]
    if np.isfinite(call0):
        assert np.all(value <= np.maximum(np.maximum(call0, put0), conv0))
    # doubling the nominal and everything quoted on it doubles the value exactly
    assert np.array_equal(doubled.value, 2.0 * value)


@pytest.mark.parametrize("case, above", [(ABOVE_H, "converts"), (ENDS_2006, "nothing"),
                                         (CALL_UNDER_REDEMPTION, "partly redeems"),
                                         (TIE_AT_H, "ties"),
                                         (CONVERSION_OFF_AT_EXPIRY, "conversion off")],
                         ids=["above_h", "ends_2006", "call_under_redemption", "tie_at_h",
                              "conversion_off_at_expiry"])
def test_pinned_heights(case, above):
    """The pinned examples reach what they are pinned for: the expiry nodes
    at or above the blocks' height H all convert, there are none (H = N + 1),
    some of them redeem, one has a conversion value equal to the redemption,
    or conversion is off at expiry and would convert some of them.  A
    rollback that counts binds runs each of them at the same height H, and
    counts the expiry conversions above it from their conversion values."""
    (terms, t0, mkt), spots, steps, front_layers = case
    job = lattice._rollback_job(terms, mkt, t0, spots, steps, front_layers)
    counted = lattice._rollback_job(terms, mkt, t0, spots, steps, front_layers, binds=True)
    assert counted.height == job.height
    tl = Timeline(terms, t0)
    # expiry node j of each spot: ratio * spot * u^(2j - N), from the kernel's power table
    conv = (tl.ratio * np.sort(spots))[:, None] * job.pw[0::2][job.height:]
    converts = conv > tl.redemption
    if above == "nothing":
        assert job.height == steps + 1
    elif above == "converts":
        assert job.height < steps + 1 and converts.all()
    elif above == "ties":
        assert np.any(conv == tl.redemption)
    elif above == "conversion off":
        assert not tl.conversion_active(tl.tau_maturity)[0] and converts.any()
    else:
        assert converts.any() and not converts.all()


@pytest.mark.parametrize("case, end", [(PUT_OVER_FLOOR, "put"), (CALL_UNDER_FLOOR, "call"),
                                       (COUPON_AT_EXPIRY, "coupon"), (DEEP_FRONTS, "fronts")],
                         ids=["put_over_floor", "call_under_floor", "coupon_at_expiry",
                              "deep_fronts"])
def test_pinned_floors(case, end):
    """The pinned floors reach the gate, k_i * rows >= BAND_CELLS on some layer
    of the first block, and what they are pinned for: a put above the level
    b_i or a call under it up to a layer right after which the floor holds,
    an expiry coupon that lifts b_N over a converting expiry node of the
    block's top spot (the floor's expiry test is the redemption, not b_N), or
    front layers into which the floor would reach without them."""
    (terms, t0, mkt), spots, steps, front_layers = case

    def first_block(front_layers):
        with block_budget(small_budget(steps)):  # as the reference roller runs it
            job = lattice._rollback_job(terms, mkt, t0, spots, steps, front_layers)
        rows = min(job.rows, spots.size)
        return job, job.rs[rows - 1], job.plan(job.rs[:rows])[0] + [0], rows  # k_N = 0

    job, rs_max, ks, rows = first_block(front_layers)
    assert max(ks) * rows >= lattice.BAND_CELLS
    b, N = job.settled, steps
    if end in ("put", "call"):
        last = max(i for i in range(N)
                   if (b[i] < job.puts[i] if end == "put" else b[i] > job.calls[i]))
        assert ks[last] == 0 and ks[last + 1] * rows >= lattice.BAND_CELLS
    elif end == "coupon":
        top = rs_max * job.pw[0::2]  # the expiry conversion values of the block's top spot
        assert job.injects[N] != 0.0 and np.any((top > job.redemption) & (top <= b[N]))
    else:
        assert max(ks[: front_layers + 1]) == 0
        assert max(first_block(0)[2][: front_layers + 1]) > 0


def test_put_without_call_fails_its_run():
    """PUT_WITHOUT_CALL reaches what it is pinned for: a guessed run on a
    layer with no call in force whose certificate checks the put and fails on
    it, at the reference roller's budget."""
    instrument, spots, steps, front_layers = PUT_WITHOUT_CALL
    with block_budget(small_budget(steps)):
        verdicts = certificate_verdicts(instrument, spots, steps, front_layers)
    assert any(call == math.inf and put > 0.0 and not ok for call, put, ok in verdicts)


@pytest.mark.parametrize("instrument, spots, outcome", [
    (REF_SHEET, np.linspace(95.0, 105.0, block_width(REF_SHEET, 95.0, 60, 0)), True),
    (LOW_CALL, np.linspace(60.0, 100.0, block_width(LOW_CALL, 60.0, 60, 0)), False),
], ids=["certified", "fallback"])
def test_band_certificate_outcome(monkeypatch, instrument, spots, outcome):
    """The reference sheet certifies guessed continuation runs; the low call
    refuses some, so the whole band is decided there.  Either way the
    result is the reference roller's."""
    seen = []
    certify = lattice._Rollback.continues

    def spy(*args):
        seen.append(bool(certify(*args)))
        return seen[-1]

    monkeypatch.setattr(lattice._Rollback, "continues", staticmethod(spy))
    terms, t0, mkt = instrument
    res = lattice.rollback_batch(terms, mkt, t0, spots, 60)
    assert outcome in seen
    equity, debt, _, _ = reference_rollback(terms, mkt, t0, spots, 60, 0)
    assert np.array_equal(res.equity, equity) and np.array_equal(res.debt, debt)


@pytest.mark.parametrize("spots", [np.array([100.0]), np.array([110.0, 110.5])],
                         ids=["price", "hedge"])
def test_small_band_certificate_outcomes(monkeypatch, spots):
    """At batch width 1 or 2 every band is under BAND_CELLS: on the reference
    sheet some layers keep their whole band and skip `decide`, and the layers
    where the call binds decide it; the values and the bind counts are the
    reference roller's."""
    seen = []
    certify = lattice._Rollback.keeps

    def spy(*args):
        seen.append(bool(certify(*args)))
        return seen[-1]

    monkeypatch.setattr(lattice._Rollback, "keeps", staticmethod(spy))
    res = lattice.rollback_batch(REF, REF_MKT, JAN2004, spots, 40, 1, binds=True)
    assert len(seen) == 40 and set(seen) == {True, False}
    equity, debt, binds, fronts = reference_rollback(REF, REF_MKT, JAN2004, spots, 40, 1)
    assert np.array_equal(res.equity, equity) and np.array_equal(res.debt, debt)
    assert np.array_equal(res.binds, binds) and binds[1].sum() > 0
    assert all(np.array_equal(got, want) for got, want in zip(res.fronts, fronts))


# held values, conversion values, calls and puts drawn from one set of levels,
# so that V == call, V == conv and V == put all occur
LEVELS = st.sampled_from([0.0, 50.0, 99.5, 100.0, 110.0, 131.25])


@st.composite
def small_bands(draw):
    """(E, B, conv, call, put) for a band of up to 4 nodes and 3 spots, with
    E, B >= 0 as in the tree: each held value is a level split exactly into E
    and B (all in one part or half in each) or the sum of two free values."""
    shape = (draw(st.integers(0, 4)), draw(st.integers(1, 3)))
    E, B, conv = np.empty(shape), np.empty(shape), np.empty(shape)
    for k in np.ndindex(shape):
        v = draw(LEVELS)
        E[k], B[k] = draw(st.sampled_from([(v, 0.0), (0.0, v), (v / 2, v / 2),
                                           (draw(st.floats(0.0, 200.0)),
                                            draw(st.floats(0.0, 200.0)))]))
        conv[k] = draw(LEVELS)
    call = draw(st.one_of(LEVELS, st.just(math.inf)))
    put = draw(st.one_of(st.just(0.0), LEVELS))
    return E, B, conv, call, put


@settings(derandomize=True, database=None, deadline=None, max_examples=400, print_blob=True)
@given(small_bands())
def test_small_band_certificate_is_decide(band):
    """The whole-band certificate holds exactly when `decide` decides no node,
    and then `decide` leaves E and B bitwise as they were.  (A decided node
    may be rewritten with its own bits, say V > call with E = conv = V and
    B = 0; the certificate fails there and `decide` runs, so that is exact.)"""
    E, B, conv, call, put = band
    V = np.empty_like(E)
    keeps = lattice._Rollback.keeps(E, B, V, conv, call, put)
    assert np.array_equal(V, E + B)

    E2, B2 = E.copy(), B.copy()
    ncont, convb = (np.empty(E.shape, dtype=bool) for _ in range(2))
    lattice.decide(E2, B2, np.empty_like(E), np.empty_like(E), conv, call, put, ncont, convb)
    assert keeps == (not ncont.any())
    if keeps:
        assert E2.tobytes() == E.tobytes() and B2.tobytes() == B.tobytes()


@settings(derandomize=True, database=None, deadline=None, max_examples=400, print_blob=True)
@given(small_bands().filter(lambda band: band[0].size > 0))
def test_run_certificate_is_decide(band):
    """The guessed run's certificate holds exactly when `decide` decides no
    node of a run whose conversion values are at most every held value, as
    the held floor makes them (here each equals the least held value, a tie,
    which continues): held values equal to the call or to the put continue in
    both.  A put at most every held value may also be passed as 0, no check,
    as `plan` passes a put at or under the level; where neither check
    remains nothing is computed, else V holds E + B."""
    E, B, _, call, put = band
    held = E + B
    ncont, convb = (np.empty(E.shape, dtype=bool) for _ in range(2))
    lattice.decide(E.copy(), B.copy(), np.empty_like(E), np.empty_like(E),
                   np.full_like(E, held.min()), call, put, ncont, convb)
    for checked in (put, 0.0) if put <= held.min() else (put,):
        V = np.full_like(E, np.nan)
        certified = lattice._Rollback.continues(E, B, V, call, checked)
        assert certified == (not ncont.any())
        if call == math.inf and checked == 0.0:
            assert np.isnan(V).all()
        else:
            assert np.array_equal(V, held)
