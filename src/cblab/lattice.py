"""Binomial-lattice pricing of convertibles with split risk-free/risky discounting.

The bond value at every node is carried as two components, an equity part E
(discounted at the risk-free rate) and a cash-only part B (discounted at the
risky rate), with V = E + B.  Rollback applies the node decision rule
max[min(Q1, Q2), Q3, Q4] where Q1 is the held value, Q2 the dirty call price,
Q3 the dirty put price and Q4 the conversion value.  Conversion is the only
outcome settled in shares; cash outcomes (redemption, call, put) keep their
value in B, which is what couples the credit spread to the exercise decisions.

`decide` is the one implementation of that rule and its E/B split, and
`expire` the one expiry layer (no call, no put: redeem or convert, plus any
coupon bucketed into it).  The tree and the finite-difference solver in `fd`
both run them.

The rollback kernel is vectorized over a batch of root spot prices: every spot
still gets its own full tree, and batch results are bit-identical to pricing
each spot alone (all operations are elementwise).  A batch runs serially in
blocks that reuse one block's buffers, so its memory is bounded whatever the
batch size.  `rollback_batch` is the one engine:
`price_tf_crr` (one spot's value split) and `price_profile_raw` are views of
it, and it counts the nodes each constraint decided only when its caller asks
(`binds`).

Each block rolls back layer i by its layer plan (`plan`), one entry per layer
built before the layer loop.  A node continues iff its held value V = E + B is
at most the dirty call and at least the dirty put and its conversion value
(ties continue), and `decide` leaves a continuing node as it is; so the plan
splits layer i into four zones:
- [0, k_i), the settled floor: nodes that no decision can reach before expiry;
- [k_i, d_i), the guessed run: kept if a certificate shows that it continues;
- [d_i, c_i), the decided band ([k_i, c_i) if d_i <= k_i or the certificate
  fails);
- [c_i, i + 1), the frontier: nodes that convert whatever their held value.
Every bound is one mapping (`nodes`) of a level per layer: the first node j of
layer i whose product rs * pw[N - i + 2j] is above the level ("right") or at
least it ("left"), clipped to [0, i + 1], and i + 1 where conversion is off;
it is monotone in the level.  Conversion values rise with the node index and
with the spot, and rounding a product is monotone, so the block's lowest
ratio * spot rs times `pw_floor` (the power table's suffix minimum) is at most
every spot's conversion value, and its highest times `pw_ceil` (the prefix
maximum) at least every spot's at and below the node.

The frontier.  A node whose conversion value is above the dirty call and at
least the dirty put converts whatever its held value V: min(V, call) <= call
< conv gives V* = conv, so `decide` would set E = conv and B = 0.  c_i is the
larger of the call's "right" and the put's "left" mapping on the lowest
products.  The kernel writes E = conv, B = 0 into the nodes [c_i, top_i) that
the next layer reads (top_i = max(c_i, c_{i-1} + 1), i + 1 on a front layer)
and skips the rest, bit-identical to deciding every node.  Node-major
(H, rows) buffers make a band [0, c_i) one contiguous run of c_i * rows
values, so each numpy call on it runs one flat loop.

The blocks run over the spots in ascending order (a stable sort), and the
outputs come back in the caller's order.  A block of neighbouring spots gets a
tighter frontier from its lowest spot and a longer guessed run and settled
floor from its highest.  With c_i the frontier of the batch's lowest spot, at
or above every block's, no layer touches a node at or above the height
H = max(front_layers, c_i for every layer i >= front_layers) + 1 <= N + 1, so
the buffers are H nodes tall and the expiry layer runs on [0, H) only, whether
or not the rollback counts binds.  Bind counts take the expiry nodes [H, N + 1)
that convert by `expire`'s rule, rs * pw[2j] > redemption where conversion is
on (ties continue), from those products.  A block holds min(m, BLOCK * (N+1) // H) spots (`rows`) of a
batch of m, so the workspace stays within BLOCK full-height rows whatever H.  A
500-spot VaR chunk at N=500 has H = 254-255 and runs in two blocks of about 250
spots.

The settled floor.  A node from which no decision can bind before expiry is
pure risky debt (Tsiveriotis-Fernandes): E = 0 and B = b_i, the risky present
value of the remaining cash, one number per layer (`settled`) since every spot
shares u, p and the discounts: b_N = redemption + the expiry coupon and
b_i = ((b_{i+1} * q) + (b_{i+1} * p)) * disc_B + coupon_i, the kernel's own
IEEE operations in its order, so these are the bits it would roll; E stays
the +0 that `expire` wrote, since 0 * p + 0 * q is +0.  A node of layer i
continues whatever the spot of its block if b_i is at most the call and at
least the put and the block's largest conversion value there is at most b_i
(the redemption at expiry): K_i is the "right" mapping of b_i on the highest
products, 0 where b_i is above the call or below the put.  Node j of layer i
reaches nodes j..j + i' - i of layer i', so k_i = min over i' >= i of
K_i' - (i' - i): the floor shrinks by at least one node per layer back from
expiry, and the settled rows [k_i, k_{i+1}) that layer i reads are still as
`expire` wrote them, E = +0 included.  The layer writes b_{i+1} into their B,
then rolls back, certifies and decides only [k_i, c_i).  k_i = 0 on a front
layer (a front reads its whole layer) and at expiry (`expire` writes it
whole).  On a 500-spot VaR chunk at N=500 the floor holds 49% of the band's
node-spots (k_i is about i - 249).

The guessed run:
- floor: once per rollback, H_i = a * L_{i+1} + coupon_i with a = min(disc_E,
  disc_B), L_N = redemption + the expiry coupon and L_i = max(put_i, min(H_i,
  call_i)).  In exact arithmetic L_i is under every decided value V* and H_i
  under every held value V; L_i is not under V where a put binds.
- guess: d_i is the smaller of c_i and the "left" mapping of H_i less a 1e-9
  relative margin on the highest products: the largest conversion values of
  [0, d_i) are below that.
- certificate: with V = E + B on [k_i, d_i), max V <= call_i and min V >=
  low_i, the larger of put_i and the run's top conversion value (node
  d_i - 1).  Then `decide` would keep every node of the run, so skipping it
  changes no bit; otherwise the whole band [k_i, c_i) is decided.  The floor
  is only a guess; the certificate is exact.

One threshold, BAND_CELLS node-spots, gates both zones.  The floor saves
element work, not numpy calls, at a row write per layer and O(N) tables per
block, and the certificate's two reductions and one add cost less than the
decisions they skip only on a long run.  So k_i = 0 where k_i * rows is under
BAND_CELLS, and so is d_i where d_i * rows is; a block whose band never
reaches it (c_i * rows; every block of one or two spots at N=500) computes
neither `held_floor` nor `settled`, since k_i <= c_i (a settled node's
conversion value is at most b_i <= call).

A band under BAND_CELLS node-spots is instead certified whole, node by node:
one add, elementwise comparisons with the conversion values, the call where it
is finite and the put where it is positive (E, B >= 0 in the tree), and one
count.  If every node continues, the layer skips `decide` and the bind counts,
since nothing bound; otherwise it decides the whole band.  On pointwise quotes
over the bond's life `decide` is left out on about three layers in four: where
it runs, it usually changes only node c_i - 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, DomainError
from .termsheet import ConvertibleTerms, MarketParams, Timeline, check_integer

__all__ = [
    "LatticeParams",
    "NodeValue",
    "PriceResult",
    "build_crr_params",
    "check_steps",
    "decide",
    "expire",
    "price_tf_crr",
    "price_profile_raw",
    "rollback_batch",
]

# a block's workspace in full-height rows: BLOCK * (N+1) node-spots, whatever the batch
# size; a batch of frontier height H runs BLOCK * (N+1) // H spots per block in it
BLOCK = 128
# a layer certifies a guessed continuation run only from this many node-spots up,
# where its reductions cost less than the decisions it skips (BENCH_16.json
# crossover); a smaller band is certified whole, node by node
BAND_CELLS = 2048
# the largest tree: a block's buffers take at most (N+1) * BLOCK * 42 bytes, 53.8 MB at the cap
MAX_TREE_STEPS = 10**4
# the zero that the layer loops' ufunc calls read: a 0-d array, read-only since every call shares it
ZERO = np.zeros(())
ZERO.flags.writeable = False


@dataclass(frozen=True)
class LatticeParams:
    """Step count and per-step dynamics of a recombining binomial tree."""

    steps: int
    dt: float
    up: float
    down: float
    p_up: float


@dataclass(frozen=True)
class NodeValue:
    """TF value split at one node: equity part E, cash-only part B."""

    equity: float
    debt: float

    @property
    def value(self) -> float:
        return self.equity + self.debt


@dataclass(frozen=True)
class PriceResult:
    """Root node value of one pricing run."""

    node: NodeValue

    @property
    def price(self) -> float:
        """Dirty price at the root."""
        return self.node.value


def check_steps(steps) -> int:
    """A tree's step count as an int: an integer (`check_integer`) from 1 up
    to MAX_TREE_STEPS."""
    steps = check_integer(steps, "tree steps")
    if steps < 1:
        raise ConfigurationError("steps must be >= 1")
    if steps > MAX_TREE_STEPS:  # before the tree's O(N) tables and buffers exist
        raise ConfigurationError(f"{steps:,} tree steps exceed the limit of {MAX_TREE_STEPS:,}")
    return steps


def check_spot_numbers(values) -> np.ndarray:
    """Spot prices of any shape as a float array, each an integer or float number before any
    conversion: a bool (even in a list of floats), a string or any other object is refused."""
    arr = np.asarray(values)
    if arr.dtype.kind not in "iuf":
        raise DomainError(f"spot prices must be integer or float numbers, got dtype {arr.dtype}")
    if not isinstance(values, np.ndarray) and any(
            isinstance(x, (bool, np.bool_)) for x in np.asarray(values, dtype=object).flat):
        raise DomainError("spot prices must be integer or float numbers, got a bool among them")
    return arr.astype(float, copy=False)


def check_spots(spots) -> np.ndarray:
    """Root spot prices as a float array: a nonempty 1-D array of integer or
    float numbers (`check_spot_numbers`), each finite and > 0."""
    spots = check_spot_numbers(spots)
    if spots.ndim != 1 or spots.size == 0:
        raise DomainError("spots must be a nonempty 1-D array")
    if not np.all(np.isfinite(spots)) or np.any(spots <= 0):
        raise DomainError("spot prices must be finite and > 0")
    return spots


def build_crr_params(sigma: float, rate: float, horizon: float, steps: int) -> LatticeParams:
    """Standard recombining-tree parameters: u = exp(sigma*sqrt(dt)), d = 1/u,
    p = (exp(r*dt) - d)/(u - d)."""
    if steps < 1:
        raise ConfigurationError("steps must be >= 1")
    if horizon <= 0:
        raise ConfigurationError("horizon must be positive")
    if sigma <= 0:
        raise ConfigurationError("sigma must be > 0")
    dt = horizon / steps
    up = math.exp(sigma * math.sqrt(dt))
    down = 1.0 / up
    if up == down:
        raise ConfigurationError(f"sigma {sigma:g} is too small for a {steps}-step tree to move")
    p_up = (math.exp(rate * dt) - down) / (up - down)
    if not 0.0 < p_up < 1.0:
        raise ConfigurationError(f"risk-neutral probability {p_up:.6g} outside (0,1); "
                                 "dt too large for this sigma/rate")
    return LatticeParams(steps=steps, dt=dt, up=up, down=down, p_up=p_up)


def decide(E, B, V, vs, conv, call, put, ncont, convb) -> None:
    """The node rule, in place: V* = max(min(V, call), put, conv), V = E + B.

    Ties resolve continuation > conversion > call > put.  A continuing node
    keeps its E/B split.  Every decided node takes V* (a binding call or put
    sets V* to its level exactly): into E when conversion binds, since it pays
    shares, and into B otherwise, since call and put proceeds are contractual
    cash.  E and B are updated; V, vs, ncont and convb are left holding the
    held value, V*, "decided" and "converted", whatever they held on entry
    (convb is scratch until it is set).  All arrays share one shape; `call`
    and `put` are floats or 0-d arrays (the same bits; 0-d arrays cost least).
    """
    np.add(E, B, out=V)
    np.minimum(V, call, out=vs)
    np.maximum(vs, put, out=vs)
    np.maximum(vs, conv, out=vs)
    np.greater(V, call, out=ncont)
    np.not_equal(vs, V, out=convb)
    np.logical_or(ncont, convb, out=ncont)
    np.equal(vs, conv, out=convb)
    np.logical_and(convb, ncont, out=convb)
    np.copyto(E, ZERO, where=ncont)
    np.copyto(E, vs, where=convb)
    np.copyto(B, vs, where=ncont)
    np.copyto(B, ZERO, where=convb)


def expire(E, B, V, vs, conv, redemption, coupon, ncont, convb) -> None:
    """The expiry layer, in place: redeem or convert (`decide` with no call and
    no put from E = 0, B = redemption), then add to B `coupon`, a pre-maturity
    coupon that a coarse grid buckets into this layer: received cash either
    way, since conversion at expiry forfeits the final coupon, not this one.
    V, vs, ncont and convb are left as `decide` leaves them."""
    E.fill(0.0)
    B.fill(redemption)
    decide(E, B, V, vs, conv, np.inf, 0.0, ncont, convb)
    if coupon != 0.0:
        B += coupon


@dataclass(frozen=True)
class BatchResult:
    """Vectorized rollback output for a batch of root spots."""

    equity: np.ndarray        # (m,) root E per spot
    debt: np.ndarray          # (m,) root B per spot
    params: LatticeParams
    binds: np.ndarray | None  # (3, m) conversion, call, put node counts; None unless asked for
    fronts: list[np.ndarray]  # constrained V at layers 0..front_layers, (m, k+1) each

    @property
    def value(self) -> np.ndarray:
        return self.equity + self.debt


class _Rollback:
    """One rollback: its per-layer inputs (the settled floor's levels among
    them, computed when a block first needs them), the spots in ascending
    order, the node-major buffers that every block reuses (E, B, V (also the
    rollback scratch), V*, conversion values and two node masks, `height`
    nodes tall and `rows` spots wide), and the output arrays in that order,
    which each block fills in its own rows."""

    def __init__(self, timeline: Timeline, mkt: MarketParams, lp: LatticeParams,
                 spots: np.ndarray, front_layers: int, binds: bool):
        self.lp = lp
        N = self.N = lp.steps
        taus = timeline.tau_maturity * np.arange(N + 1) / N
        self.call_levels = timeline.call_dirty(taus)
        self.put_levels = timeline.put_dirty(taus)
        self.conv_active = timeline.conversion_active(taus)
        self.redemption = timeline.redemption

        risky = mkt.rate + mkt.credit_spread
        # the layer loop branches on Python floats and bools from lists, and its ufunc
        # calls read 0-d arrays (views such as call_levels[i, ...]): numpy converts a
        # Python or numpy float operand on every call, a 0-d array it reads as it is
        self.inject_levels = np.zeros(N + 1)
        for i, cash in timeline.coupon_injections(taus, risky).items():
            self.inject_levels[i] = cash
        self.calls, self.puts, self.active, self.injects = (x.tolist() for x in (
            self.call_levels, self.put_levels, self.conv_active, self.inject_levels))

        # node conversion value at layer i, node j: ratio * spot * u^(2j-i);
        # the powers u^-N..u^N are tabulated once, layer i reads pw[N-i : N+i+1 : 2]
        self.pw = lp.up ** np.arange(-N, N + 1, dtype=float)
        # suffix minimum of pw: non-decreasing, and equal to pw wherever pw is,
        # so the frontier search is exact even if pow() ever broke monotonicity
        self.pw_floor = np.minimum.accumulate(self.pw[::-1])[::-1]
        # prefix maximum of pw: at index k, at least every conversion power at or below k
        self.pw_ceil = np.maximum.accumulate(self.pw)
        self.layers = np.arange(N + 1)
        # blocks of neighbouring spots: stable, so equal spots keep the caller's order
        self.order = np.argsort(spots, kind="stable")
        self.rs = timeline.ratio * spots[self.order]  # non-decreasing: the ratio is >= 0
        self.disc_E = math.exp(-mkt.rate * lp.dt)
        self.disc_B = math.exp(-risky * lp.dt)
        self.p, self.q = lp.p_up, 1.0 - lp.p_up
        self.coeffs = [np.array(x) for x in (self.p, self.q, self.disc_E, self.disc_B)]
        self.front_layers = front_layers

        # the lowest spot's frontier is at or above every block's, so no block
        # reads or writes a node at or above the height H it sets
        m = spots.size
        self.cs = self.frontier(self.rs[0])
        self.height = int(self.cs[front_layers:].max(initial=front_layers) + 1)
        self.rows = min(m, BLOCK * (N + 1) // self.height)
        self.buffers = [np.empty((self.height, self.rows), dtype=t)
                        for t in (float,) * 5 + (bool,) * 2]
        self.equity, self.debt = np.empty(m), np.empty(m)
        self.fronts = [np.empty((m, k + 1)) for k in range(front_layers + 1)]
        # rows: conversion, call, put
        self.binds = np.zeros((3, m), dtype=np.int64) if binds else None

    def nodes(self, prod: np.ndarray, levels: np.ndarray, side: str) -> np.ndarray:
        """The level-to-node mapping of layers i = 0 .. len(levels) - 1: the
        first node j of layer i whose product prod[N - i + 2j] is above
        levels[i] (`side` "right") or at least it ("left"), in [0, i + 1], and
        i + 1 where conversion is off.  `prod` is non-decreasing, so the
        mapping is monotone in the level."""
        n = len(levels)
        i = self.layers[:n]
        first = np.searchsorted(prod, levels, side=side)
        return np.where(self.conv_active[:n], np.clip((first - self.N + i + 1) // 2, 0, i + 1),
                        i + 1)

    def frontier(self, rs_min: float) -> np.ndarray:
        """c_i for each layer i < N: the first node from which every node of a
        block whose lowest ratio * spot is `rs_min` is decided by conversion
        whatever its held value: conv > dirty call and conv >= dirty put."""
        N = self.N
        prod = rs_min * self.pw_floor  # non-decreasing, and <= every spot's conv at each node
        return np.maximum(self.nodes(prod, self.call_levels[:N], "right"),
                          self.nodes(prod, self.put_levels[:N], "left"))

    @cached_property
    def held_floor(self) -> np.ndarray:
        """H_i for each layer i < N: a floor under every held value, computed
        once per rollback.  Every decided value V*_{i+1} is at least L_{i+1}
        (L_N = redemption + the expiry coupon, L_i = max(put_i, min(H_i,
        call_i))), and E, B >= 0, so the rolled-back value is at least
        H_i = min(disc_E, disc_B) * L_{i+1} + coupon_i, in exact arithmetic."""
        N, a = self.N, min(self.disc_E, self.disc_B)
        calls, puts, inject = self.calls, self.puts, self.injects
        held, floor = [0.0] * N, self.redemption + inject[N]
        for i in range(N - 1, -1, -1):
            held[i] = a * floor + inject[i]
            floor = max(puts[i], min(held[i], calls[i]))
        return np.array(held)

    @cached_property
    def settled(self) -> list[float]:
        """b_i for each layer i <= N: the B of a node from which no decision
        binds before expiry (its E is +0).  b_N = redemption + the expiry
        coupon, as `expire` adds it, and b_i = ((b_{i+1} * q) + (b_{i+1} * p))
        * disc_B + coupon_i: the kernel's own IEEE operations, in its order,
        on Python floats (adding a zero coupon to b > 0 changes no bit),
        computed once per rollback."""
        N, p, q, disc, inject = self.N, self.p, self.q, self.disc_B, self.injects
        b = [0.0] * (N + 1)
        b[N] = self.redemption + inject[N]
        for i in range(N - 1, -1, -1):
            b[i] = (b[i + 1] * q + b[i + 1] * p) * disc + inject[i]
        return b

    def plan(self, rs: np.ndarray) -> tuple[list[int], list[int], list[int], list[int], list]:
        """The layer plan of a block whose ascending ratio * spot is `rs`: the
        lists k, d, c, top and low over the layers i < N, the zones of the
        module docstring and the least held value that certifies the guessed
        run [k_i, d_i).  A block whose band never reaches BAND_CELLS node-spots
        gets k = d = 0 and computes neither floor."""
        N, rows, i = self.N, rs.size, self.layers[: self.N]
        # the first block holds the batch's lowest spot, whose frontier is known
        c = self.cs if rs[0] == self.rs[0] else self.frontier(rs[0])
        # nodes layer i must hold: all of a front, else [0, c_{i-1}] for the next layer
        top = np.where(i <= self.front_layers, i + 1, np.maximum(c, np.append(0, c[:-1] + 1)))
        if c.max() * rows < BAND_CELLS:  # k_i <= c_i: a smaller band has no zone to skip
            return [0] * N, [0] * N, c.tolist(), top.tolist(), [0] * N
        prod = rs[-1] * self.pw_ceil  # non-decreasing, and >= every spot's conv at and below
        d = np.minimum(self.nodes(prod, self.held_floor * (1.0 - 1e-9), "left"), c)
        b = np.array(self.settled)
        # the expiry layer's test is the redemption, not b_N
        K = self.nodes(prod, np.append(b[:N], self.redemption), "right")
        K[:N][(b[:N] > self.call_levels[:N]) | (b[:N] < self.put_levels[:N])] = 0
        k = np.minimum.accumulate((K - self.layers)[::-1])[::-1][:N] + i
        k[: self.front_layers + 1] = 0
        for x in (k, d):
            x[x * rows < BAND_CELLS] = 0
        # the run's top conversion value, at node d_i - 1 (any node where d_i = 0)
        top_conv = np.where(self.conv_active[:N], prod[np.maximum(N - i + 2 * d - 2, 0)], 0.0)
        low = np.maximum(self.put_levels[:N], top_conv)
        return k.tolist(), d.tolist(), c.tolist(), top.tolist(), low.tolist()

    @staticmethod
    def continues(E, B, V, call: float, low: float) -> bool:
        """The certificate of a guessed run: `decide` leaves every node of it
        as it is iff each held value V = E + B (written into V) is at most the
        call and at least `low`, the larger of the put and the run's top
        conversion value."""
        np.add(E, B, out=V)
        return V.max() <= call and V.min() >= low

    @staticmethod
    def keeps(E, B, V, conv, call: float, put: float) -> bool:
        """The certificate of a whole band under BAND_CELLS node-spots:
        `decide` would decide none of its nodes, and so leave E and B as they
        are, iff each held value V = E + B (written into V) is at most the call
        and at least the conversion value and the put, ties included.  A call of +inf holds every V, and so does
        a put of 0, since E, B >= 0 in the tree.  Its masks are temporaries of
        under BAND_CELLS bools, cheaper than slicing the block's."""
        np.add(E, B, out=V)
        held = V >= conv  # also false where V is NaN
        if call < math.inf:
            held &= V <= call
        if put > 0.0:
            held &= V >= put
        return np.count_nonzero(held) == held.size

    def _roll_block(self, lo: int, hi: int) -> None:
        N, H, pw, (p, q, disc_E, disc_B) = self.N, self.height, self.pw[:, None], self.coeffs
        rows = hi - lo  # the block is each buffer's leading contiguous (H, rows) run
        E, B, V, VS, C, NC, CB = (b.reshape(-1)[: H * rows].reshape(H, rows)
                                  for b in self.buffers)
        rs = self.rs[lo:hi]  # ascending
        binds = None if self.binds is None else self.binds[:, lo:hi]
        fronts = [f[lo:hi].T for f in self.fronts]

        # conversion off: rs * 0.0 is +0.0, since rs is finite and >= 0
        np.multiply(rs, pw[0 : 2 * H : 2] if self.active[N] else ZERO, out=C)
        expire(E, B, V, VS, C, self.redemption, self.injects[N], NC, CB)
        if binds is not None:
            binds[0] += np.count_nonzero(CB, axis=0)
            # the expiry nodes [H, N + 1) by `expire`'s rule, up to H at a time in C and CB
            for j in range(H, N + 1 if self.active[N] else H, H):
                conv = np.multiply(rs, pw[2 * j : 2 * (j + H) : 2], out=C[: N + 1 - j])
                np.greater(conv, self.redemption, out=CB[: N + 1 - j])
                binds[0] += np.count_nonzero(CB[: N + 1 - j], axis=0)
        if self.front_layers >= N:
            np.add(E, B, out=fronts[N])

        plan = self.plan(rs)
        calls, puts, injects, active = self.calls, self.puts, self.injects, self.active
        k_up = 0  # k_{i+1}, the previous layer's k: k_N = 0, as `expire` wrote the whole layer
        for i, k, d, c, top, low in zip(range(N - 1, -1, -1), *map(reversed, plan)):
            if k < k_up:
                # the settled rows this layer reads: E is still expire's +0
                B[k:k_up] = self.settled[i + 1]
            k_up = k
            Ec, Bc, Vc = E[k:c], B[k:c], V[k:c]
            # in-place rollback: X <- disc * (p * X_up + q * X_down), V as scratch
            for X, Xc, disc in ((E, Ec, disc_E), (B, Bc, disc_B)):
                np.multiply(X[k + 1 : c + 1], p, out=Vc)
                np.multiply(Xc, q, out=Xc)
                np.add(Xc, Vc, out=Xc)
                np.multiply(Xc, disc, out=Xc)
            if injects[i] != 0.0:
                Bc += self.inject_levels[i, ...]

            s = k  # the first node to decide
            if d > k and self.continues(E[k:d], B[k:d], V[k:d], calls[i], low):
                s = d  # decide only [d, c); a failed guess decides the whole band [k, c)
                Ec, Bc, Vc = E[d:c], B[d:c], V[d:c]
            conv = C[s:top]
            np.multiply(rs, pw[N - i + 2 * s : N - i + 2 * top : 2] if active[i] else ZERO,
                        out=conv)

            # BAND_CELLS picks the certificate: the guessed run [k, d) at or
            # above it, the whole band below it (there k = d = 0, and the band is
            # decided in full or not at all: often only node c - 1 binds, or none)
            convc = conv[: c - s]
            if c * rows >= BAND_CELLS or not self.keeps(Ec, Bc, Vc, convc, calls[i], puts[i]):
                vs, ncont, convb = VS[s:c], NC[s:c], CB[s:c]
                call_level = self.call_levels[i, ...]
                decide(Ec, Bc, Vc, vs, convc, call_level, self.put_levels[i, ...], ncont, convb)
                if binds is not None:
                    binds[0] += np.count_nonzero(convb, axis=0)
                    # with the conversions counted, decide's masks take the cash
                    # nodes (decided, not converted) and the call: bound where the
                    # value was clipped to exactly the call level; the put elsewhere.
                    # Once counted, the cash mask is the scratch for vs == call
                    cash, callb = ncont, convb
                    np.logical_xor(ncont, convb, out=cash)
                    n_cash = np.count_nonzero(cash, axis=0)
                    np.greater(Vc, call_level, out=callb)
                    np.logical_and(callb, cash, out=callb)
                    np.equal(vs, call_level, out=cash)
                    np.logical_and(callb, cash, out=callb)
                    n_call = np.count_nonzero(callb, axis=0)
                    binds[1] += n_call
                    binds[2] += n_cash - n_call
            if top > c:
                # nodes c.. convert whatever their held value V: conv > call >= min(V, call)
                # and conv >= put, so V* = conv and `decide` would set E = conv, B = 0
                np.copyto(E[c:top], conv[c - s :])
                B[c:top] = ZERO
            if i <= self.front_layers:
                np.add(E[: i + 1], B[: i + 1], out=fronts[i])

        if binds is not None:  # the skipped nodes [c_i, i + 1), all converted
            binds[0] += N * (N + 1) // 2 - sum(plan[2])
        self.equity[lo:hi] = E[0]
        self.debt[lo:hi] = B[0]


def _rollback_job(terms: ConvertibleTerms, mkt: MarketParams, t0: date, spots, steps,
                  front_layers=0, binds: bool = False) -> _Rollback:
    """`rollback_batch`'s inputs, checked, as one rollback before any block
    runs: its `height` and `rows` are the blocks the batch runs in."""
    steps = check_steps(steps)
    front_layers = check_integer(front_layers, "front_layers")
    if front_layers < 0:
        raise ConfigurationError(f"front_layers must be >= 0, got {front_layers}")
    spots = check_spots(spots)
    timeline = Timeline(terms, t0)
    try:
        lp = build_crr_params(mkt.sigma, mkt.rate, timeline.tau_maturity, steps)
        if front_layers > steps:
            raise ConfigurationError("front_layers cannot exceed the step count")
        with np.errstate(over="ignore"):  # an overflowing tree is refused just below
            job = _Rollback(timeline, mkt, lp, spots, front_layers, binds)
            top = job.rs[-1] * job.pw[-1]
    except OverflowError as exc:  # math.exp of a growth, discount or coupon factor
        raise ConfigurationError(f"rate {mkt.rate:g}, credit spread {mkt.credit_spread:g} and "
                                 f"volatility {mkt.sigma:g} overflow the {steps}-step tree") from exc
    if not np.isfinite(top):
        raise DomainError(f"spot {float(spots.max())!r} overflows the {steps}-step tree: "
                          f"its top conversion value ratio * S * u^{steps} is not finite")
    return job


def rollback_batch(
    terms: ConvertibleTerms,
    mkt: MarketParams,
    t0: date,
    spots: np.ndarray,
    steps: int,
    front_layers: int = 0,
    binds: bool = False,
) -> BatchResult:
    """Roll the split-value tree back to t0 for a whole vector of root spots.

    `front_layers` > 0 additionally records the constrained node values V of
    the first few layers (needed for lattice delta/gamma); `binds` counts the
    nodes decided by conversion, call and put.  Spots run serially, in
    ascending order, in blocks of `rows` spots (`_Rollback`); every spot gets its own
    full tree, so results do not depend on the batch, its order or the
    blocking, and they come back in the order of `spots`.
    """
    job = _rollback_job(terms, mkt, t0, spots, steps, front_layers, binds)
    m = job.order.size
    for lo in range(0, m, job.rows):
        job._roll_block(lo, min(lo + job.rows, m))

    # back to the caller's order: spot k ran at sorted position back[k]
    back = np.empty_like(job.order)
    back[job.order] = np.arange(m)
    return BatchResult(equity=job.equity[back], debt=job.debt[back], params=job.lp,
                       binds=None if job.binds is None else job.binds[:, back],
                       fronts=[f[back] for f in job.fronts])


def price_tf_crr(
    terms: ConvertibleTerms, mkt: MarketParams, t0: date, spot: float, steps: int
) -> PriceResult:
    """Price the convertible at (t0, spot) on an N-step tree; returns the dirty
    root value split into its equity and debt parts."""
    res = rollback_batch(terms, mkt, t0, np.array([spot]), steps)
    return PriceResult(NodeValue(equity=float(res.equity[0]), debt=float(res.debt[0])))


def price_profile_raw(
    terms: ConvertibleTerms, mkt: MarketParams, t0: date, spot_grid, steps: int
) -> BatchResult:
    """Price a whole spot grid, in any order, at once; elementwise identical to
    calling price_tf_crr per point.  The engine checks the grid."""
    return rollback_batch(terms, mkt, t0, spot_grid, steps)
