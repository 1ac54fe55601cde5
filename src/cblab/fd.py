"""Explicit finite-difference solution of the coupled convertible PDE system.

Marches the pair of equations

    V_t + (1/2) sigma^2 S^2 V_SS + r S V_S - r V - r_c B = 0
    B_t + (1/2) sigma^2 S^2 B_SS + r S B_S - (r + r_c) B = 0

backward from expiry with central differences in S and forward Euler in time,
re-imposing the contract constraints (put floor, conversion floor, call cap)
and the S=0 / S=S_max boundary rows after every layer.  The expiry layer is
`lattice.expire` and every interior layer's node decision and E/B
classification is `lattice.decide`, the tree's own code, so the two methods
apply the same contract in the same places; only the discretization differs.

The march holds V and B as one flat state Z = [V_0..V_{n-1}, B_0..B_{n-1}]
in two preallocated buffers that swap roles every layer, so one five-call
stencil updates both equations.  The march runs in chunks of
`_FINITE_CHECK_EVERY` layers, and each chunk's per-layer inputs (call and put
levels, the conversion window, boundary rows) are computed just before it runs
from its own layer times; the coupons are one sparse {layer: cash} map.  So no
vector as long as the time grid exists, and memory is bounded by the spot nodes
and the stored snapshots whatever the layer count.  A layer allocates no buffer
but its snapshot, if stored.  Like the tree's, its ufunc calls read 0-d arrays
(`dt * rc`, `levels[i, ...]` views).

Stability of the explicit march is enforced by construction:
dt <= dS^2 / (sigma^2 S_max^2 + (r + r_c) dS^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date

import numpy as np

from .errors import ConfigurationError, DomainError, NumericalError
from .lattice import check_spot_numbers, decide, expire
from .termsheet import ConvertibleTerms, MarketParams, Timeline, check_integer, check_real, year_fraction

__all__ = ["FDGrid", "FDSolution", "solve_tf_fd", "fd_profile", "stable_time_layers"]

_FINITE_CHECK_EVERY = 2000  # layers per march chunk; the state is checked for finite values after each
MAX_FD_LAYERS = 10**7  # time-layer cap of a march: it bounds the run time, not the memory
MAX_FD_NODES = 10**5  # spot-node cap: a march holds about 30 vectors of n_s or 2 * n_s doubles


def _stability_limit(sigma: float, risky_rate: float, s_max: float, ds: float) -> float:
    denom = sigma * sigma * s_max * s_max + risky_rate * ds * ds
    # sigma^2 S_max^2 can underflow to 0 (no bound without a risky rate) or overflow (no step)
    limit = ds * ds / denom if denom > 0.0 else math.inf
    if not 0.0 < limit < math.inf:
        raise ConfigurationError(
            f"sigma {sigma:g} with risky rate {risky_rate:g} gives no positive, finite "
            f"stable time step on a {s_max:g} spot grid"
        )
    return limit


def _check_space(s_max: float, n_s: int) -> float:
    if n_s < 3:
        raise ConfigurationError(f"need at least 3 spot nodes, got {n_s}")
    return check_real(s_max, "s_max", 0.0)


def stable_time_layers(
    sigma: float, risky_rate: float, horizon: float, s_max: float, n_s: int
) -> int:
    """Smallest layer count satisfying the explicit-scheme stability bound."""
    s_max = _check_space(s_max, n_s)
    ds = s_max / (n_s - 1)
    steps = horizon / _stability_limit(sigma, risky_rate, s_max, ds)
    if not steps < MAX_FD_LAYERS:  # an inf count included, before int() sees it
        raise ConfigurationError(f"a stable march needs {steps + 1:.4g} time layers, "
                                 f"more than {MAX_FD_LAYERS:,}")
    return int(math.ceil(steps)) + 1


@dataclass(frozen=True)
class FDGrid:
    """Uniform (S, t) grid for the explicit march."""

    s_max: float
    n_s: int
    n_t: int

    def __post_init__(self) -> None:
        for field in ("n_s", "n_t"):
            object.__setattr__(self, field, check_integer(getattr(self, field), field))
        object.__setattr__(self, "s_max", _check_space(self.s_max, self.n_s))
        if self.n_t < 2:
            raise ConfigurationError("need at least 2 time layers")
        if self.n_t > MAX_FD_LAYERS:
            raise ConfigurationError(f"{self.n_t:,} time layers exceed the limit of {MAX_FD_LAYERS:,}")
        if self.n_s > MAX_FD_NODES:
            raise ConfigurationError(f"{self.n_s:,} spot nodes exceed the limit of {MAX_FD_NODES:,}")

    @property
    def ds(self) -> float:
        return self.s_max / (self.n_s - 1)

    def dt(self, horizon: float) -> float:
        return horizon / (self.n_t - 1)

    def check_stability(self, mkt: MarketParams, horizon: float) -> None:
        limit = _stability_limit(mkt.sigma, mkt.rate + mkt.credit_spread, self.s_max, self.ds)
        if self.dt(horizon) > limit * (1.0 + 1e-12):
            raise ConfigurationError(
                f"explicit scheme unstable: dt={self.dt(horizon):.3e} exceeds "
                f"limit {limit:.3e}; raise n_t to at least "
                f"{stable_time_layers(mkt.sigma, mkt.rate + mkt.credit_spread, horizon, self.s_max, self.n_s)}"
            )

    @classmethod
    def auto(
        cls,
        mkt: MarketParams,
        horizon: float,
        s_max: float = 400.0,
        n_s: int = 401,
    ) -> "FDGrid":
        """Default grid: unit spot spacing to 4x the strike scale, minimal
        stable layer count."""
        n_t = stable_time_layers(mkt.sigma, mkt.rate + mkt.credit_spread, horizon, s_max, n_s)
        return cls(s_max=s_max, n_s=n_s, n_t=n_t)


@dataclass(frozen=True)
class FDSolution:
    """Stored solution layers (a subset of the marched layers) plus the grid."""

    terms: ConvertibleTerms
    grid: FDGrid
    t0: date
    spots: np.ndarray        # (n_s,)
    layer_taus: np.ndarray   # (n_stored,) years from t0, ascending
    value: np.ndarray        # (n_stored, n_s)
    equity: np.ndarray
    debt: np.ndarray


class _LayerTimes:
    """The march's layer times, `np.linspace(0, span, n_t)` bit for bit (layer j
    at j * (span / (n_t - 1)), the last at span), each computed when it is read,
    so that no n_t vector exists: an ascending sequence that bisects."""

    def __init__(self, span: float, n_t: int):
        self.span, self.n_t, self.step = span, n_t, span / (n_t - 1)

    def __len__(self) -> int:
        return self.n_t

    def __getitem__(self, j: int) -> float:
        return self.span if j == self.n_t - 1 else j * self.step


def _chunk_inputs(timeline: Timeline, taus: np.ndarray, risky: float, conv_top: float):
    """The per-layer inputs of the march layers at times `taus`, one vector each: the
    call and put levels, whether conversion is allowed, the risky debt, the S=0 row
    (put-floored risky debt) and whether the S_max row converts (allowed, and
    beats debt)."""
    put_levels = timeline.put_dirty(taus)
    active = timeline.conversion_active(taus)
    debt_pvs = timeline.risky_cash_pv(taus, risky)
    floors = np.maximum(put_levels, debt_pvs)
    top_converts = active & (conv_top > debt_pvs)
    return timeline.call_dirty(taus), put_levels, active, debt_pvs, floors, top_converts


def solve_tf_fd(
    terms: ConvertibleTerms,
    mkt: MarketParams,
    t0: date,
    grid: FDGrid,
    snapshot_dates: list[date] | None = None,
) -> FDSolution:
    """March the coupled system from expiry back to t0 and keep snapshots.

    Snapshots are stored at the marched layer nearest each requested date (plus
    t0 and expiry always); with the stability-bound time step the layer spacing
    is well under an hour of calendar time.
    """
    timeline = Timeline(terms, t0)
    span = timeline.tau_maturity
    grid.check_stability(mkt, span)

    n_s, n_t = grid.n_s, grid.n_t
    S = np.linspace(0.0, grid.s_max, n_s)
    times = _LayerTimes(span, n_t)
    dt = grid.dt(span)
    ds = grid.ds
    r, rc, sigma = mkt.rate, mkt.credit_spread, mkt.sigma
    risky = r + rc

    # update stencil coefficients on interior nodes
    S_int = S[1:-1]
    a = 0.5 * sigma * sigma * S_int * S_int / (ds * ds)
    b = r * S_int / (2.0 * ds)
    cu = dt * (a + b)
    cd = dt * (a - b)
    cm_v = 1.0 - dt * (2.0 * a + r)
    cm_b = 1.0 - dt * (2.0 * a + risky)

    ratio = timeline.ratio
    inject = timeline.coupon_injections(times, risky)
    conv_top = ratio * grid.s_max

    # state: one flat vector Z = [V_0..V_{n-1}, B_0..B_{n-1}] in two buffers
    # that swap roles every layer.  The stencil runs over Z[1:-1], both
    # equations at once; its zero coefficients sit on the V[-1] and B[0]
    # slots, which the boundary rows overwrite.
    Z = np.empty(2 * n_s)
    zero = np.zeros(2)
    cu_z = np.concatenate((cu, zero, cu))
    cm_z = np.concatenate((cm_v, zero, cm_b))
    cd_z = np.concatenate((cd, zero, cd))
    dt_rc = np.array(dt * rc)
    tmp = np.empty(2 * n_s - 2)
    tmp_v = tmp[: n_s - 2]

    def views(z):  # whole; up, middle, down; V interior, B interior
        return z, z[2:], z[1:-1], z[:-2], z[1 : n_s - 1], z[n_s + 1 : -1]

    # node-rule buffers for the whole march: full width for the expiry layer,
    # their [1:-1] views for the interior of every layer after it.  The node
    # rule's held value goes into the V row, which V = E + B overwrites after it
    E, v_star = np.empty(n_s), np.empty(n_s)
    masks = [np.empty(n_s, dtype=bool) for _ in range(2)]  # decided, converted
    conv_on, conv_off = ratio * S, np.zeros(n_s)

    expiry_converts = timeline.conversion_active(times[n_t - 1])[0]
    expire(E, Z[n_s:], Z[:n_s], v_star, conv_on if expiry_converts else conv_off,
           timeline.redemption, inject.get(n_t - 1, 0.0), *masks)
    np.add(E, Z[n_s:], out=Z[:n_s])

    # snapshot bookkeeping
    want = {0}
    if snapshot_dates is not None:
        for d in snapshot_dates:
            if d < t0 or d > terms.maturity:
                raise DomainError(f"snapshot date {d} outside [{t0}, {terms.maturity}]")
            want.add(int(round(year_fraction(t0, d) / dt)))
    else:
        want.update(int(round(x)) for x in np.linspace(0, n_t - 1, 41))
    stored = {n_t - 1: Z.copy()}

    E_in, v_star_in, conv_on_in, conv_off_in = (x[1:-1] for x in (E, v_star, conv_on, conv_off))
    masks_in = [x[1:-1] for x in masks]
    old, new = views(Z), views(np.empty(2 * n_s))
    # the march layers n_t - 2 .. 0 in chunks [lo, hi) of at most _FINITE_CHECK_EVERY
    # layers, lo a multiple of it: a chunk's inputs (row i is layer lo + i) exist only
    # while it runs, and the state is checked for finite values at its bottom layer
    for lo in range((n_t - 2) // _FINITE_CHECK_EVERY * _FINITE_CHECK_EVERY, -1, -_FINITE_CHECK_EVERY):
        hi = min(lo + _FINITE_CHECK_EVERY, n_t - 1)
        taus = np.arange(lo, hi) * times.step
        call_levels, put_levels, active, debt_pvs, floors, top_converts = _chunk_inputs(
            timeline, taus, risky, conv_top)
        for m in range(hi - 1, lo - 1, -1):
            i = m - lo
            _, up, mid, down, _, B_old = old
            Z, _, out, _, V_in, B_in = new
            # (cu*up + cm*mid) + cd*down on both halves, then V less (dt*rc)*B;
            # the FD digests in the tests pin this evaluation order to the bit
            np.multiply(cu_z, up, out=out)
            np.multiply(cm_z, mid, out=tmp)
            np.add(out, tmp, out=out)
            np.multiply(cd_z, down, out=tmp)
            np.add(out, tmp, out=out)
            np.multiply(dt_rc, B_old, out=tmp_v)
            np.subtract(V_in, tmp_v, out=V_in)
            old, new = new, old

            cash = inject.get(m, 0.0)
            if cash != 0.0:
                B_in += cash
                V_in += cash

            # S = 0: equity worthless forever, claim is pure risky debt (put-floored)
            Z[0] = Z[n_s] = floors[i]
            # S = S_max: conversion dominates when there is anything to convert into
            if top_converts[i]:
                Z[n_s - 1] = conv_top
                Z[-1] = 0.0
            else:
                Z[n_s - 1] = Z[-1] = debt_pvs[i]

            np.subtract(V_in, B_in, out=E_in)
            decide(E_in, B_in, V_in, v_star_in, conv_on_in if active[i] else conv_off_in,
                   call_levels[i, ...], put_levels[i, ...], *masks_in)
            np.add(E_in, B_in, out=V_in)

            if m in want:
                stored[m] = Z.copy()
        if not np.isfinite(Z).all():
            raise NumericalError(f"non-finite values at layer {lo} (tau={taus[0]:.6f})")

    idx = sorted(stored)
    value = np.array([stored[i][:n_s] for i in idx])
    debt = np.array([stored[i][n_s:] for i in idx])
    return FDSolution(
        terms=terms,
        grid=grid,
        t0=t0,
        spots=S,
        layer_taus=np.array([times[i] for i in idx]),
        value=value,
        equity=value - debt,
        debt=debt,
    )


def fd_profile(solution: FDSolution, t: date, spots) -> np.ndarray:
    """Value section of the solution at date t, one entry per spot.

    Nearest stored layer in time, linear interpolation in S (exact on grid
    nodes).  Spots outside [0, S_max] or dates outside the solved span are
    refused rather than extrapolated, and so are spots that are not numbers
    (`lattice.check_spot_numbers`), non-finite spots and a date
    whose nearest stored layer is more than half a marched step away: the
    march did not store it.
    """
    if t < solution.t0 or t > solution.terms.maturity:
        raise DomainError(f"date {t} outside the solved span")
    gaps = np.abs(solution.layer_taus - year_fraction(solution.t0, t))
    layer = int(np.argmin(gaps))
    # half a marched step, with a relative margin for the rounding of the layer times
    if gaps[layer] > 0.5 * solution.grid.dt(solution.layer_taus[-1]) * (1.0 + 1e-6):
        raise DomainError(f"date {t} has no stored layer; pass it in snapshot_dates")
    spots = check_spot_numbers(spots)
    if not np.all(np.isfinite(spots)):
        raise DomainError("spot prices must be finite")
    if np.any(spots < 0) or np.any(spots > solution.grid.s_max):
        raise DomainError("spot outside the solved grid; extrapolation refused")
    return np.interp(spots, solution.spots, solution.value[layer])
