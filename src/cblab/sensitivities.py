"""Lattice Greeks and (t, S) evaluation grids.

Delta and gamma are read off the first two layers of the same tree that prices
the bond: delta = (V+ - V-)/((u-d)S) from the step-1 nodes, gamma from the two
step-1 deltas formed out of the step-2 node values.  `_front_greeks` is the one
read-out: `surface` runs whole spot rows through it, `greek_point` is a
one-point `surface`, and `hedge.stress_increments` reads its deltas.  The
trader's delta (delta_pct) rescales by the conversion ratio; it is NaN for a
zero ratio.  No smoothing or extrapolation is applied anywhere; oscillations
in these numbers are signal, not noise.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from datetime import date

import numpy as np

from .errors import CBLabError, ConfigurationError, DomainError
from .lattice import BatchResult, check_spots, check_steps, rollback_batch
from .termsheet import ConvertibleTerms, MarketParams, Timeline

__all__ = ["GreekPoint", "Surface", "greek_point", "surface"]


@dataclass(frozen=True)
class GreekPoint:
    """Value split and sensitivities of the bond at one (t, S) point."""

    t: date
    spot: float
    value: float
    equity: float
    debt: float
    delta: float
    delta_pct: float
    gamma: float


@dataclass(frozen=True)
class Surface:
    """Dense evaluation of prices and Greeks over a (t, S) rectangle.

    Arrays are indexed [time, spot] and match the grids elementwise.
    """

    t_grid: tuple[date, ...]
    spot_grid: np.ndarray
    value: np.ndarray
    equity: np.ndarray
    debt: np.ndarray
    delta: np.ndarray
    delta_pct: np.ndarray
    gamma: np.ndarray

    def point(self, i: int, j: int) -> GreekPoint:
        """The GreekPoint at row i (time) and column j (spot)."""
        return GreekPoint(
            t=self.t_grid[i],
            spot=float(self.spot_grid[j]),
            value=float(self.value[i, j]),
            equity=float(self.equity[i, j]),
            debt=float(self.debt[i, j]),
            delta=float(self.delta[i, j]),
            delta_pct=float(self.delta_pct[i, j]),
            gamma=float(self.gamma[i, j]),
        )


def _front_greeks(res: BatchResult, spots: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """Delta per spot from a rollback's step-1 nodes, and gamma from its step-2
    nodes when the rollback recorded them (else None)."""
    lp = res.params
    spread = (lp.up - lp.down) * spots
    v1 = res.fronts[1]
    dlt = (v1[:, 1] - v1[:, 0]) / spread
    if len(res.fronts) < 3:
        return dlt, None
    v2 = res.fronts[2]
    d_up = (v2[:, 2] - v2[:, 1]) / ((lp.up - lp.down) * spots * lp.up)
    d_dn = (v2[:, 1] - v2[:, 0]) / ((lp.up - lp.down) * spots * lp.down)
    return dlt, (d_up - d_dn) / spread


def greek_point(terms: ConvertibleTerms, mkt: MarketParams, t: date, spot: float, steps: int) -> GreekPoint:
    """Price split, delta, delta_pct and gamma at one (t, S), from one tree."""
    return surface(terms, mkt, (t,), [spot], steps).point(0, 0)


@contextmanager
def _row_context(t: date):
    """Re-raise a CBLabError with the surface row's date in front."""
    try:
        yield
    except CBLabError as exc:
        raise type(exc)(f"surface row t={t}: {exc}") from exc


def surface(
    terms: ConvertibleTerms,
    mkt: MarketParams,
    t_grid,
    spot_grid,
    steps: int,
) -> Surface:
    """Evaluate prices and Greeks over a (t, S) rectangle; one tree per point,
    whole spot rows batched.  Either grid may come in any order.  Every date,
    the step count and then the spots (the engine's check, `check_spots`) are
    checked before any row is priced.  A refusal names the row's date, the
    first row's for the spots."""
    t_grid = tuple(t_grid)
    if not t_grid:
        raise DomainError("the date grid must be nonempty")
    for t in t_grid:
        with _row_context(t):
            if check_steps(steps) < 3:
                raise ConfigurationError("greeks need at least 3 tree steps to maturity")
            Timeline(terms, t)
    with _row_context(t_grid[0]):
        spots = check_spots(spot_grid)

    ratio = terms.conversion.ratio
    nt, ns = len(t_grid), spots.size
    out = {k: np.empty((nt, ns)) for k in ("value", "equity", "debt", "delta", "delta_pct", "gamma")}
    for i, t in enumerate(t_grid):
        with _row_context(t):
            res = rollback_batch(terms, mkt, t, spots, steps, front_layers=2)
        dlt, gma = _front_greeks(res, spots)
        out["value"][i] = res.value
        out["equity"][i] = res.equity
        out["debt"][i] = res.debt
        out["delta"][i] = dlt
        out["delta_pct"][i] = dlt / ratio if ratio > 0 else np.nan
        out["gamma"][i] = gma
    return Surface(t_grid=t_grid, spot_grid=spots, **out)


def monotonicity_violations(values, tol: float = 0.0) -> int:
    """Count adjacent pairs where the series strictly falls by more than tol."""
    v = np.asarray(values, dtype=float)
    return int(np.sum(v[1:] < v[:-1] - tol))


def second_difference_sign_changes(values) -> int:
    """Sign flips of the discrete second difference; a convexity-break counter."""
    v = np.asarray(values, dtype=float)
    d2 = v[2:] - 2.0 * v[1:-1] + v[:-2]
    return int(np.sum(d2[1:] * d2[:-1] < 0.0))


def local_extrema_count(values) -> int:
    """Interior points where the series direction reverses."""
    v = np.asarray(values, dtype=float)
    d = np.diff(v)
    return int(np.sum(d[1:] * d[:-1] < 0.0))
