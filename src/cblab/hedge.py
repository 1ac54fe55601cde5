"""Delta-hedged position valuation and the one-shot stress test.

The hedged position is long one bond, short delta shares: P(S) = V(S) - delta*S.
The stress increment after an instantaneous spot shock h, with the hedge struck
at the pre-shock delta, is V(S+h) - V(S) - h*delta(S).  For a locally smooth
price this is ~ gamma*h^2/2; spikes far above that scale expose hedge-ratio
noise rather than genuine convexity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from datetime import date

import numpy as np

from .errors import ConfigurationError, DomainError
from .lattice import rollback_batch
from .sensitivities import _front_greeks
from .termsheet import ConvertibleTerms, MarketParams

__all__ = ["HedgeStressSpec", "hedge_increment", "stress_increments", "stress_curve"]


def _default_grid() -> np.ndarray:
    return np.arange(50.0, 200.0 + 1e-9, 0.5)


@dataclass(frozen=True)
class HedgeStressSpec:
    """Stress-test configuration: shock size, spot grid, date, tree steps,
    position size in nominal units.  The grid may come in any order; its shape
    and values are the engine's to check, as for every other spot grid."""

    t: date
    shock: float = 0.5
    spot_grid: np.ndarray = field(default_factory=_default_grid)
    steps: int = 500
    contract_size: float = 1_000_000.0

    def __post_init__(self) -> None:
        if self.shock == 0:
            raise ConfigurationError("shock must be nonzero")
        if not (math.isfinite(self.contract_size) and self.contract_size > 0):
            raise ConfigurationError(
                f"contract size must be finite and > 0, got {self.contract_size!r}")
        object.__setattr__(self, "spot_grid", np.asarray(self.spot_grid, dtype=float))

    def scaling(self, terms: ConvertibleTerms) -> float:
        """Positions per bond of `nominal`: contract size / nominal."""
        return self.contract_size / terms.nominal


def stress_increments(
    spec: HedgeStressSpec, terms: ConvertibleTerms, mkt: MarketParams
) -> tuple[np.ndarray, np.ndarray]:
    """Shock increments and pre-shock hedged positions over the spec's spot
    grid, from one rollback of the base and the shocked spots together."""
    spots, shock, m = spec.spot_grid, spec.shock, spec.spot_grid.size
    both = np.concatenate([spots, spots + shock])
    res = rollback_batch(terms, mkt, spec.t, both, spec.steps, front_layers=1)
    value, bumped = res.value[:m], res.value[m:]
    dlt = _front_greeks(res, both)[0][:m]
    return bumped - value - shock * dlt, value - dlt * spots


def hedge_increment(
    terms: ConvertibleTerms, mkt: MarketParams, t: date, spot: float, shock: float, steps: int
) -> float:
    """Change of the hedged position when the spot jumps by `shock`, the hedge
    having been struck at the pre-shock delta."""
    # the engine's own spot check, ahead of the shortcut that never reaches it
    if not (np.isfinite(spot) and spot > 0):
        raise DomainError("spot prices must be finite and > 0")
    if shock == 0:
        return 0.0
    spec = HedgeStressSpec(t=t, shock=shock, spot_grid=np.array([float(spot)]), steps=steps)
    inc, _ = stress_increments(spec, terms, mkt)
    return float(inc[0])


def stress_curve(
    spec: HedgeStressSpec, terms: ConvertibleTerms, mkt: MarketParams
) -> list[tuple[float, float, float]]:
    """Shock increments over the whole grid: (S, increment, scaled increment)."""
    inc, _ = stress_increments(spec, terms, mkt)
    scale = spec.scaling(terms)
    return [(float(s), float(x), float(x * scale)) for s, x in zip(spec.spot_grid, inc)]
