"""Delta-hedged position valuation and the one-shot stress test.

The hedged position is long one bond, short delta shares: P(S) = V(S) - delta*S.
The stress increment after an instantaneous spot shock h, with the hedge struck
at the pre-shock delta, is V(S+h) - V(S) - h*delta(S).  For a locally smooth
price this is ~ gamma*h^2/2; spikes far above that scale expose hedge-ratio
noise rather than genuine convexity.

`stress_increments` is the one view of the engine; scaling to a position
size is the caller's multiplication.
"""

from __future__ import annotations

from datetime import date

import numpy as np

from .errors import ConfigurationError
from .lattice import _rollback_job, check_spots, rollback_batch
from .sensitivities import _front_greeks
from .termsheet import ConvertibleTerms, MarketParams, check_real

__all__ = ["hedge_increment", "stress_increments"]


def stress_increments(
    terms: ConvertibleTerms, mkt: MarketParams, t: date, spots, shock: float, steps: int
) -> tuple[np.ndarray, np.ndarray]:
    """Shock increments and pre-shock hedged positions over `spots`, in any
    order; the spots get the engine's check (`lattice.check_spots`), the
    shock must be finite, nonzero and keep every spot > 0."""
    if check_real(shock, "shock") == 0:
        raise ConfigurationError("shock must be nonzero")
    spots = check_spots(spots)
    m = spots.size
    both = np.concatenate([spots, spots + shock])
    moved = np.flatnonzero(both[m:] <= 0)
    if moved.size:
        s = float(spots[moved[0]])
        raise ConfigurationError(f"shock {shock!r} moves spot {s!r} to {s + shock!r}; "
                                 "shocked spots must stay > 0")
    res = rollback_batch(terms, mkt, t, both, steps, front_layers=1)
    value, bumped = res.value[:m], res.value[m:]
    dlt = _front_greeks(res, both)[0][:m]
    return bumped - value - shock * dlt, value - dlt * spots


def hedge_increment(
    terms: ConvertibleTerms, mkt: MarketParams, t: date, spot: float, shock: float, steps: int
) -> float:
    """Change of the hedged position when the spot jumps by `shock`, the hedge
    struck at the pre-shock delta; a zero shock gives 0.0 after the engine's
    input checks, so it refuses what any shock refuses."""
    spots = [spot]  # the engine's spot check reads its dtype
    if check_real(shock, "shock") == 0:
        _rollback_job(terms, mkt, t, spots, steps)
        return 0.0
    inc, _ = stress_increments(terms, mkt, t, spots, shock, steps)
    return float(inc[0])
