"""Where the tree gets convertible prices wrong.

Prices the reference convertible (5y, 4% semi-annual, callable at 110 from
year 2, 1:1 conversion) on 500- and 750-step trees two years in, right where
the call protection ends, and shows that the price profile in the stock is
neither convex nor strictly monotone around the call level -- and that more
steps do not repair it.

Run: python demos/price_profile_defect.py
"""

from datetime import date

import numpy as np

from cblab import price_profile_raw, reference_market, reference_terms
from cblab.sensitivities import monotonicity_violations, second_difference_sign_changes

terms = reference_terms()
market = reference_market()
t = date(2004, 1, 2)  # two years after issue, first callable day

grid = np.round(np.arange(105.0, 112.0001, 0.1), 6)

for steps in (500, 750):
    values = price_profile_raw(terms, market, t, grid, steps).value
    drops = monotonicity_violations(values)
    flips = second_difference_sign_changes(values)
    print(f"--- {steps}-step tree, profile V(t=2y, S) on [105, 112] ---")
    print(f"strict decreases: {drops}   second-difference sign flips: {flips}")
    worst = np.argmin(np.diff(values))
    print(f"worst step down: V({grid[worst]:.1f}) = {values[worst]:.4f} -> "
          f"V({grid[worst + 1]:.1f}) = {values[worst + 1]:.4f}")
    flat = np.isclose(np.diff(values), 0.0, atol=1e-12).sum()
    print(f"exactly flat segments (price pinned by the call): {flat}")
    print()

print("A market price curve should rise strictly and smoothly through this")
print("range; the staircase, the flats and the outright drops are artifacts")
print("of the tree's decision-boundary quantization, not of the contract.")
