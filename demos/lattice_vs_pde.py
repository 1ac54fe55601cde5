"""Same model, two discretizations: the tree versus an explicit PDE march.

The split-value convertible model is solved twice at the two-year mark: on a
500-step tree per spot, and by an explicit finite-difference march of the
coupled PDE pair on a 401-node grid.  The PDE solution rises cleanly through
the call region while the tree staircases and dips -- the defects live in the
tree, not in the model.

Run: python demos/lattice_vs_pde.py
"""

from datetime import date

import numpy as np

from cblab import (
    FDGrid,
    fd_profile,
    price_profile_raw,
    reference_market,
    reference_terms,
    solve_tf_fd,
    year_fraction,
)
from cblab.sensitivities import monotonicity_violations

terms = reference_terms()
market = reference_market()
t = date(2004, 1, 2)

spots = np.round(np.arange(105.0, 112.0001, 0.1), 6)
v_tree = price_profile_raw(terms, market, t, spots, 500).value

grid = FDGrid.auto(market, year_fraction(t, terms.maturity))
print(f"PDE grid: {grid.n_s} spot nodes, {grid.n_t} time layers (stability-bound step)")
solution = solve_tf_fd(terms, market, t, grid, snapshot_dates=[t])
v_pde = fd_profile(solution, t, spots)

print(f"tree strict decreases on [105, 112]: {monotonicity_violations(v_tree)}")
print(f"PDE  strict decreases on [105, 112]: {monotonicity_violations(v_pde, tol=1e-6)}")
print(f"max |tree - PDE|: {np.abs(v_tree - v_pde).max():.4f}")

print()
print("     S      tree       PDE     tree-PDE")
for j in range(0, len(spots), 7):
    print(f"{spots[j]:7.1f} {v_tree[j]:9.4f} {v_pde[j]:9.4f} {v_tree[j] - v_pde[j]:+9.4f}")
