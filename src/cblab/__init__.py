"""Convertible-bond pricing and risk laboratory.

Split-discounting binomial lattice, lattice Greeks, delta-hedge stress testing,
Monte Carlo VaR with full repricing, and an explicit finite-difference solver of
the underlying coupled PDE system for cross-validation.
"""

# the one version string: reports' file headers and the package metadata read it
__version__ = "0.1.0"

from .errors import (
    CBLabError,
    ConfigurationError,
    DomainError,
    NumericalError,
    TermSheetError,
)
from .termsheet import (
    CallTerms,
    ConversionTerms,
    ConvertibleTerms,
    MarketParams,
    PutTerms,
    accrued_interest,
    dump_terms,
    load_terms,
    reference_market,
    reference_terms,
    reference_terms_path,
    year_fraction,
)
from .lattice import (
    LatticeParams,
    NodeValue,
    PriceResult,
    build_crr_params,
    price_profile_raw,
    price_tf_crr,
    rollback_batch,
)
from .sensitivities import GreekPoint, Surface, greek_point, surface
from .hedge import hedge_increment, stress_increments
from .var import (
    VaRResult,
    VaRSpec,
    density_histogram,
    revalue,
    run_var,
    simulate_stock,
    var_quantile,
)
from .fd import FDGrid, FDSolution, fd_profile, solve_tf_fd
