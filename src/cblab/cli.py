"""Command-line front end: term-sheet ingestion, experiment orchestration, and
emission of plot-ready CSV / text artifacts.

Subcommands: price | surface | greeks | hedge-stress | var | compare.  `main`
loads the term sheet, sets an unset --date to its issue date, builds the
market and calls `cmd_<name>(args, terms, mkt)`; one writer, `_write`, writes
every table.  All outputs are data files (no rendered images); each header
embeds the run's configuration (every parsed option except --out, with the
term sheet's contents rather than its path) and its hash, so identical runs
produce identical bytes from any checkout.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import fields
from datetime import date
from pathlib import Path

import numpy as np

from . import fd, hedge, lattice, sensitivities, var
from .errors import CBLabError, ConfigurationError
from .reports import Report, format_number, write_lines, write_rows
from .termsheet import (
    MarketParams,
    accrued_interest,
    check_real,
    load_terms,
    reference_market,
    reference_terms_path,
    terms_to_dict,
    year_fraction,
)

__all__ = ["main", "cmd_price", "cmd_surface", "cmd_greeks", "cmd_hedge_stress", "cmd_var", "cmd_compare"]

MAX_SPOT_POINTS = 10**7  # the largest spot grid, or surface grid of (t, S) points, a command builds


def _parse_date(s: str) -> date:
    return date.fromisoformat(s)


def _spot_grid(args) -> np.ndarray:
    s_min, s_max = check_real(args.s_min, "--s-min"), check_real(args.s_max, "--s-max")
    s_step = check_real(args.s_step, "--s-step", 0.0)
    if s_max < s_min:
        raise ConfigurationError(f"--s-max {s_max:g} is below --s-min {s_min:g}")
    # the last point never passes --s-max; the epsilon absorbs the quotient's rounding
    n = (s_max - s_min) / s_step + 1e-9
    if not n < MAX_SPOT_POINTS:
        raise ConfigurationError(f"--s-step {s_step:g} gives {n + 1:.6g} spot points, "
                                 f"more than {MAX_SPOT_POINTS:,}")
    return s_min + s_step * np.arange(math.floor(n) + 1)


def _config(args, terms) -> dict:
    """Every parsed option but --out, with the sheet's contents for its path."""
    cfg = {k: v for k, v in vars(args).items() if k not in ("func", "out")}
    cfg["terms"] = terms_to_dict(terms)
    return cfg


def _write(args, cfg: dict, name: str, columns: list[str], rows: list, summary=()) -> Path:
    """Write one table as `<out>/<name>.csv` or `.txt` and return its path."""
    path = args.out / f"{name}.{'csv' if args.format == 'csv' else 'txt'}"
    write_rows(Report(config=cfg, columns=columns, rows=rows, summary=list(summary)),
               path, args.format)
    return path


def cmd_price(args, terms, mkt) -> int:
    t = args.date
    res = lattice.rollback_batch(terms, mkt, t, np.array([args.spot]), args.steps, binds=True)
    v, e, b = float(res.value[0]), float(res.equity[0]), float(res.debt[0])
    ai = accrued_interest(terms, t)
    out = _write(args, _config(args, terms), "price",
                 ["date", "spot", "steps", "V_dirty", "V_clean", "E", "B",
                  "conversion_binds", "call_binds", "put_binds"],
                 [(t.isoformat(), args.spot, args.steps, v, v - ai, e, b,
                   *res.binds[:, 0].tolist())])
    print(f"V = {v:.10g}  (E = {e:.10g}, B = {b:.10g}, clean = {v - ai:.10g})")
    print(f"wrote {out}")
    return 0


def _surface_table(args, terms, mkt, t_grid: list[date], spots: np.ndarray) -> int:
    """Price, E/B split and Greeks on t_grid x spots, named after the command."""
    srf = sensitivities.surface(terms, mkt, t_grid, spots, args.steps)
    rows = []
    for i, t in enumerate(t_grid):
        t_years = year_fraction(terms.issue, t)
        ai = accrued_interest(terms, t)
        for j, s in enumerate(spots):
            p = srf.point(i, j)
            rows.append((t_years, t.isoformat(), float(s), p.value, p.value - ai,
                         p.equity, p.debt, p.delta, p.delta_pct, p.gamma))
    out = _write(args, _config(args, terms), args.command,
                 ["t_years", "t_date", "S", "V_dirty", "V_clean", "E", "B",
                  "delta", "delta_pct", "gamma"], rows)
    print(f"wrote {out} ({len(rows)} points)")
    return 0


def cmd_surface(args, terms, mkt) -> int:
    spots = _spot_grid(args)
    if not 1 <= args.t_points <= MAX_SPOT_POINTS // spots.size:  # before the date grid exists
        raise ConfigurationError(f"--t-points must be from 1 to {MAX_SPOT_POINTS // spots.size:,} "
                                 f"on {spots.size:,} spot points, got {args.t_points}")
    life_days = (terms.maturity - terms.issue).days
    offsets = [round(i * life_days / args.t_points) for i in range(args.t_points)]
    return _surface_table(args, terms, mkt,
                          [date.fromordinal(terms.issue.toordinal() + o) for o in offsets], spots)


def cmd_greeks(args, terms, mkt) -> int:
    return _surface_table(args, terms, mkt, [args.date], _spot_grid(args))


def cmd_hedge_stress(args, terms, mkt) -> int:
    spots = _spot_grid(args)
    size = check_real(args.contract_size, "contract size", 0.0)
    increments, positions = hedge.stress_increments(terms, mkt, args.date, spots,
                                                    args.shock, args.steps)
    with np.errstate(over="ignore"):  # an overflow is refused just below
        scaled = increments * (size / terms.nominal)
    if not np.all(np.isfinite(scaled)):
        raise ConfigurationError(f"--contract-size {args.contract_size:g} scales an increment "
                                 "past the float range")
    rows = [(float(s), float(inc), float(sc), inc / abs(pos) if pos != 0 else np.inf)
            for s, inc, sc, pos in zip(spots, increments, scaled, positions)]
    out = _write(args, _config(args, terms), "hedge_stress",
                 ["S", "increment", "increment_scaled", "increment_relative"], rows)
    print(f"wrote {out} ({len(rows)} points)")
    return 0


def cmd_var(args, terms, mkt) -> int:
    spec = var.VaRSpec(
        eval_date=args.date,
        spot=args.spot,
        holding_days=args.holding_days,
        confidence=args.confidence,
        n_scenarios=args.scenarios,
        drift=args.drift,
        scen_sigma=args.scen_vol,
        seed=args.seed,
        steps=args.steps,
    )
    result = var.run_var(spec, terms, mkt)
    cfg = _config(args, terms)
    write_lines(cfg, result.report_lines(), args.out / "var_report.txt")
    for name, hist in (("var_cb_hist", result.value_hist), ("var_stock_hist", result.stock_hist)):
        rows = [(float(lo), float(hi), float(c), int(n))
                for lo, hi, c, n in zip(hist.edges[:-1], hist.edges[1:], hist.centers, hist.counts)]
        _write(args, cfg, name, ["bin_lo", "bin_hi", "bin_center", "count"], rows,
               [f"series {name}"])
    print(f"V0 = {result.value0:.10g}")
    print(f"VaR({spec.confidence:.0%}, {spec.holding_days}d) = {result.var_abs:.10g} "
          f"({result.var_pct:.4f}% of V0)")
    print(f"wrote {args.out / 'var_report.txt'} and histograms")
    return 0


def cmd_compare(args, terms, mkt) -> int:
    spots = _spot_grid(args)
    grid = fd.FDGrid.auto(mkt, year_fraction(args.date, terms.maturity),
                          s_max=args.fd_s_max, n_s=args.fd_nodes)
    v_lat = lattice.price_profile_raw(terms, mkt, args.date, spots, args.steps).value
    sol = fd.solve_tf_fd(terms, mkt, args.date, grid, snapshot_dates=[args.date])
    v_fd = fd.fd_profile(sol, args.date, spots)
    diff = v_lat - v_fd
    lat_viol = sensitivities.monotonicity_violations(v_lat)
    fd_viol = sensitivities.monotonicity_violations(v_fd, tol=1e-6)
    summary = [
        f"max_abs_diff {format_number(np.max(np.abs(diff)))}",
        f"lattice_monotonicity_violations {lat_viol}",
        f"fd_monotonicity_violations {fd_viol}",
    ]
    rows = [(float(s), float(vl), float(vf), float(d))
            for s, vl, vf, d in zip(spots, v_lat, v_fd, diff)]
    out = _write(args, _config(args, terms), "compare", ["S", "V_lattice", "V_fd", "diff"],
                 rows, summary)
    for line in summary:
        print(line)
    print(f"wrote {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cblab",
        description="Convertible-bond pricing and risk laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    mkt = reference_market()
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--terms", type=Path, default=reference_terms_path(),
                        help="term-sheet JSON (default: packaged reference instrument)")
    common.add_argument("--rate", type=float, default=mkt.rate, help="risk-free rate, cc/year")
    common.add_argument("--spread", type=float, default=mkt.credit_spread,
                        help="credit spread, cc/year")
    common.add_argument("--vol", type=float, default=mkt.sigma, help="stock volatility /sqrt(year)")
    common.add_argument("--steps", type=int, default=500, help="tree steps")
    common.add_argument("--out", type=Path, default=Path("out"), help="output directory")
    common.add_argument("--format", choices=("csv", "report"), default="csv")

    grid = argparse.ArgumentParser(add_help=False)
    grid.add_argument("--s-min", type=float, default=50.0)
    grid.add_argument("--s-max", type=float, default=200.0)
    grid.add_argument("--s-step", type=float, default=0.5)

    p = sub.add_parser("price", parents=[common], help="single-point price with E/B split")
    p.add_argument("--spot", type=float, default=100.0)
    p.add_argument("--date", type=_parse_date, default=None, help="evaluation date (default: issue)")
    p.set_defaults(func=cmd_price)

    p = sub.add_parser("surface", parents=[common, grid],
                       help="price/Greek surface over the bond life")
    p.add_argument("--t-points", type=int, default=61, help="time-grid size in [issue, maturity)")
    p.set_defaults(func=cmd_surface, s_step=1.0)

    p = sub.add_parser("greeks", parents=[common, grid],
                       help="price/delta/gamma profile at one date")
    p.add_argument("--date", type=_parse_date, required=True)
    p.set_defaults(func=cmd_greeks)

    p = sub.add_parser("hedge-stress", parents=[common, grid],
                       help="delta-hedge shock increments over a spot grid")
    p.add_argument("--date", type=_parse_date, default=None, help="settlement date (default: issue)")
    p.add_argument("--shock", type=float, default=0.5)
    p.add_argument("--contract-size", type=float, default=1_000_000.0)
    p.set_defaults(func=cmd_hedge_stress)

    spec = {f.name: f.default for f in fields(var.VaRSpec)}
    p = sub.add_parser("var", parents=[common], help="Monte Carlo VaR with full repricing")
    p.add_argument("--date", type=_parse_date, default=None, help="evaluation date (default: issue)")
    p.add_argument("--spot", type=float, default=100.0)
    p.add_argument("--holding-days", type=int, default=spec["holding_days"])
    p.add_argument("--confidence", type=float, default=spec["confidence"])
    p.add_argument("--scenarios", type=int, default=spec["n_scenarios"])
    p.add_argument("--drift", type=float, default=spec["drift"], help="scenario drift /year")
    p.add_argument("--scen-vol", type=float, default=spec["scen_sigma"],
                   help="scenario volatility /year")
    p.add_argument("--seed", type=int, default=spec["seed"])
    p.set_defaults(func=cmd_var)

    p = sub.add_parser("compare", parents=[common, grid],
                       help="lattice vs finite-difference profile at one date")
    p.add_argument("--date", type=_parse_date, required=True)
    p.add_argument("--fd-s-max", type=float, default=400.0)
    p.add_argument("--fd-nodes", type=int, default=401)
    p.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        terms = load_terms(args.terms)
        if "date" in vars(args) and args.date is None:
            args.date = terms.issue  # the one default of every optional --date
        mkt = MarketParams(rate=args.rate, credit_spread=args.spread, sigma=args.vol)
        return args.func(args, terms, mkt)
    except CBLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
