"""Time the batch rollback kernel: ms per spot for batch widths m in {1, 2, 32,
128, 500, 1000} at N=500 and m in {1, 500} at N=100; the VaR chunk: 500 spots in
the order `simulate_stock` draws them (the reference VaR config, seed 0) at
N=500, with the height H and the spots per block the kernel runs them in, the
bytes of its block buffers and the settled floor's share of the band below the
conversion frontier (sum k_i * rows over sum c_i * rows, all blocks); the decision kernel `lattice.decide` alone on
one node-major (H, rows) block, the layout the kernel runs a 500-spot batch
over 60-160 in; the continuation
band's crossover (per layer, what the conversion values and `decide` cost on a
continuing run of d * rows node-spots against the certificate that skips them,
for rows 8 and that batch's rows); the operand kinds: ns per
`np.multiply(X, p, out=Y)` call on a width-1 band of OPERAND_NODES nodes with
p a Python float, a numpy float and a 0-d array (numpy converts the first two
on every call); the pointwise
`price_tf_crr` at spot 100 and N=500 (the batch-width-1 path); the figures'
counted price (`cblab price` at 2002-01-02, spot 100, N=500, bind counts on):
its height H, workspace bytes, tracemalloc peak and ms per call; the quote mix:
ms per request of `price_tf_crr` (P), `greek_point` (G) and `hedge_increment`
(H) at N=500 over QUOTE_POINTS seeded (date, spot) points across the bond's
life, each with the share of its rollback layers below expiry that call
`lattice.decide`; `philox_uniforms` at 10^6 draws; `var.ndtri` on 10^4 Philox
uniforms, next to `scipy.special.ndtri` when scipy is installed; the explicit
FD march: seconds and layers/s for `solve_tf_fd` on the reference grid, and
its memory: the tracemalloc peak of one `solve_tf_fd` on 101 spot nodes at each
of FD_MEMORY_LAYERS layer counts, after one untraced solve; and
whole `cli.main` runs of `price`, `surface`, `greeks`, `hedge-stress`, `var`
(10,000 scenarios) and `compare` at their `scripts/make_figures.sh` configs;
and the cold start: fresh `python3 -m cblab.cli price --steps 3`,
`python3 -m cblab.cli var --scenarios 16 --steps 50` and
`python3 -c "import cblab"` processes, start to exit.

    PYTHONPATH=src python scripts/bench_kernel.py [--repeats 5] [--label after]

Each cell is the best of `--repeats` timed calls after one warm-up call, at the
reference instrument's 2004-01-02 date (the VaR chunk at its horizon date); the
rollback spots are spread over 60-160, the decision block is the expiry layer
of one kernel block of such trees at N=500, H nodes of `rows` spots as the
kernel stores it (E = 0, B = redemption, conversion values at every node; no
call or put, as the kernel runs it; E and B are restored before each call,
outside the timing); and the FD grid is
`FDGrid.auto` (401 spot nodes, the minimal stable layer count).
The CLI runs keep their own dates, write into a temporary directory and
discard their stdout.  The cold-start cell is instead the median of
COLD_STARTS fresh processes each, run one after another with `PYTHONPATH`
at the timed `cblab`.  Prints one JSON object with the machine record (nproc,
numpy version, and the `git describe --always --dirty` of the checkout the
timed `cblab` is imported from, "unknown" outside git) and the cells, so two
checkouts measured back to back on the same machine can be compared.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from datetime import date, timedelta
from pathlib import Path

import numpy as np

import cblab
from cblab import cli

CELLS = tuple((m, 500) for m in (1, 2, 32, 128, 500, 1000)) + tuple((m, 100) for m in (1, 500))
BAND_RUNS = (256, 512, 1024, 2048, 4096)  # node-spots in one layer's continuation run
T0 = date(2004, 1, 2)
QUOTE_POINTS = 20  # seeded (date, spot) points per request kind in the quote mix
QUOTE_SHOCK = 0.5  # the hedge requests' spot shock
PHILOX_DRAWS = 10**6
NDTRI_DRAWS = 10**4
COLD_STARTS = 5  # fresh processes per cold-start command
FD_MEMORY_LAYERS = (10816, 43264)  # 4 and 16 times the minimal stable count on 101 nodes at T0
OPERAND_NODES = 250  # a width-1 band: about the nodes under a 500-step tree's frontier
OPERAND_CALLS = 10**4  # calls per timed loop of the operands cell
# the make_figures.sh configs, minus --out
CLI_RUNS = {
    "price": ["price", "--spot", "100", "--date", "2002-01-02", "--steps", "500"],
    "surface": ["surface", "--t-points", "61", "--s-min", "50", "--s-max", "200",
                "--s-step", "1", "--steps", "500"],
    "greeks": ["greeks", "--date", "2004-01-02", "--s-min", "50", "--s-max", "200",
               "--s-step", "0.5", "--steps", "500"],
    "hedge-stress": ["hedge-stress", "--date", "2002-01-02", "--shock", "0.5",
                     "--contract-size", "1000000", "--s-min", "50", "--s-max", "200",
                     "--s-step", "0.5", "--steps", "500"],
    "compare": ["compare", "--date", "2004-01-02", "--s-min", "105", "--s-max", "112",
                "--s-step", "0.1", "--steps", "500"],
    "var": ["var", "--date", "2004-01-02", "--spot", "100", "--holding-days", "1",
            "--confidence", "0.99", "--scenarios", "10000", "--seed", "0", "--steps", "500"],
}


def _git_sha() -> str:
    """The commit of the checkout holding the timed `cblab`, suffixed -dirty
    when its tracked files have uncommitted edits."""
    try:
        return subprocess.run(["git", "describe", "--always", "--dirty"], capture_output=True,
                              text=True, check=True, cwd=Path(cblab.__file__).parent).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def _best_of(repeats: int, call, reset=lambda: None) -> float:
    reset()
    call()
    best = float("inf")
    for _ in range(repeats):
        reset()
        t = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - t)
    return best


def kernel_block(terms, mkt, t0, spots, steps: int) -> tuple[int, int, int]:
    """(H, rows, bytes): the nodes and the spots of the blocks `rollback_batch`
    runs this batch in, and the bytes of their buffers."""
    job = cblab.lattice._rollback_job(terms, mkt, t0, spots, steps)
    return job.height, job.rows, sum(b.nbytes for b in job.buffers)


def floor_share(terms, mkt, t0, spots, steps: int) -> float:
    """The share of the band below the conversion frontier, in node-spots, that
    the kernel's blocks leave to the settled floor: sum k_i * rows over sum
    c_i * rows, from each block's layer plan."""
    job = cblab.lattice._rollback_job(terms, mkt, t0, spots, steps)
    floor = band = 0
    for lo in range(0, job.rs.size, job.rows):
        rs = job.rs[lo : lo + job.rows]
        ks, _, cs, _, _ = job.plan(rs)
        floor += rs.size * sum(ks)
        band += rs.size * sum(cs)
    return floor / band


def measure(repeats: int) -> list[dict]:
    terms, mkt = cblab.reference_terms(), cblab.reference_market()
    cells = []
    for m, steps in CELLS:
        spots = np.linspace(60.0, 160.0, m)
        best = _best_of(repeats, lambda: cblab.rollback_batch(terms, mkt, T0, spots, steps))
        cells.append({"m": m, "N": steps, "ms_per_spot": round(1e3 * best / m, 4)})
    return cells


def measure_var_chunk(repeats: int) -> dict:
    terms, mkt = cblab.reference_terms(), cblab.reference_market()
    spec = cblab.VaRSpec(eval_date=T0, spot=100.0, n_scenarios=500, seed=0, steps=500)
    spots = cblab.simulate_stock(spec)
    height, rows, workspace = kernel_block(terms, mkt, spec.horizon_date, spots, spec.steps)
    best = _best_of(repeats, lambda: cblab.rollback_batch(terms, mkt, spec.horizon_date, spots,
                                                          spec.steps))
    return {"m": spots.size, "N": spec.steps, "height": height, "rows": rows,
            "blocks": -(-spots.size // rows), "workspace_bytes": workspace,
            "floor_share": round(floor_share(terms, mkt, spec.horizon_date, spots, spec.steps), 4),
            "ms": round(1e3 * best, 4),
            "ms_per_spot": round(1e3 * best / spots.size, 4)}


def wide_block(terms, mkt, steps: int) -> tuple[int, int]:
    """(H, rows) of the kernel's blocks for 500 spots over 60-160 at T0."""
    return kernel_block(terms, mkt, T0, np.linspace(60.0, 160.0, 500), steps)[:2]


def measure_decide(repeats: int) -> dict:
    terms, mkt = cblab.reference_terms(), cblab.reference_market()
    steps = 500
    nodes, rows = wide_block(terms, mkt, steps)
    timeline = cblab.termsheet.Timeline(terms, T0)
    lp = cblab.build_crr_params(mkt.sigma, mkt.rate, timeline.tau_maturity, steps)
    spots = np.linspace(60.0, 160.0, rows)
    # node-major, as a `lattice` rollback block holds it: node j's row is every spot's value
    powers = lp.up ** np.arange(-steps, steps + 1, 2, dtype=float)
    conv = (timeline.ratio * spots) * powers[:nodes, None]
    E, B, V, vs = (np.empty_like(conv) for _ in range(4))
    ncont, convb = (np.empty(conv.shape, dtype=bool) for _ in range(2))

    def reset():
        E.fill(0.0)
        B.fill(timeline.redemption)

    best = _best_of(repeats, lambda: cblab.lattice.decide(E, B, V, vs, conv, np.inf, 0.0,
                                                          ncont, convb), reset)
    return {"nodes": nodes, "rows": rows, "ms_per_block": round(1e3 * best, 4),
            "ns_per_node": round(1e9 * best / conv.size, 3)}


def measure_band(repeats: int) -> dict:
    """Per run size, the microseconds the conversion values and `decide` spend
    on a run of continuing nodes (the work on d + 1 nodes less that on 1, since
    the rest of a band is decided anyway) and those of the certificate that
    replaces them; the crossover is the smallest run that pays at every width."""
    certify = cblab.lattice._Rollback.continues
    loops, runs = 50, []
    _, wide_rows = wide_block(cblab.reference_terms(), cblab.reference_market(), 500)
    for rows in (8, wide_rows):
        d_max = max(BAND_RUNS) // rows + 1
        rs = np.linspace(0.6, 1.6, rows)  # ratio * spot of a 60-160 block
        pw = np.linspace(0.5, 1.0, 2 * d_max)
        E, B = np.zeros((d_max, rows)), np.full((d_max, rows), 105.0)  # held 105 > every conv
        V, vs, conv = (np.empty_like(E) for _ in range(3))
        masks = [np.empty(E.shape, dtype=bool) for _ in range(2)]

        def decided(n):
            for _ in range(loops):
                np.multiply(rs, pw[: 2 * n : 2, None], out=conv[:n])
                cblab.lattice.decide(E[:n], B[:n], V[:n], vs[:n], conv[:n], 130.0, 0.0,
                                     *(x[:n] for x in masks))

        def certified(n):
            for _ in range(loops):
                certify(E[:n], B[:n], V[:n], 130.0, 1.6)

        one = _best_of(repeats, lambda: decided(1))
        for cells in BAND_RUNS:
            d = cells // rows
            saved = _best_of(repeats, lambda: decided(d + 1)) - one
            cost = _best_of(repeats, lambda: certified(d))
            runs.append({"rows": rows, "cells": d * rows, "decide_us": round(1e6 * saved / loops, 3),
                         "certify_us": round(1e6 * cost / loops, 3)})
    paying = [c for c in BAND_RUNS
              if all(r["decide_us"] > r["certify_us"] for r in runs if r["cells"] >= c)]
    return {"runs": runs, "crossover_cells": min(paying, default=None)}


def measure_operands(repeats: int) -> dict:
    """ns per call of the rollback's `np.multiply(X, p, out=Y)` on a node-major
    (OPERAND_NODES, 1) band, by the kind of the scalar operand p; each timed
    loop holds OPERAND_CALLS calls, its own loop overhead included."""
    X = np.linspace(90.0, 110.0, OPERAND_NODES).reshape(-1, 1)
    Y, p = np.empty_like(X), 0.5022
    cells = {"nodes": OPERAND_NODES}
    for name, operand in (("python_float_ns", p), ("numpy_float_ns", np.float64(p)),
                          ("array_0d_ns", np.array(p))):
        def calls(operand=operand):
            for _ in range(OPERAND_CALLS):
                np.multiply(X, operand, out=Y)

        cells[name] = round(1e9 * _best_of(repeats, calls) / OPERAND_CALLS, 1)
    return cells


def measure_price_binds(repeats: int) -> dict:
    """The figures' counted price, `cblab price` at 2002-01-02, spot 100 and
    N=500 (`rollback_batch` with bind counts): the height H and the workspace
    bytes of its block, the tracemalloc peak of one call after an untraced
    one, and ms per call."""
    terms, mkt = cblab.reference_terms(), cblab.reference_market()
    t0, spots, steps = date(2002, 1, 2), np.array([100.0]), 500
    job = cblab.lattice._rollback_job(terms, mkt, t0, spots, steps, binds=True)
    height, workspace = job.height, sum(b.nbytes for b in job.buffers)

    def call():
        cblab.rollback_batch(terms, mkt, t0, spots, steps, binds=True)

    call()
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {"N": steps, "height": height, "workspace_bytes": workspace, "peak_bytes": peak,
            "ms_per_call": round(1e3 * _best_of(repeats, call), 4)}


def measure_pointwise(repeats: int) -> dict:
    terms, mkt = cblab.reference_terms(), cblab.reference_market()
    best = _best_of(repeats, lambda: cblab.price_tf_crr(terms, mkt, T0, 100.0, 500))
    return {"N": 500, "ms_per_call": round(1e3 * best, 4)}


def _decide_share(call, steps: int) -> float:
    """The share of the rollback layers below expiry on which `call`, whose
    trees all have `steps` steps, runs `lattice.decide`: every block's expiry
    layer runs `expire`, which runs `decide` once, and rolls back `steps`
    layers under it."""
    lattice, counts = cblab.lattice, {"decide": 0, "expire": 0}
    decide, expire = lattice.decide, lattice.expire

    def counting(name, fn):
        def wrapped(*args):
            counts[name] += 1
            fn(*args)
        return wrapped

    lattice.decide, lattice.expire = counting("decide", decide), counting("expire", expire)
    try:
        call()
    finally:
        lattice.decide, lattice.expire = decide, expire
    return (counts["decide"] - counts["expire"]) / (counts["expire"] * steps)


def measure_quote_mix(repeats: int) -> dict:
    """Per request kind, ms per request over the same QUOTE_POINTS points, as
    the `quote_stream` benchmark draws them (dates uniform over the bond's
    life, spots uniform in 50-200, seed 0), and the share of layers that call
    `decide`."""
    terms, mkt = cblab.reference_terms(), cblab.reference_market()
    rng, life = random.Random(0), (terms.maturity - terms.issue).days
    points = [(terms.issue + timedelta(days=int(rng.random() * life)), 50.0 + 150.0 * rng.random())
              for _ in range(QUOTE_POINTS)]
    kinds = {
        "P": lambda t, s: cblab.price_tf_crr(terms, mkt, t, s, 500),
        "G": lambda t, s: cblab.greek_point(terms, mkt, t, s, 500),
        "H": lambda t, s: cblab.hedge_increment(terms, mkt, t, s, QUOTE_SHOCK, 500),
    }
    cells = {}
    for kind, serve in kinds.items():
        def sweep(serve=serve):
            for t, s in points:
                serve(t, s)

        best = _best_of(repeats, sweep)
        cells[kind] = {"ms_per_request": round(1e3 * best / QUOTE_POINTS, 4),
                       "decide_share": round(_decide_share(sweep, 500), 4)}
    return {"N": 500, "points": QUOTE_POINTS, "requests": cells}


def measure_philox(repeats: int) -> dict:
    best = _best_of(repeats, lambda: cblab.var.philox_uniforms(0, PHILOX_DRAWS))
    return {"draws": PHILOX_DRAWS, "seconds": round(best, 4),
            "draws_per_s": round(PHILOX_DRAWS / best)}


def measure_ndtri(repeats: int) -> dict:
    """ms for the in-repo `ndtri` and for scipy's (None without scipy) on the
    same Philox uniforms."""
    u = cblab.var.philox_uniforms(0, NDTRI_DRAWS)
    try:
        from scipy.special import ndtri as scipy_ndtri
    except ImportError:
        scipy_ndtri = None
    cells = {"draws": NDTRI_DRAWS}
    for name, fn in (("in_repo_ms", cblab.var.ndtri), ("scipy_ms", scipy_ndtri)):
        cells[name] = None if fn is None else round(1e3 * _best_of(repeats, lambda: fn(u)), 4)
    return cells


def measure_fd(repeats: int) -> dict:
    terms, mkt = cblab.reference_terms(), cblab.reference_market()
    grid = cblab.FDGrid.auto(mkt, cblab.year_fraction(T0, terms.maturity))
    best = _best_of(repeats, lambda: cblab.solve_tf_fd(terms, mkt, T0, grid))
    return {"n_s": grid.n_s, "n_t": grid.n_t, "seconds": round(best, 4),
            "layers_per_s": round((grid.n_t - 1) / best)}


def measure_fd_memory() -> dict:
    """Peak traced bytes of one `solve_tf_fd` (default snapshots) per layer count."""
    terms, mkt = cblab.reference_terms(), cblab.reference_market()
    cells = {"n_s": 101, "runs": []}
    for n_t in FD_MEMORY_LAYERS:
        grid = cblab.FDGrid(s_max=400.0, n_s=101, n_t=n_t)
        cblab.solve_tf_fd(terms, mkt, T0, grid)
        tracemalloc.start()
        try:
            cblab.solve_tf_fd(terms, mkt, T0, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        cells["runs"].append({"n_t": n_t, "peak_bytes": peak})
    return cells


def measure_cli(repeats: int) -> dict:
    cells = {}
    with tempfile.TemporaryDirectory() as out:
        for name, argv in CLI_RUNS.items():
            def call(argv=argv):
                with contextlib.redirect_stdout(io.StringIO()):
                    if cli.main(argv + ["--out", out]) != 0:
                        raise RuntimeError(f"cblab {name} failed")

            cells[name] = {"seconds": round(_best_of(repeats, call), 4)}
    return cells


def measure_cold_start() -> dict:
    env = dict(os.environ, PYTHONPATH=str(Path(cblab.__file__).parents[1]))
    cells = {}
    with tempfile.TemporaryDirectory() as out:
        for name, argv in (("cli_price", ["-m", "cblab.cli", "price", "--steps", "3", "--out", out]),
                           ("cli_var", ["-m", "cblab.cli", "var", "--scenarios", "16",
                                        "--steps", "50", "--out", out]),
                           ("import", ["-c", "import cblab"])):
            times = []
            for _ in range(COLD_STARTS):
                t = time.perf_counter()
                subprocess.run([sys.executable, *argv], env=env, cwd=out, check=True,
                               stdout=subprocess.DEVNULL)
                times.append(time.perf_counter() - t)
            cells[name] = {"median_s": round(statistics.median(times), 4),
                           "runs_s": [round(x, 4) for x in times]}
    return cells


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--label", default="")
    args = ap.parse_args()
    record = {
        "label": args.label,
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cells": measure(args.repeats),
        "var_chunk": measure_var_chunk(args.repeats),
        "decide": measure_decide(args.repeats),
        "band": measure_band(args.repeats),
        "operands": measure_operands(args.repeats),
        "price_tf_crr": measure_pointwise(args.repeats),
        "price_binds": measure_price_binds(args.repeats),
        "quote_mix": measure_quote_mix(args.repeats),
        "philox_uniforms": measure_philox(args.repeats),
        "ndtri": measure_ndtri(args.repeats),
        "fd": measure_fd(args.repeats),
        "fd_memory": measure_fd_memory(),
        "cli": measure_cli(args.repeats),
        "cold_start": measure_cold_start(),
    }
    print(json.dumps(record))


if __name__ == "__main__":
    main()
