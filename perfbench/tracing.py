"""Spans at cblab's module boundaries, recorded from outside the package.

`Tracer.installed()` replaces the public functions named in `BOUNDARIES` with
timing wrappers, in every module that binds them, and restores them on exit.
Spans stay in memory as [name, start, end, parent, request, counts] and are
written out once, when the run ends.  A span's self time is its duration
minus the durations of its direct children (calls are single-threaded, so
children never overlap).
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import statistics
import sys
import time
from pathlib import Path


def _rollback_counts(a, _out):
    m, n = len(a["spots"]), a["steps"]
    # computed from array sizes: tree nodes visited and the six (m, N+1) float64 buffers
    return {"m": m, "nodes": m * (n + 1) * (n + 2) // 2, "buffer_bytes": 6 * m * (n + 1) * 8}


def _draw_counts(a, _out):
    return {"draws": a["spec"].n_scenarios}


def _fd_counts(a, _out):
    g = a["grid"]
    return {"layers": g.n_t, "node_updates": g.n_s * (g.n_t - 1)}


def _write_counts(a, _out):
    return {"rows": len(a["report"].rows), "bytes": Path(a["path"]).stat().st_size}


# (module, attribute bound there, span name, counter)
BOUNDARIES = [
    ("lattice", "rollback_batch", "lattice.rollback_batch", _rollback_counts),
    ("var", "rollback_batch", "lattice.rollback_batch", _rollback_counts),
    ("sensitivities", "rollback_batch", "lattice.rollback_batch", _rollback_counts),
    ("hedge", "rollback_batch", "lattice.rollback_batch", _rollback_counts),
    ("lattice", "price_tf_crr", "lattice.price_tf_crr", None),
    ("var", "price_tf_crr", "lattice.price_tf_crr", None),
    ("lattice", "price_profile_raw", "lattice.price_profile_raw", None),
    ("lattice", "Timeline", "termsheet.Timeline", None),
    ("fd", "Timeline", "termsheet.Timeline", None),
    ("sensitivities", "greek_point", "sensitivities.greek_point", None),
    ("sensitivities", "monotonicity_violations", "sensitivities.monotonicity_violations", None),
    ("hedge", "hedge_increment", "hedge.hedge_increment", None),
    ("var", "run_var", "var.run_var", None),
    ("var", "simulate_stock", "var.simulate_stock", _draw_counts),
    ("var", "revalue", "var.revalue", None),
    ("var", "var_quantile", "var.var_quantile", None),
    ("var", "density_histogram", "var.density_histogram", None),
    ("fd", "solve_tf_fd", "fd.solve_tf_fd", _fd_counts),
    ("fd", "fd_profile", "fd.fd_profile", None),
    ("cli", "write_rows", "reports.write_rows", _write_counts),
    ("cli", "main", "cli.main", None),
]

# span name -> per-layer self-time metric it is charged to
SELF_TIME_METRIC = {
    "lattice.rollback_batch": "lattice.rollback_s",
    "lattice.price_tf_crr": "lattice.wrapper_s",
    "lattice.price_profile_raw": "lattice.wrapper_s",
    "termsheet.Timeline": "termsheet.timeline_s",
    "sensitivities.greek_point": "sensitivities.self_s",
    "sensitivities.monotonicity_violations": "sensitivities.self_s",
    "hedge.hedge_increment": "hedge.self_s",
    "var.run_var": "var.self_s",
    "var.simulate_stock": "var.rng_s",
    "var.revalue": "var.revalue_self_s",
    "var.var_quantile": "var.stats_s",
    "var.density_histogram": "var.stats_s",
    "fd.solve_tf_fd": "fd.solve_s",
    "fd.fd_profile": "fd.profile_s",
    "reports.write_rows": "reports.write_s",
    "cli.main": "cli.self_s",
}

# per-pass counts: metric -> (span name, count key)
PASS_COUNTS = {
    "lattice.calls": ("lattice.rollback_batch", None),
    "lattice.nodes": ("lattice.rollback_batch", "nodes"),
    "var.draws": ("var.simulate_stock", "draws"),
    "fd.node_updates": ("fd.solve_tf_fd", "node_updates"),
    "reports.rows": ("reports.write_rows", "rows"),
    "reports.bytes": ("reports.write_rows", "bytes"),
}


UNITS = {  # per-layer metric -> unit
    "lattice.rollback_s": "s", "lattice.wrapper_s": "s", "termsheet.timeline_s": "s",
    "sensitivities.self_s": "s", "hedge.self_s": "s", "var.self_s": "s", "var.rng_s": "s",
    "var.revalue_self_s": "s", "var.stats_s": "s", "fd.solve_s": "s", "fd.profile_s": "s",
    "reports.write_s": "s", "cli.self_s": "s",
    "lattice.calls": "count", "lattice.nodes": "count", "var.draws": "count",
    "fd.node_updates": "count", "reports.rows": "count", "reports.bytes": "bytes",
    "lattice.mnodes_per_s": "Mnode/s", "lattice.batch_width_mean": "spots",
    "lattice.buffer_mb_peak": "MiB", "var.draws_per_s": "1/s", "fd.layers": "count",
    "fd.mnode_updates_per_s": "Mnode/s",
    "trace.wall_s": "s", "trace.untraced_wall_s": "s", "trace.overhead_s": "s", "trace.self_share": "ratio",
}


class Tracer:
    """In-memory span recorder; one per run."""

    def __init__(self):
        self.spans: list[list] = []
        self.request = 0
        self.missing: list[str] = []
        self._stack: list[int] = []

    def new_request(self) -> None:
        self.request += 1

    def _wrap(self, name, fn, counter):
        sig = inspect.signature(fn) if counter else None
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.request, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                span[5] = counter(sig.bind(*args, **kwargs).arguments, out)
            return out

        return traced

    @contextlib.contextmanager
    def installed(self, modules: dict):
        """Wrap every boundary found in `modules` (name -> module object)."""
        saved = []
        try:
            for mod_name, attr, span_name, counter in BOUNDARIES:
                mod = modules[mod_name]
                fn = getattr(mod, attr, None)
                if fn is None:
                    self.missing.append(f"{mod_name}.{attr}")
                    continue
                saved.append((mod, attr, fn))
                setattr(mod, attr, self._wrap(span_name, fn, counter))
            yield
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def write(self, path: Path, t_origin: float) -> None:
        """Spans as JSON lines; times in seconds from `t_origin`."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as f:
            for i, (name, start, end, parent, req, counts) in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": name, "start": start - t_origin, "end": end - t_origin,
                                    "parent": parent, "request": req, "counts": counts}) + "\n")


def pass_layers(spans: list[list], first: int, last: int) -> dict:
    """Per-layer self times and counts of one traced pass, spans[first:last]
    (a pass's spans have their parents inside the same slice)."""
    own = spans[first:last]
    self_t = [s[2] - s[1] for s in own]
    for s in own:
        if s[3] is not None:
            self_t[s[3] - first] -= s[2] - s[1]
    layers = {m: 0.0 for m in SELF_TIME_METRIC.values()}
    for s, t in zip(own, self_t):
        layers[SELF_TIME_METRIC[s[0]]] += t
    for metric, (name, key) in PASS_COUNTS.items():
        hits = [s for s in own if s[0] == name]
        # a call that raised has no counts
        layers[metric] = len(hits) if key is None else sum(s[5][key] for s in hits if s[5] is not None)
    layers["self_sum"] = sum(self_t)
    return layers


def per_layer_metrics(spans: list[list], traced: list[tuple], untraced_walls: list[float]) -> dict:
    """Per-layer metrics from the traced passes, given as (wall, pass_layers)
    pairs, plus the untraced pass walls of the same run."""
    med = lambda key: statistics.median(p[1][key] for p in traced)
    out = {m: med(m) for m in sorted(set(SELF_TIME_METRIC.values()))}
    out.update({m: med(m) for m in PASS_COUNTS})

    rb = [s for s in spans if s[0] == "lattice.rollback_batch" and s[5]]
    rb_self = sum(p[1]["lattice.rollback_s"] for p in traced)
    out["lattice.mnodes_per_s"] = sum(p[1]["lattice.nodes"] for p in traced) / rb_self / 1e6 if rb_self else 0.0
    out["lattice.batch_width_mean"] = sum(s[5]["m"] for s in rb) / len(rb) if rb else 0.0
    out["lattice.buffer_mb_peak"] = max((s[5]["buffer_bytes"] for s in rb), default=0) / 2**20

    rng = sum(p[1]["var.rng_s"] for p in traced)
    out["var.draws_per_s"] = sum(p[1]["var.draws"] for p in traced) / rng if rng else 0.0

    fd = [s for s in spans if s[0] == "fd.solve_tf_fd" and s[5]]
    fd_self = sum(p[1]["fd.solve_s"] for p in traced)
    out["fd.layers"] = sum(s[5]["layers"] for s in fd) / len(fd) if fd else 0.0
    out["fd.mnode_updates_per_s"] = sum(p[1]["fd.node_updates"] for p in traced) / fd_self / 1e6 if fd_self else 0.0

    traced_wall = statistics.median(p[0] for p in traced)
    out["trace.wall_s"] = traced_wall
    out["trace.untraced_wall_s"] = statistics.median(untraced_walls)
    out["trace.overhead_s"] = traced_wall - out["trace.untraced_wall_s"]
    out["trace.self_share"] = statistics.median(p[1]["self_sum"] / p[0] for p in traced)
    return out


def self_sums_within_wall(traced: list[tuple]) -> bool:
    """True when, in every traced pass, the self times add up to no more than
    the pass's wall time (they cannot, unless spans overlap or nest wrongly)."""
    ok = all(p[1]["self_sum"] <= p[0] + 1e-6 for p in traced)
    if not ok:
        print("trace: self times exceed wall time in some pass", file=sys.stderr)
    return ok
