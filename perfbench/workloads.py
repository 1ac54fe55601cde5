"""The benchmark's three closed-loop workloads.

Each workload turns a seed into a fixed cycle of passes; a pass is a fixed
amount of work made of operations.  Running a pass calls cblab's public API,
times every request, checks every result for finiteness and hashes the
outputs so that two commits can be compared bit for bit.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import sys
import time
import traceback
from dataclasses import dataclass
from datetime import date, timedelta
from pathlib import Path

import numpy as np

REF_DATE = date(2004, 1, 2)  # evaluation date of the reference VaR and compare configs


@dataclass
class PassResult:
    """What one pass did: operations attempted and failed, wall time, the
    latency of every request, and a digest of every output in order."""

    ops: int
    failed: int
    wall: float
    latencies: list[float]
    digest: str


def _hash(chunks) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c)
    return h.hexdigest()[:16]


def _floats(*xs) -> bytes:
    return np.asarray(xs, dtype=np.float64).tobytes()


def _report_failure(what: str) -> None:
    print(f"operation failed: {what}", file=sys.stderr)
    traceback.print_exc(limit=3, file=sys.stderr)


class VarRevalue:
    """Repeated `var.run_var` at the reference VaR config; one pass is one
    run with its own Philox seed, and an operation is one repriced scenario."""

    name = "var_revalue"
    calibration = "batch"

    def __init__(self, cb, tiny: bool):
        self.cb = cb
        self.steps = 50 if tiny else 500
        # one of revalue's 500-spot chunks per pass: many short passes per run
        self.scenarios = 40 if tiny else 500
        self.cycle = 6

    def sizes(self) -> dict:
        return {"N": self.steps, "scenarios_per_pass": self.scenarios, "passes_per_cycle": self.cycle}

    def passes(self, seed: int, inject_bad: bool) -> list[dict]:
        rng = random.Random(seed)
        out = [{"spot": 100.0, "philox_seed": rng.getrandbits(63)} for _ in range(self.cycle)]
        if inject_bad:
            out[0]["spot"] = -1.0
        return out

    def _spec(self, p: dict, n: int):
        return self.cb.var.VaRSpec(
            eval_date=REF_DATE, spot=p["spot"], holding_days=1, confidence=0.99,
            n_scenarios=n, drift=0.05, scen_sigma=0.30, seed=p["philox_seed"], steps=self.steps,
        )

    def warm_up(self) -> None:
        self.cb.var.run_var(self._spec({"spot": 100.0, "philox_seed": 0}, 16), self.cb.terms, self.cb.mkt)

    def run_pass(self, p: dict, tracer=None) -> PassResult:
        if tracer is not None:
            tracer.new_request()
        t0 = time.perf_counter()
        try:
            res = self.cb.var.run_var(self._spec(p, self.scenarios), self.cb.terms, self.cb.mkt)
        except Exception:
            wall = time.perf_counter() - t0
            _report_failure(f"run_var {p}")
            return PassResult(self.scenarios, self.scenarios, wall, [wall], _hash([b"error"]))
        wall = time.perf_counter() - t0
        ok = bool(np.isfinite(res.scenario_values).all() and np.isfinite([res.value0, res.var_abs]).all())
        digest = _hash([
            res.scenario_spots.tobytes(), res.scenario_values.tobytes(),
            _floats(res.value0, res.var_abs), res.value_hist.counts.astype(np.int64).tobytes(),
        ])
        return PassResult(self.scenarios, 0 if ok else self.scenarios, wall, [wall], digest)


# One repeat of the request mix: 12 prices, 5 Greek points, 3 hedge increments.
# The median request is a plain price and the 95th percentile a hedge increment
# (two rollbacks), so neither quantile sits on the border between two kinds.
_QUOTE_PATTERN = "PPGPHPPGPPPGPHPPGPGH"
_QUOTE_SHOCK = 0.5


class QuoteStream:
    """Single-point requests at N=500: a (date, spot) drawn over the bond's
    life and spots 50-200, served by `price_tf_crr`, `greek_point` or
    `hedge_increment` in the fixed proportions of `_QUOTE_PATTERN`."""

    name = "quote_stream"
    calibration = "point"

    def __init__(self, cb, tiny: bool):
        self.cb = cb
        self.steps = 50 if tiny else 500
        self.requests = 20 if tiny else 400
        self.per_pass = 10 if tiny else 2 * len(_QUOTE_PATTERN)

    def sizes(self) -> dict:
        return {"N": self.steps, "requests_per_cycle": self.requests, "requests_per_pass": self.per_pass,
                "mix": {"price": 12, "greek": 5, "hedge": 3}}

    def passes(self, seed: int, inject_bad: bool) -> list[list[tuple]]:
        rng = random.Random(seed)
        terms = self.cb.terms
        life = (terms.maturity - terms.issue).days
        reqs = []
        for i in range(self.requests):
            when = terms.issue + timedelta(days=int(rng.random() * life))
            spot = 50.0 + 150.0 * rng.random()
            reqs.append((_QUOTE_PATTERN[i % len(_QUOTE_PATTERN)], when, spot))
        if inject_bad:
            reqs[0] = (reqs[0][0], reqs[0][1], -1.0)
        return [reqs[i:i + self.per_pass] for i in range(0, self.requests, self.per_pass)]

    def _serve(self, kind: str, when: date, spot: float) -> bytes:
        cb = self.cb
        if kind == "P":
            r = cb.lattice.price_tf_crr(cb.terms, cb.mkt, when, spot, self.steps)
            return _floats(r.node.equity, r.node.debt)
        if kind == "G":
            g = cb.sensitivities.greek_point(cb.terms, cb.mkt, when, spot, self.steps)
            return _floats(g.value, g.equity, g.debt, g.delta, g.delta_pct, g.gamma)
        return _floats(cb.hedge.hedge_increment(cb.terms, cb.mkt, when, spot, _QUOTE_SHOCK, self.steps))

    def warm_up(self) -> None:
        for kind in "PGH":
            self._serve(kind, REF_DATE, 100.0)

    def run_pass(self, reqs: list[tuple], tracer=None) -> PassResult:
        failed, lat, outs = 0, [], []
        t_pass = time.perf_counter()
        for req in reqs:
            if tracer is not None:
                tracer.new_request()
            t0 = time.perf_counter()
            try:
                out = self._serve(*req)
            except Exception:
                lat.append(time.perf_counter() - t0)
                _report_failure(f"quote {req}")
                failed += 1
                outs.append(b"error")
                continue
            lat.append(time.perf_counter() - t0)
            if not np.isfinite(np.frombuffer(out)).all():
                failed += 1
            outs.append(out)
        wall = time.perf_counter() - t_pass
        return PassResult(len(reqs), failed, wall, lat, _hash(outs))


class OracleCompare:
    """`cblab compare` through `cli.main` at the make_figures compare config
    (S 105-112 step 0.1, N=500, auto FD grid) at seeded evaluation dates.

    Dates stay within 45 days of 2004-01-02 so the FD layer count, which grows
    with the time to maturity, varies by at most a few percent between seeds.
    """

    name = "oracle_compare"
    calibration = "march"

    def __init__(self, cb, tiny: bool, out_dir: Path):
        self.cb = cb
        self.out_dir = out_dir
        self.tiny = tiny
        self.steps = 50 if tiny else 500
        self.cycle = 4 if tiny else 12

    def sizes(self) -> dict:
        return {"N": self.steps, "dates_per_cycle": self.cycle, "fd_nodes": 41 if self.tiny else 401,
                "s_grid": "105:112:0.5" if self.tiny else "105:112:0.1"}

    def _argv(self, when: date, s_min: float, steps: int, tiny: bool) -> list[str]:
        argv = ["compare", "--date", when.isoformat(), "--s-min", repr(s_min), "--s-max", "112",
                "--s-step", "0.5" if tiny else "0.1", "--steps", str(steps), "--out", str(self.out_dir)]
        return argv + (["--fd-nodes", "41"] if tiny else [])

    def passes(self, seed: int, inject_bad: bool) -> list[dict]:
        rng = random.Random(seed)
        out = [{"date": REF_DATE + timedelta(days=int(rng.random() * 91) - 45), "s_min": 105.0}
               for _ in range(self.cycle)]
        if inject_bad:
            out[0]["s_min"] = -1.0
        return out

    def _compare(self, argv: list[str]) -> tuple[int, str]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            rc = self.cb.cli.main(argv)
        return rc, buf.getvalue()

    def warm_up(self) -> None:
        self._compare(self._argv(REF_DATE, 105.0, 50, tiny=True))

    def run_pass(self, p: dict, tracer=None) -> PassResult:
        if tracer is not None:
            tracer.new_request()
        csv = self.out_dir / "compare.csv"
        csv.unlink(missing_ok=True)
        t0 = time.perf_counter()
        try:
            rc, log = self._compare(self._argv(p["date"], p["s_min"], self.steps, self.tiny))
        except Exception:
            wall = time.perf_counter() - t0
            _report_failure(f"compare {p}")
            return PassResult(1, 1, wall, [wall], _hash([b"error"]))
        wall = time.perf_counter() - t0
        if rc != 0 or not csv.is_file():
            print(f"operation failed: compare {p} exited {rc}: {log.strip()}", file=sys.stderr)
            return PassResult(1, 1, wall, [wall], _hash([b"error"]))
        lines = csv.read_text().splitlines()
        # the config header names the terms file by its absolute path, so it
        # differs between checkouts; the summary lines and the rows do not
        output = [line for line in lines if not line.startswith(("# cblab ", "# config"))]
        rows = [line.split(",") for line in output if not line.startswith("#")]
        values = np.array([[float(x) for x in row] for row in rows[1:]])
        ok = values.size > 0 and bool(np.isfinite(values).all())
        return PassResult(1, 0 if ok else 1, wall, [wall], _hash(line.encode() + b"\n" for line in output))


def make(name: str, cb, tiny: bool, out_dir: Path):
    if name == VarRevalue.name:
        return VarRevalue(cb, tiny)
    if name == QuoteStream.name:
        return QuoteStream(cb, tiny)
    if name == OracleCompare.name:
        return OracleCompare(cb, tiny, out_dir)
    raise SystemExit(f"unknown workload {name!r}")

