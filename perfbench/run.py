"""cblab benchmark: one closed-loop caller, one process, cblab's public API.

Run from the root of a checkout:

    python3 perfbench/run.py --workload var_revalue --seed 1 --seconds 36 --trace 0

Workloads: var_revalue, quote_stream, oracle_compare (see README.md).  With
--trace 0 the last stdout line is a JSON object with the end-to-end metrics;
with --trace 1 it carries the per-layer metrics of a run that alternates
traced and untraced passes, and the spans are written to .bench_out/.
The cblab package is imported from ./src of the checkout and nowhere else.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

T_START = time.perf_counter()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
GOLDENS = HERE / "goldens"

SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=36.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="self-check sizes (no golden outputs)")
    p.add_argument("--inject-bad", action="store_true", help="make the first operation invalid (self-check)")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--record-goldens", metavar="SEEDS",
                   help="record golden pass digests for seeds A-B (run on the commit that defines them)")
    return p.parse_args(argv)


def load_cblab():
    """Import cblab from the checkout's src/, plus the terms every workload uses."""
    sys.path.insert(0, str(SRC))
    import cblab
    from cblab import cli, fd, hedge, lattice, sensitivities, var

    if SRC.resolve() not in Path(cblab.__file__).resolve().parents:
        raise SystemExit(f"cblab was imported from {cblab.__file__}, not from {SRC}")
    return SimpleNamespace(
        cblab=cblab, lattice=lattice, sensitivities=sensitivities, hedge=hedge, var=var, fd=fd, cli=cli,
        terms=cblab.reference_terms(), mkt=cblab.reference_market(),
    )


def modules(cb) -> dict:
    return {m: getattr(cb, m) for m in ("lattice", "sensitivities", "hedge", "var", "fd", "cli")}


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment(cb, args, wl, inherited_threads) -> dict:
    import numpy
    import scipy

    cpuinfo = Path("/proc/cpuinfo")
    cpu = next((line.split(":", 1)[1].strip() for line in cpuinfo.read_text().splitlines()
                if line.startswith("model name")), None) if cpuinfo.is_file() else None
    src_hash = hashlib.sha256()
    for f in sorted((SRC / "cblab").rglob("*")):
        if f.is_file() and "__pycache__" not in f.parts:
            src_hash.update(f.relative_to(SRC).as_posix().encode() + b"\0" + f.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(), "cpu_model": cpu,
        "python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__,
        "cblab": cb.cblab.__version__, "git_sha": git_sha(), "src_sha256": src_hash.hexdigest()[:16],
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "sizes": wl.sizes(), "tiny": args.tiny, "inject_bad": args.inject_bad,
        "CBLAB_THREADS_unset": "CBLAB_THREADS" not in os.environ,
        "CBLAB_THREADS_inherited": inherited_threads,
    }


def measure(wl, passes, seconds, tracer, mods, calib=None):
    """Closed loop: run whole passes, cycling through `passes`, and stop before
    a further pass would end past `seconds`.  With a tracer, passes alternate
    untraced / traced on the same input, so their difference is the overhead.
    With a calibrator (untraced runs), its kernel is timed before every pass
    and after the last; those n + 1 times come back with the passes."""
    done = []  # (cycle position, traced, PassResult, span slice of the pass)
    kernel_times = []
    start = time.perf_counter()
    i = 0
    while True:
        traced = tracer is not None and i % 2 == 1
        pos = (i // 2 if tracer else i) % len(passes)
        first = len(tracer.spans) if tracer else 0
        if calib is not None:
            kernel_times.append(calib.time())
        if traced:
            with tracer.installed(mods):
                r = wl.run_pass(passes[pos], tracer)
        else:
            r = wl.run_pass(passes[pos], tracer)
        done.append((pos, traced, r, (first, len(tracer.spans) if tracer else 0)))
        i += 1
        elapsed = time.perf_counter() - start
        typical = statistics.median(d[2].wall for d in done)
        if kernel_times:
            typical += statistics.median(kernel_times)
        if (tracer is None or i >= 2) and elapsed + typical > seconds:
            if calib is not None:
                kernel_times.append(calib.time())
            return done, kernel_times


def nearest_rank(sorted_xs, q):
    return sorted_xs[max(math.ceil(q * len(sorted_xs)), 1) - 1]


def probe_setup(args, calib) -> tuple[list[float], list[float]]:
    """Time fresh processes from start until they report ready: import, load
    the terms, one warm-up call.  Run one after another, after the measurement,
    with the calibration kernel timed before each and after the last."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--setup-probe"]
    if args.tiny:
        cmd.append("--tiny")
    times, kernel_times = [], []
    for _ in range(2 if args.tiny else SETUP_PROBES):
        kernel_times.append(calib.time())
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != "ready" or proc.returncode != 0:
            raise SystemExit(f"setup probe failed (exit {proc.returncode})")
    kernel_times.append(calib.time())
    return times, kernel_times


def golden_digests(wl, args):
    path = GOLDENS / f"{wl.name}.json"
    if args.tiny or args.inject_bad or not path.is_file():
        return None
    data = json.loads(path.read_text())
    if data["sizes"] != json.loads(json.dumps(wl.sizes())):
        return None
    return data["seeds"].get(str(args.seed))


def record_goldens(wl, seeds_arg: str) -> int:
    lo, _, hi = seeds_arg.partition("-")
    path = GOLDENS / f"{wl.name}.json"
    data = json.loads(path.read_text()) if path.is_file() else {"sizes": wl.sizes(), "seeds": {}}
    if data["sizes"] != json.loads(json.dumps(wl.sizes())):
        raise SystemExit(f"{path} was recorded at other sizes")
    for seed in range(int(lo), int(hi or lo) + 1):
        results = [wl.run_pass(p) for p in wl.passes(seed, False)]
        if any(r.failed for r in results):
            raise SystemExit(f"seed {seed}: an operation failed; not recording")
        data["seeds"][str(seed)] = [r.digest for r in results]
        print(f"seed {seed}: {data['seeds'][str(seed)]}", flush=True)
    GOLDENS.mkdir(exist_ok=True)
    data["seeds"] = dict(sorted(data["seeds"].items(), key=lambda kv: int(kv[0])))
    path.write_text(json.dumps(data, indent=1) + "\n")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cblab" / "__init__.py").is_file():
        print(f"cblab sources not found under {SRC}; run from a full checkout", file=sys.stderr)
        return 3
    # the workloads run with the program's defaults
    inherited_threads = os.environ.pop("CBLAB_THREADS", None)

    import workloads

    cb = load_cblab()
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="compare-", dir=OUT))
    try:
        wl = workloads.make(args.workload, cb, args.tiny, tmp)
        wl.warm_up()
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        if args.record_goldens:
            return record_goldens(wl, args.record_goldens)
        return run(args, cb, wl, inherited_threads)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def run(args, cb, wl, inherited_threads) -> int:
    import calibrate
    import tracing

    passes = wl.passes(args.seed, args.inject_bad)
    tracer = tracing.Tracer() if args.trace else None
    mods = modules(cb)
    calib = None
    if tracer is None:
        calib = calibrate.Calibrator(wl.calibration)
        calib.time()  # warm the kernel, as the workload was warmed up
    done, kernel_times = measure(wl, passes, args.seconds, tracer, mods, calib)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    attempted = sum(d[2].ops for d in done)
    failed = sum(d[2].failed for d in done)
    golden = golden_digests(wl, args)
    mismatched = 0
    if golden is not None:
        for pos, _, r, _ in done:
            if r.digest != golden[pos]:
                mismatched += 1
                failed += r.ops - r.failed
    digests = {pos: r.digest for pos, _, r, _ in done}
    env = environment(cb, args, wl, inherited_threads)
    print("env " + json.dumps(env))
    print(f"output_digest {digests[0]} (first pass of the cycle); pass digests {json.dumps(digests)}")
    if golden is None:
        print(f"golden: none recorded for seed {args.seed} at these sizes; finite check only")
    else:
        print(f"golden: {len(done) - mismatched}/{len(done)} passes bit-identical to the recorded outputs")
    print(f"error_rate {failed / attempted:.6g} ({failed}/{attempted} operations failed)")

    untraced = [d for d in done if not d[1]]
    record = {"env": env, "passes": [{"pos": pos, "traced": t, "ops": r.ops, "failed": r.failed,
                                      "wall_s": r.wall, "digest": r.digest} for pos, t, r, _ in done],
              "golden_mismatches": None if golden is None else mismatched,
              "error_rate": failed / attempted}
    if tracer is None:
        # every time is scaled by the speed factor of the pass it belongs to
        speed = calib.factors(kernel_times)
        walls = [d[2].wall * f for d, f in zip(untraced, speed)]
        lat = sorted(x * f for d, f in zip(untraced, speed) for x in d[2].latencies)
        p95 = nearest_rank(lat, 0.95)
        print(f"latency samples {len(lat)}, {sum(x > p95 for x in lat)} beyond p95")
        setup_calib = calibrate.Calibrator("imports")
        setup_calib.time()
        setup, setup_kernel_times = probe_setup(args, setup_calib)
        setup_scaled = [t * f for t, f in zip(setup, setup_calib.factors(setup_kernel_times))]
        metrics = {
            "setup_s": (statistics.median(setup_scaled), "s"),
            "wall_s": (statistics.median(walls), "s"),
            "ops_per_s": (statistics.median(d[2].ops / w for d, w in zip(untraced, walls)), "1/s"),
            "latency_p50_ms": (nearest_rank(lat, 0.50) * 1e3, "ms"),
            "latency_p95_ms": (p95 * 1e3, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MiB"),
        }
        raw_lat = sorted(x for d in untraced for x in d[2].latencies)
        raw = {"setup_s": statistics.median(setup), "wall_s": statistics.median(d[2].wall for d in untraced),
               "latency_p50_ms": nearest_rank(raw_lat, 0.50) * 1e3,
               "latency_p95_ms": nearest_rank(raw_lat, 0.95) * 1e3}
        print(f"speed factor (calibration kernel {calib.name!r}, nominal {calib.nominal} s): "
              f"median {statistics.median(speed):.4g}, range {min(speed):.4g}-{max(speed):.4g}; "
              f"setup ({setup_calib.name!r}) median {statistics.median(setup_kernel_times):.4g} s")
        print("unscaled: " + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()))
        record["setup_probes_s"] = setup
        record["setup_kernel_s"] = setup_kernel_times
        record["kernel_s"] = kernel_times
        record["speed_factors"] = speed
        record["unscaled"] = raw
        record["latency_samples"] = len(lat)
    else:
        traced = [(d[2].wall, tracing.pass_layers(tracer.spans, *d[3])) for d in done if d[1]]
        layers = tracing.per_layer_metrics(tracer.spans, traced, [d[2].wall for d in untraced])
        metrics = {k: (v, tracing.UNITS[k]) for k, v in layers.items()}
        record["self_sums_within_wall"] = tracing.self_sums_within_wall(traced)
        record["trace_boundaries_missing"] = sorted(set(tracer.missing))
        spans_path = OUT / f"spans-{wl.name}-seed{args.seed}.jsonl"
        tracer.write(spans_path, T_START)
        print(f"spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}; "
              f"computed from array sizes: lattice.nodes, lattice.buffer_mb_peak, fd.node_updates")
        if tracer.missing:
            print(f"trace: boundaries not found: {sorted(set(tracer.missing))}")

    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    (OUT / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    for k, (v, u) in metrics.items():
        print(f"{k:28s} {v:.6g} {u}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
