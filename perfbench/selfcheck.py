"""Self-check of the benchmark harness at tiny sizes (about a minute).

    python3 perfbench/selfcheck.py

For every workload it runs the benchmark untraced and traced with an invalid
first operation injected (spot <= 0), and confirms that:
  - the run completes with exit code 0 and ends with the result line;
  - every metric BENCHMARK.json lists for the mode is printed, finite, with
    its unit, and the result carries the environment record;
  - the injected operation is counted as failed while the others succeed;
  - in the traced run, the self times of each pass sum to no more than its
    wall time.
A clean untraced run per workload must report no failures at all.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, trace: int, inject_bad: bool) -> tuple[list[str], dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--tiny"] + (["--inject-bad"] if inject_bad else [])
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def check(workload: str, trace: int, spec: dict) -> None:
    expected = spec["per_layer" if trace else "end_to_end"]
    lines, res = run(workload, trace, inject_bad=True)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}, res.keys()
    assert {m["name"] for m in expected} == set(res["metrics"]), (workload, trace, sorted(res["metrics"]))
    for m in expected:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and math.isfinite(got["value"]), (m, got)
        assert any(line.split()[:1] == [m["name"]] and line.split()[-1] == m["unit"] for line in lines), m
    assert 0 < res["failed"] < res["attempted"] and res["correct"] is False, res
    assert any(line.startswith("error_rate ") for line in lines)
    env = json.loads(next(line for line in lines if line.startswith("env "))[4:])
    for key in ("nproc", "cpu_model", "python", "numpy", "scipy", "git_sha", "seed", "sizes",
                "CBLAB_THREADS_unset"):
        assert key in env, key
    if trace:
        record = json.loads((ROOT / ".bench_out" / f"result-{workload}-seed7-trace1.json").read_text())
        assert record["self_sums_within_wall"] is True
        assert not record["trace_boundaries_missing"], record["trace_boundaries_missing"]
        assert (ROOT / ".bench_out" / f"spans-{workload}-seed7.jsonl").is_file()


def main() -> int:
    if not __debug__:
        raise SystemExit("the checks are asserts; run without -O")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            check(workload, trace, spec)
            print(f"ok  {workload} trace={trace} (injected failure counted)")
        _, res = run(workload, 0, inject_bad=False)
        assert res["failed"] == 0 and res["correct"] is True, res
        print(f"ok  {workload} clean run")
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
