"""Mutation gate for the node rule, the rollback kernel, the FD march and the
input checks that the hedge view, the FD profile and the term sheet rely on,
the number rule (`check_real`) among them.

Each mutant is an exact (file, old text, new text) replacement whose old text
occurs exactly once in its file.  For every mutant the working tree is copied
fresh into a temporary directory, the replacement is applied to the copy, and

    python -m pytest -x -q -p no:cacheprovider TESTS

runs in the copy with PYTHONPATH at the copy's `src`.  The mutant is killed
when that run fails; the killing test is the first FAILED or ERROR line of
pytest's summary.  The unmutated copy runs first and must pass, or a failure
would say nothing about the mutants.  The gate exits 1 if the unmutated copy
fails, or if any mutant survives or no longer applies (its old text is missing
or not unique, say after a refactor moved the code); it never skips a mutant.

    python3 scripts/mutants.py        (or: make mutants)

It runs one test process at a time: a few minutes on two cores.  It is not
part of the tier-1 suite.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TESTS = ("tests/test_kernel_identity.py", "tests/test_reference_roller.py",
         "tests/test_lattice.py", "tests/test_fd.py", "tests/test_hedge.py",
         "tests/test_termsheet.py", "tests/test_cli.py")
LATTICE, FD = "src/cblab/lattice.py", "src/cblab/fd.py"
HEDGE, TERMSHEET = "src/cblab/hedge.py", "src/cblab/termsheet.py"
TIMEOUT_S = 600  # a mutant that hangs the tests is killed; the unmutated run takes about 45 s


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the repository root
    old: str
    new: str


MUTANTS = (
    # the node rule's exact ties: continuation over the call, and over the put
    Mutant("tie_call_decides", LATTICE,
           "np.greater(V, call, out=ncont)", "np.greater_equal(V, call, out=ncont)"),
    Mutant("tie_put_decides", LATTICE,
           "np.not_equal(vs, V, out=convb)", "np.greater_equal(vs, V, out=convb)"),
    # decide's "converted" mask set before the "decided" test borrows it as scratch
    Mutant("decide_convb_set_before_scratch", LATTICE,
           "    np.not_equal(vs, V, out=convb)\n"
           "    np.logical_or(ncont, convb, out=ncont)\n"
           "    np.equal(vs, conv, out=convb)\n",
           "    np.equal(vs, conv, out=convb)\n"
           "    np.not_equal(vs, V, out=convb)\n"
           "    np.logical_or(ncont, convb, out=ncont)\n"),
    # the bind classification's vs == call written into the cash mask before it is counted
    Mutant("binds_cash_reused_before_count", LATTICE,
           "                    n_cash = np.count_nonzero(cash, axis=0)\n"
           "                    np.greater(Vc, call_level, out=callb)\n"
           "                    np.logical_and(callb, cash, out=callb)\n"
           "                    np.equal(vs, call_level, out=cash)\n",
           "                    np.equal(vs, call_level, out=cash)\n"
           "                    n_cash = np.count_nonzero(cash, axis=0)\n"
           "                    np.greater(Vc, call_level, out=callb)\n"
           "                    np.logical_and(callb, cash, out=callb)\n"),
    # the level-to-node mapping that every zone bound of the layer plan comes from
    Mutant("nodes_ignore_conversion_off", LATTICE,
           "return np.where(self.conv_active[:n], ", "return np.where(True, "),
    # the conversion frontier c_i
    Mutant("frontier_one_node_eager", LATTICE,
           "np.clip((first - self.N + i + 1) // 2, 0,",
           "np.clip((first - self.N + i + 1) // 2 - 1, 0,"),
    Mutant("frontier_one_node_lazy", LATTICE,
           "np.clip((first - self.N + i + 1) // 2, 0,",
           "np.clip((first - self.N + i + 1) // 2 + 1, 0,"),
    Mutant("frontier_call_side_flipped", LATTICE,
           'self.nodes(prod, self.call_levels[:N], "right")',
           'self.nodes(prod, self.call_levels[:N], "left")'),
    Mutant("frontier_put_side_flipped", LATTICE,
           'self.nodes(prod, self.put_levels[:N], "left")',
           'self.nodes(prod, self.put_levels[:N], "right")'),
    # the nodes a layer holds above its band
    Mutant("top_without_plus_one", LATTICE,
           "np.append(0, c[:-1] + 1)", "np.append(0, c[:-1])"),
    Mutant("front_layers_not_written_in_full", LATTICE,
           "top = np.where(i <= self.front_layers,", "top = np.where(i < self.front_layers,"),
    Mutant("converted_B_not_zeroed", LATTICE,
           "                B[c:top] = ZERO\n", "                pass\n"),
    Mutant("skipped_nodes_not_counted", LATTICE,
           "binds[0] += N * (N + 1) // 2 - sum(plan[2])",
           "binds[0] += 0"),
    # the sorted blocks and their height H
    Mutant("wrong_inverse_permutation", LATTICE,
           "back[job.order] = np.arange(m)", "back[:] = job.order"),
    Mutant("height_one_node_short", LATTICE,
           "int(self.cs[front_layers:].max(initial=front_layers) + 1)",
           "int(self.cs[front_layers:].max(initial=front_layers))"),
    # the expiry conversions at or above H, which bind counts take from their products
    Mutant("expiry_above_h_not_counted", LATTICE,
           "                binds[0] += np.count_nonzero(CB[: N + 1 - j], axis=0)\n",
           "                pass\n"),
    Mutant("expiry_above_h_tie_converts", LATTICE,
           "np.greater(conv, self.redemption, out=CB[: N + 1 - j])",
           "np.greater_equal(conv, self.redemption, out=CB[: N + 1 - j])"),
    Mutant("expiry_above_h_conversion_off_ignored", LATTICE,
           "range(H, N + 1 if self.active[N] else H, H)", "range(H, N + 1, H)"),
    # the conversion window and the expiry layer
    Mutant("conversion_outside_its_window", LATTICE,
           "if active[i] else ZERO", "if True else ZERO"),
    Mutant("expiry_conversion_outside_its_window", LATTICE,
           "if self.active[N] else ZERO", "if True else ZERO"),
    Mutant("expiry_coupon_before_decision", LATTICE,
           "    decide(E, B, V, vs, conv, np.inf, 0.0, ncont, convb)\n"
           "    if coupon != 0.0:\n"
           "        B += coupon\n",
           "    if coupon != 0.0:\n"
           "        B += coupon\n"
           "    decide(E, B, V, vs, conv, np.inf, 0.0, ncont, convb)\n"),
    # the per-layer levels that decide reads as 0-d views: the tree's call one layer off,
    # the FD's put passed as its call
    Mutant("call_view_one_layer_off", LATTICE,
           "call_level = self.call_levels[i, ...]", "call_level = self.call_levels[i + 1, ...]"),
    Mutant("fd_put_view_as_call", FD,
           "call_levels[i, ...], put_levels[i, ...]", "put_levels[i, ...], put_levels[i, ...]"),
    # the two certificates that let a layer skip decide
    Mutant("continues_strict_call", LATTICE,
           "V.max() <= call)", "V.max() < call)"),
    # the run certificate's put: checked where it is above the guess level, on
    # layers with and without a call in force
    Mutant("run_put_never_checked", LATTICE,
           "np.where(self.put_levels[:N] > level,", "np.where(False,"),
    Mutant("run_put_checked_at_the_level", LATTICE,
           "np.where(self.put_levels[:N] > level,", "np.where(self.put_levels[:N] >= level,"),
    Mutant("run_without_call_ignores_put", LATTICE,
           "if call == math.inf and put == 0.0:", "if call == math.inf:"),
    # the guessed run: its held floor, its margin and search, and the least floor
    # that the margin covers
    Mutant("run_on_a_tiny_floor", LATTICE,
           "np.where(self.held_floor >= 2.0**-800,", "np.where(self.held_floor >= 0.0,"),
    Mutant("held_floor_without_put", LATTICE,
           "floor = max(puts[i], min(held[i], calls[i]))", "floor = min(held[i], calls[i])"),
    Mutant("guess_without_margin", LATTICE,
           "self.held_floor * (1.0 - 1e-9)", "self.held_floor"),
    Mutant("guess_side_flipped", LATTICE,
           'self.nodes(prod, level, "left")', 'self.nodes(prod, level, "right")'),
    Mutant("keeps_without_put", LATTICE,
           "            held &= V >= put\n", "            pass\n"),
    # the settled floor: the rows it writes, its level and where it may reach
    Mutant("settled_rows_written_one_short", LATTICE,
           "B[k:k_up] = self.settled[i + 1]", "B[k + 1 : k_up] = self.settled[i + 1]"),
    Mutant("settled_without_coupons", LATTICE,
           "* disc + inject[i]", "* disc"),
    Mutant("settled_expiry_without_coupon", LATTICE,
           "b[N] = self.redemption + inject[N]", "b[N] = self.redemption"),
    Mutant("floor_expiry_at_settled_level", LATTICE,
           'self.nodes(prod, np.append(b[:N], self.redemption), "right")',
           'self.nodes(prod, b, "right")'),
    Mutant("floor_ignores_put", LATTICE,
           "K[:N][(b[:N] > self.call_levels[:N]) | (b[:N] < self.put_levels[:N])] = 0",
           "K[:N][b[:N] > self.call_levels[:N]] = 0"),
    Mutant("floor_ignores_call", LATTICE,
           "K[:N][(b[:N] > self.call_levels[:N]) | (b[:N] < self.put_levels[:N])] = 0",
           "K[:N][b[:N] < self.put_levels[:N]] = 0"),
    Mutant("floor_cone_not_widened", LATTICE,
           "k = np.minimum.accumulate((K - self.layers)[::-1])[::-1][:N] + i",
           "k = np.minimum.accumulate(K[::-1])[::-1][:N]"),
    Mutant("floor_on_front_layers", LATTICE,
           "        k[: self.front_layers + 1] = 0\n", ""),
    # the layer loop carries k_{i+1} over from the layer above
    Mutant("k_up_not_carried", LATTICE, "            k_up = k\n", ""),
    # the FD march: its boundary rows, and the V row that decide borrows
    Mutant("fd_floor_row_without_put", FD,
           "Z[0] = Z[n_s] = floors[i]", "Z[0] = Z[n_s] = debt_pvs[i]"),
    Mutant("fd_top_row_keeps_debt", FD,
           "                Z[-1] = 0.0\n", "                Z[-1] = debt_pvs[i]\n"),
    Mutant("fd_top_row_converts_outside_window", FD,
           "top_converts = active & (conv_top > debt_pvs)",
           "top_converts = conv_top > debt_pvs"),
    Mutant("fd_borrowed_row_not_restored", FD,
           "            np.add(E_in, B_in, out=V_in)\n", "            pass\n"),
    # the chunk edges: a chunk's times, its layers, the last layer's time, and the
    # sparse coupon map, which is keyed by layer and bucketed by bisection
    Mutant("fd_chunk_times_one_layer_late", FD,
           "taus = np.arange(lo, hi) * times.step", "taus = np.arange(lo + 1, hi + 1) * times.step"),
    Mutant("fd_chunk_one_layer_short", FD,
           "hi = min(lo + _FINITE_CHECK_EVERY, n_t - 1)", "hi = min(lo + _FINITE_CHECK_EVERY - 1, n_t - 1)"),
    Mutant("fd_last_time_not_span", FD,
           "return self.span if j == self.n_t - 1 else j * self.step", "return j * self.step"),
    Mutant("fd_coupon_at_chunk_row", FD,
           "cash = inject.get(m, 0.0)", "cash = inject.get(i, 0.0)"),
    Mutant("coupon_bucketed_one_layer_late", TERMSHEET,
           "j = bisect.bisect_left(taus, tau_c - _WINDOW_EPS)",
           "j = bisect.bisect_left(taus, tau_c - _WINDOW_EPS) + 1"),
    # refusals with one owner: the engine's checks behind a zero hedge shock, the
    # spot dtype rule that the engine and fd_profile share, fd_profile's stored-layer
    # bound, and the integer coupon frequency
    Mutant("zero_shock_skips_engine_checks", HEDGE,
           "        _rollback_job(terms, mkt, t, spots, steps)\n", ""),
    Mutant("bool_among_numbers_not_checked", LATTICE,
           "    if not isinstance(values, np.ndarray) and any(", "    if False and any("),
    Mutant("fd_profile_converts_any_spot", FD,
           "    spots = check_spot_numbers(spots)\n", "    spots = np.asarray(spots, dtype=float)\n"),
    Mutant("fd_profile_reads_any_layer", FD,
           "if gaps[layer] > 0.5 * solution.grid.dt(solution.layer_taus[-1]) * (1.0 + 1e-6):",
           "if False:"),
    Mutant("coupon_frequency_not_integer_checked", TERMSHEET,
           "        object.__setattr__(self, \"coupon_frequency\",\n"
           "                           check_integer(self.coupon_frequency, \"coupon_frequency\"))\n",
           ""),
    # the number rule: a bool is not a number, a strict bound is strict, and the
    # term-sheet reader leaves the converting to it
    Mutant("check_real_accepts_bool", TERMSHEET,
           "isinstance(value, numbers.Real) and not isinstance(value, bool)",
           "isinstance(value, numbers.Real)"),
    Mutant("strict_bound_not_strict", TERMSHEET,
           "(x <= lower if strict else x < lower)", "(x < lower if strict else x < lower)"),
    Mutant("terms_from_dict_converts_nominal", TERMSHEET,
           'nominal=data["nominal"],', 'nominal=float(data["nominal"]),'),
)


def fresh_copy(dst: Path) -> Path:
    """The working tree, as it is now, copied to `dst` without git or caches."""
    shutil.copytree(ROOT, dst, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".bench_out", "out"))
    return dst


def apply(tree: Path, mutant: Mutant) -> bool:
    """Apply `mutant` in `tree`; False if its old text is missing or not unique."""
    path = tree / mutant.path
    text = path.read_text()
    if text.count(mutant.old) != 1:
        return False
    path.write_text(text.replace(mutant.old, mutant.new))
    return True


def run_tests(tree: Path) -> tuple[bool, str]:
    """(passed, the first failing test or pytest's last line) of the gate's
    test run in `tree`; a run that outlasts TIMEOUT_S seconds has failed."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        proc = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                               *TESTS], cwd=tree, env=env, capture_output=True, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False, f"a test run over {TIMEOUT_S} s"
    lines = proc.stdout.splitlines() or proc.stderr.splitlines() or [""]
    failed = next((x.split(" - ")[0] for x in lines if x.startswith(("FAILED ", "ERROR "))),
                  lines[-1])
    return proc.returncode == 0, failed


def main() -> int:
    bad = []
    with tempfile.TemporaryDirectory() as tmp:
        t = time.perf_counter()
        passed, failed = run_tests(fresh_copy(Path(tmp) / "unmutated"))
        print(f"unmutated tree: {'passed' if passed else 'FAILED ' + failed} "
              f"({time.perf_counter() - t:.1f} s)", flush=True)
        if not passed:
            return 1
        for k, mutant in enumerate(MUTANTS):
            tree = fresh_copy(Path(tmp) / f"mutant{k}")
            t = time.perf_counter()
            if not apply(tree, mutant):
                outcome = f"NO LONGER APPLIES: its old text is not once in {mutant.path}"
                bad.append(mutant.name)
            else:
                passed, failed = run_tests(tree)
                outcome = f"SURVIVED ({time.perf_counter() - t:.1f} s)" if passed else \
                    f"killed by {failed} ({time.perf_counter() - t:.1f} s)"
                if passed:
                    bad.append(mutant.name)
            print(f"{mutant.name}: {outcome}", flush=True)
            shutil.rmtree(tree)
    print(f"{len(MUTANTS) - len(bad)} of {len(MUTANTS)} mutants killed"
          + (f"; not killed: {', '.join(bad)}" if bad else ""))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
