#!/bin/sh
# Check that the working tree writes the same bytes as revision REV: every
# `make figures` dataset, the stdout of make_figures.sh, the stdout of every
# demo script, the 7 ACCEPTANCE lines that each tree's own
# `pytest tests/test_acceptance.py -s` prints, and the artifacts and stdout of
# a few small CLI runs that the figures leave out (no --date, the report
# format, a negative shock, narrow greeks and compare grids, and two coarse
# grids whose expiry layer takes bucketed coupons: three on the 3-step tree,
# one on the 9-layer FD march).  Each tree runs from its own fresh working
# directory, so the `wrote out/...` lines compare equal.  Exits 1 on any difference.
#
#   sh scripts/same_outputs.sh REV        (or: make same-outputs REV=...)
#
# Both trees regenerate the full figure set and run their acceptance tests:
# a few minutes on two cores.
set -eu
rev="${1:?usage: scripts/same_outputs.sh REV}"
root="$(cd "$(dirname "$0")/.." && pwd)"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
trap 'exit 1' INT TERM

mkdir "$tmp/rev-tree"
git -C "$root" archive "$rev" | tar -x -C "$tmp/rev-tree"

# the small CLI runs, one per line; run k writes into out/cli/k
cli_runs() {
    cat <<'RUNS'
price --steps 200
price --spot 110 --date 2004-05-17 --steps 200 --format report
hedge-stress --s-min 90 --s-max 120 --s-step 5 --steps 200
hedge-stress --shock -0.5 --s-min 90 --s-max 120 --s-step 5 --steps 200
var --scenarios 200 --steps 100
greeks --date 2005-03-15 --s-min 80 --s-max 130 --s-step 5 --steps 200
compare --date 2005-03-15 --s-min 95 --s-max 115 --s-step 1 --steps 200 --fd-nodes 201
price --steps 3
compare --date 2002-01-02 --s-min 95 --s-max 105 --s-step 5 --steps 3 --fd-nodes 5
RUNS
}

# run_tree TREE NAME: figures and CLI runs into $tmp/NAME/out, stdout logs next to them
run_tree() {
    work="$tmp/$2"
    mkdir "$work"
    echo "== $2: make_figures.sh"
    (cd "$work" && PYTHONPATH="$1/src" sh "$1/scripts/make_figures.sh" out) > "$work/figures.log"
    echo "== $2: small CLI runs"
    k=0
    cli_runs | while read -r run; do
        k=$((k + 1))
        echo "== cblab $run" >> "$work/cli.log"
        # $run is split into words on purpose
        (cd "$work" && PYTHONPATH="$1/src" python3 -m cblab.cli $run --out "out/cli/$k") \
            >> "$work/cli.log"
    done
    for demo in "$1"/demos/*.py; do
        name="$(basename "$demo")"
        echo "== $2: $name"
        echo "== $name" >> "$work/demos.log"
        (cd "$work" && PYTHONPATH="$1/src" python3 "$demo") >> "$work/demos.log"
    done
    echo "== $2: acceptance tests"
    # from the tree's root, so pytest takes that tree's tests and src; a failing
    # criterion still prints its line, which the diff below compares (-q puts the
    # previous test's dot before each line, so the line is cut from its tag)
    (cd "$1" && PYTHONPATH="$1/src" python3 -m pytest -q -s -p no:cacheprovider \
        tests/test_acceptance.py || true) | grep -o 'ACCEPTANCE .*' > "$work/acceptance.log" || true
}

run_tree "$tmp/rev-tree" rev
run_tree "$root" work

status=0
diff -r "$tmp/rev/out" "$tmp/work/out" || status=1
diff "$tmp/rev/figures.log" "$tmp/work/figures.log" || status=1
diff "$tmp/rev/cli.log" "$tmp/work/cli.log" || status=1
diff "$tmp/rev/demos.log" "$tmp/work/demos.log" || status=1
diff "$tmp/rev/acceptance.log" "$tmp/work/acceptance.log" || status=1
[ "$(wc -l < "$tmp/work/acceptance.log")" -eq 7 ] || { echo "expected 7 ACCEPTANCE lines" >&2; status=1; }
if [ "$status" -eq 0 ]; then
    echo "same outputs as $rev: $(find "$tmp/work/out" -type f | wc -l) files, figure, CLI and demo stdout, 7 ACCEPTANCE lines"
else
    echo "outputs differ from $rev" >&2
fi
exit "$status"
