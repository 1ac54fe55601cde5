#!/bin/sh
# Regenerate every experiment dataset behind the demo figures into out/figures/.
# The VaR run reprices 10,000 scenarios and takes a minute or two.
set -e
OUT="${1:-out/figures}"

# run from the source tree; `make figures` puts src/ on PYTHONPATH
cblab() { python3 -m cblab.cli "$@"; }

cblab price        --spot 100 --date 2002-01-02 --steps 500 --out "$OUT"
cblab surface      --t-points 61 --s-min 50 --s-max 200 --s-step 1 --steps 500 --out "$OUT"
cblab greeks       --date 2004-01-02 --s-min 50 --s-max 200 --s-step 0.5 --steps 500 --out "$OUT"
cblab hedge-stress --date 2002-01-02 --shock 0.5 --contract-size 1000000 \
                   --s-min 50 --s-max 200 --s-step 0.5 --steps 500 --out "$OUT"
cblab var          --date 2004-01-02 --spot 100 --holding-days 1 --confidence 0.99 \
                   --scenarios 10000 --seed 0 --steps 500 --out "$OUT"
cblab compare      --date 2004-01-02 --s-min 105 --s-max 112 --s-step 0.1 \
                   --steps 500 --out "$OUT"

echo "datasets written to $OUT"
