#!/bin/sh
# identical.sh [-w] — the byte-identity gate, and the one list of
# committed sweeps: regenerate the sweep artifacts that are pure
# functions of the seed, in full, and compare each with the committed
# file byte for byte. A change that adds, drops or reorders a single
# simulator event, or takes one more or one fewer draw from a random
# stream, shows up here; so does any violated zero column (lost blocks,
# double serves, oracle flags), since the sweeps gate on them and the
# committed files carry zeros. About 75 s: failover 4 s, elastic 12 s,
# correlated 58 s.
#
# With -w (make regen) the regenerated files replace the committed ones
# and the sweeps' tables are printed: how a change that moves behaviour
# re-baselines.
set -eu
cd "$(dirname "$0")/.."

mode=${1:-}
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
for exp in failover elastic correlated; do
    seed=1
    if [ "$exp" = elastic ]; then
        # Pinned: at most seeds some elastic arm meets the hedge storm of
        # ROADMAP defect (d) — tens of thousands of blocks lost, minutes of
        # wall time and gigabytes of events — and which seeds do moves
        # with same-instant event order (EXPERIMENTS.md: 2 of 30 seeds
        # clean before the per-drive walk, 1 of 30 after). Re-scan when a
        # change re-baselines.
        seed=23
    fi
    if [ "$mode" = -w ]; then
        go run ./cmd/tigerbench -exp "$exp" -seed "$seed" -out .
    else
        go run ./cmd/tigerbench -exp "$exp" -seed "$seed" -out "$out" >/dev/null
        if ! cmp "BENCH_$exp.json" "$out/BENCH_$exp.json"; then
            echo "identical.sh: BENCH_$exp.json no longer regenerates byte-identical" >&2
            exit 1
        fi
    fi
done
[ "$mode" = -w ] || echo "identical.sh: failover, elastic, correlated regenerate byte-identical"
