#!/bin/sh
# identical.sh — the byte-identity gate: regenerate the committed sweep
# artifacts that are pure functions of the seed, in full, and compare
# each with the committed file byte for byte. A change that adds, drops
# or reorders a single simulator event, or takes one more or one fewer
# draw from a random stream, shows up here; so does any violated zero
# column (lost blocks, double serves, oracle flags), since the committed
# files carry zeros. About 75 s: failover 4 s, elastic 12 s, correlated
# 58 s.
set -eu
cd "$(dirname "$0")/.."

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
for exp in failover elastic correlated; do
    seed=1
    if [ "$exp" = elastic ]; then
        seed=23 # pinned: see the Makefile's elastic target
    fi
    go run ./cmd/tigerbench -exp "$exp" -seed "$seed" -out "$out" >/dev/null
    if ! cmp "BENCH_$exp.json" "$out/BENCH_$exp.json"; then
        echo "identical.sh: BENCH_$exp.json no longer regenerates byte-identical" >&2
        exit 1
    fi
done
echo "identical.sh: failover, elastic, correlated regenerate byte-identical"
