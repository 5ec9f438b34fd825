#!/bin/sh
# loc.sh — non-test Go lines per top-level directory, excluding bench/
# (the closed benchmark harness): the number ROADMAP requires every
# CHANGES.md entry to state a delta of. "." is the root package. A second
# total counts the _test.go lines outside bench/, so a cut that only
# moved code into tests shows.
set -eu
cd "$(dirname "$0")/.."

find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' |
    awk -F/ '{ print (NF > 2 ? $2 : "."), $0 }' |
    while read -r dir file; do
        printf '%s %s\n' "$dir" "$(wc -l <"$file")"
    done |
    awk '{ n[$1] += $2; total += $2 }
         END { for (d in n) printf "%7d %s\n", n[d], d | "sort -k2"; close("sort -k2")
               printf "%7d total non-test Go lines outside bench/\n", total }'
find . -name '*_test.go' ! -path './bench/*' -exec cat {} + |
    awk 'END { printf "%7d total test Go lines outside bench/\n", NR }'
