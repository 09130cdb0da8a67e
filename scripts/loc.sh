#!/bin/sh
# Non-test Go lines per package directory and in total — the "net smaller"
# figure ROADMAP's north star counts as a success metric:
#
#   scripts/loc.sh [dir]        # default: the repository this script is in
#
# Counts physical lines (wc -l) of every *.go file that is not a *_test.go.
# benchmark/ (a module of its own, the instrument rather than the program)
# and its build directory are left out. Run it on a clone of the parent
# commit for the "before" column.
set -eu
cd "${1:-$(dirname "$0")/..}"
find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.bench_build/*' |
    sort | while read -r f; do
        printf '%s %s\n' "$(dirname "$f")" "$(wc -l < "$f")"
    done | awk '
        { n[$1] += $2; total += $2 }
        END {
            for (d in n) printf "%7d  %s\n", n[d], d | "sort -k2"
            close("sort -k2")
            printf "%7d  total\n", total
        }'
