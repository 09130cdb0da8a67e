#!/bin/sh
# Fields of every `type …Config struct` in non-test Go, per package
# directory and in total — the configuration space ROADMAP item 3's
# validation, pairwise matrix and explorer have to cover:
#
#   scripts/knobs.sh [dir]      # default: the repository this script is in
#
# An awk pass over struct blocks: every name on a field line counts (`A, B
# int` is two), comments and blank lines do not. benchmark/ (the
# instrument, not the program) is left out, as in scripts/loc.sh. Run it on
# a clone of the parent commit for the "before" column.
#
# The total may only go down: lower CEILING when a field goes; raising it
# needs a second caller outside _test.go files (Example walkthroughs
# included), named in the commit (DESIGN.md §4.12).
set -eu
CEILING=132
cd "${1:-$(dirname "$0")/..}"
# shellcheck disable=SC2046 # Go file names hold no spaces
awk -v ceiling="$CEILING" '
    FNR == 1 { dir = FILENAME; sub(/\/[^\/]*$/, "", dir); in_cfg = 0 }
    /^type [A-Za-z]*Config struct \{/ { in_cfg = 1; next }
    in_cfg && /^\}/ { in_cfg = 0 }
    in_cfg {
        line = $0
        sub(/\/\/.*/, "", line)
        if (line !~ /^[ \t]*[A-Za-z_]/) next
        # "A, B  type": the names are the comma-separated words before the
        # first one that no comma follows.
        k = split(line, w, " ")
        for (i = 1; i <= k; i++) {
            n[dir]++; total++
            if (w[i] !~ /,$/) break
        }
    }
    END {
        for (d in n) printf "%7d  %s\n", n[d], d | "sort -k2"
        close("sort -k2")
        printf "%7d  total (ceiling %d)\n", total, ceiling
        if (total > ceiling) {
            print "knobs: " total " Config fields, above the ceiling of " ceiling > "/dev/stderr"
            exit 1
        }
    }' $(find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.bench_build/*' | sort)
