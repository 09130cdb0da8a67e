#!/usr/bin/env bash
# Byte-compares every experiment's printed tables between two docephbench
# binaries (typically the parent commit's and this tree's):
#
#   scripts/expdiff.sh <old-docephbench> <new-docephbench> [names...]
#
# Each name runs as `-quick -seed 42 -exp <name>` on both. Ignored: the
# "running ..." progress lines and the kernel's-own-cost columns of the
# scale-out tables (everything from the "wall ms" header rightwards). Exits 1
# on any difference.
set -euo pipefail
old=$1 new=$2
shift 2
names=("$@")
if [ ${#names[@]} -eq 0 ]; then
  mapfile -t names < <("$new" -exp list | awk 'NR > 2 { print $1 }')
fi
norm() {
  grep -v '^running ' | awk '
    /wall ms/ { off = index($0, "wall ms") }
    /^$/      { off = 0 }
    off && !/^note:/ && !/^==/ { print substr($0, 1, off - 1); next }
    { print }'
}
rc=0
for n in "${names[@]}"; do
  if diff <("$old" -quick -seed 42 -exp "$n" | norm) <("$new" -quick -seed 42 -exp "$n" | norm) > /dev/null; then
    echo "same  $n"
  else
    echo "DIFF  $n"
    rc=1
  fi
done
exit $rc
