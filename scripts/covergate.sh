#!/bin/sh
# Coverage gate: fails if any gated package's statement coverage drops
# below its recorded floor. Floors were measured when the batching test
# layer landed (core 86.4%, doca 74.8%, osd 74.7%) and re-measured when the
# multi-queue transport landed (core 85.9%, doca 82.3%, osd 75.4%,
# messenger 79.8%, sim 84.5%, perf 91.3%) and again when the self-healing
# layer landed (osd 77.7%, faultinject 63.2%), and again when the
# partitioned parallel kernel landed (sim 88.0%, perf 91.5%), and again
# when the read path opened (rbd 89.3%, striper 85.7%, radosbench 78.2%),
# and again when the 128-OSD scale-out landed (cluster 89.5%, crush 97.0%),
# and again when the streaming data plane landed (cephmsg 85.1%, messenger
# 82.0%, osd 76.2%), and again when the OSD's write handlers and the proxy's
# segment cutters were collapsed to one each (osd 81.7%, core 86.5%: delete
# and omap ops now ride the code the write tests cover), and again when the
# simulator-throughput sweep moved onto the experiments' runner (perf 94.6%,
# from 87.5%: the denominator shrank from 954 to 430 lines — what is left is
# the record, its guards and the imbalance figures — and the floor rose),
# and again when 45 one-valued Config fields became constants and sim.Pipe
# went (sim 93.0% from 92.8%: Pipe's 70 fully covered lines left both sides
# of the ratio; messenger 81.9% from 82.8%, core 86.2% from 86.5%, cluster
# 88.9% from 89.6%: the deleted `if c.X == 0` stanzas were all covered, and
# cluster.New's rejections are exercised from the root package's
# TestNewRejectsUnbuildableConfig, which a per-package figure does not see
# — no floor moved), and gateway was added at 86.9% when its walkthrough
# became gateway.ExampleNew (the figure is gateway_test.go's alone), and
# bluestore (85.1%, 86.2% once its reference test read ranges too) and
# rpcchan (97.3%) were added when the read crossing became one record per
# side and readRange gained its one-extent path, and again when the
# replicated write became one record on each OSD (osd 84.2% from 81.8%: the
# watchdog's resend and abort and the map-change drop got tests of their own)
# and rados was added at 63.9%, its client call holding its event by value,
# and again when the wall-clock sweep and internal/perf were deleted (perf
# left the gate; cluster 89.9% from 88.9%: the scale-out imbalance figures
# and their tests moved in beside ScaleOutResult, floor 84 -> 85);
# each is set ~5 points below to absorb small refactors. Raise floors when
# coverage improves, never lower them to make a PR pass.
set -eu

fail=0
gate() {
    pkg=$1
    floor=$2
    out=$(go test -cover "$pkg" 2>&1) || { echo "$out"; exit 1; }
    pct=$(echo "$out" | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p' | head -n1)
    if [ -z "$pct" ]; then
        echo "covergate: no coverage reported for $pkg"
        fail=1
        return
    fi
    below=$(awk -v p="$pct" -v f="$floor" 'BEGIN { print (p < f) ? 1 : 0 }')
    if [ "$below" = 1 ]; then
        echo "covergate: $pkg coverage $pct% is below the $floor% floor"
        fail=1
    else
        echo "covergate: $pkg $pct% (floor $floor%)"
    fi
}

gate ./internal/core 81.5
gate ./internal/doca 77
gate ./internal/cephmsg 80
gate ./internal/osd 79.2
gate ./internal/faultinject 58
gate ./internal/messenger 75
gate ./internal/sim 83
gate ./internal/rbd 84
gate ./internal/striper 80
gate ./internal/rados 58.9
gate ./internal/radosbench 73
gate ./internal/cluster 85
gate ./internal/crush 92
gate ./internal/gateway 80
gate ./internal/bluestore 80
gate ./internal/rpcchan 92

exit $fail
