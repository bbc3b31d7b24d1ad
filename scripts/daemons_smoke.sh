#!/usr/bin/env sh
# daemons_smoke.sh — the three binaries together on loopback.
#
# Builds mmd, rmd, dfsc and workloadgen, starts one mmd (with its monitor
# and RM liveness armed) and two rmd (monitors, heartbeats and 2 s leases
# on), waits until the MM's /metrics reads `dfsqos_mm_live_rms 2`, runs
# `dfsc -n 3` and checks that all three accesses were admitted. Then it
# runs the paper's request scheduler: `workloadgen` writes a 64-user pattern over
# the same catalog and `dfsc -replay` sends it to the same two rmd in
# about 5 wall seconds; dfsc must exit 0 with as many requests in its
# summary as workloadgen generated. Then a three-row pattern written here
# sends one request of each kind over TCP: a read, a write of a file both
# rmd already hold (each refuses it, so it fails as a refusal, not a
# fault) and a metadata probe; dfsc must exit 0 with 3 requests in its
# summary. Binaries from before the write path ran through the read
# path's negotiation fail that write row: they counted an all-refused
# write as a fault and exited 1. Right after each dfsc exits, each
# rmd's /metrics must read `dfsqos_rm_active_streams 0`: dfsc closes what
# it reserved on its way out, and the check runs before the 2 s lease
# could have swept a reservation it left. Then two overlapping `dfsc -n 3`
# and, after `kill -9` of the second, a third must all have every open
# admitted, and no rmd may count a duplicate-request refusal; the killed
# one's reservation must go when its lease expires. Last, it sends each
# daemon SIGTERM and checks that it exits 0. Every address is an ephemeral port
# read back from the daemon's log, so runs do not collide.
#
# Usage:
#   ./scripts/daemons_smoke.sh
set -eu

WORK="$(mktemp -d)"
PIDS=""
cleanup() {
    for pid in $PIDS; do
        kill "$pid" 2>/dev/null || true
    done
    rm -rf "$WORK"
}
trap cleanup EXIT

fail() {
    echo "daemons-smoke: $*" >&2
    for log in "$WORK"/*.log; do
        [ -f "$log" ] && { echo "--- $log" >&2; cat "$log" >&2; }
    done
    exit 1
}

# await FILE SED-EXPR: poll FILE until SED-EXPR prints a value, then echo it.
await() {
    i=0
    while [ $i -lt 100 ]; do
        v="$(sed -n "$2" "$1" 2>/dev/null | head -n 1)"
        if [ -n "$v" ]; then
            echo "$v"
            return 0
        fi
        i=$((i + 1))
        sleep 0.1
    done
    return 1
}

for bin in mmd rmd dfsc workloadgen; do
    go build -o "$WORK/$bin" "./cmd/$bin"
done
CORPUS="-num-rms 2 -degree 2 -files 20"

"$WORK/mmd" -addr 127.0.0.1:0 -monitor 127.0.0.1:0 -heartbeat-interval 200ms 2>"$WORK/mmd.log" &
MMD=$!
PIDS="$MMD"
MM="$(await "$WORK/mmd.log" 's/.*mmd: listening on \([^ ;]*\).*/\1/p')" || fail "mmd never listened"
MON="$(await "$WORK/mmd.log" 's|.*mmd: metrics at http://\([^/]*\)/metrics.*|\1|p')" || fail "mmd monitor never served"

RMDS=""
RMMONS=""
for id in 1 2; do
    # shellcheck disable=SC2086 # CORPUS is intentionally word-split
    "$WORK/rmd" -id "$id" -mm "$MM" -capacity 100Mbps $CORPUS -monitor 127.0.0.1:0 \
        -heartbeat-interval 200ms -lease-ttl 2s 2>"$WORK/rmd$id.log" &
    RMDS="$RMDS $!"
    PIDS="$PIDS $!"
    RMMONS="$RMMONS $(await "$WORK/rmd$id.log" 's|.*rmd: RM[0-9]* metrics at http://\([^/]*\)/metrics.*|\1|p')" ||
        fail "rmd $id monitor never served"
done

# released WHAT: every rmd's /metrics reads no active stream once WHAT has
# exited.
released() {
    for mon in $RMMONS; do
        curl -sf "http://$mon/metrics" | grep -q '^dfsqos_rm_active_streams 0$' ||
            fail "rmd at $mon still holds reservations after $1 exited"
    done
}

i=0
until curl -sf "http://$MON/metrics" | grep -q '^dfsqos_mm_live_rms 2$'; do
    i=$((i + 1))
    [ $i -lt 100 ] || fail "mmd /metrics never read dfsqos_mm_live_rms 2"
    sleep 0.1
done

# shellcheck disable=SC2086
"$WORK/dfsc" -mm "$MM" $CORPUS -n 3 -gap 0 >"$WORK/dfsc.out" 2>"$WORK/dfsc.log" || fail "dfsc exited $?"
cat "$WORK/dfsc.out"
grep -q ' 3 admitted' "$WORK/dfsc.out" || fail "dfsc did not admit all 3 accesses"
released "dfsc -n 3"

# 600 virtual seconds at -scale 120: the replay takes about 5 wall seconds.
"$WORK/workloadgen" -users 64 -files 20 -horizon 600 -o "$WORK/pattern.json" 2>"$WORK/workloadgen.log" ||
    fail "workloadgen exited $?"
WANT="$(sed -n 's/^workloadgen: \([0-9]*\) requests.*/\1/p' "$WORK/workloadgen.log")"
[ -n "$WANT" ] || fail "workloadgen printed no request count"
# shellcheck disable=SC2086
"$WORK/dfsc" -mm "$MM" $CORPUS -replay "$WORK/pattern.json" -scale 120 \
    >"$WORK/replay.out" 2>"$WORK/replay.log" || fail "dfsc -replay exited $?"
cat "$WORK/replay.out"
grep -q "^dfsc: $WANT requests," "$WORK/replay.out" ||
    fail "dfsc -replay did not send the $WANT requests workloadgen generated"
released "dfsc -replay"

# One read, one write of a file both rmd hold (-degree 2), one probe, in
# workload.Load's JSON format (op 0 read, 1 write, 2 metadata).
cat >"$WORK/ops.json" <<'EOF_PATTERN'
{"config": {"NumUsers": 1, "NumDFSC": 1, "MeanArrivalSec": 1, "HorizonSec": 1},
 "requests": [
  {"at": 0, "dfsc": 0, "file": 1},
  {"at": 0.01, "dfsc": 0, "file": 0, "op": 1},
  {"at": 0.02, "dfsc": 0, "file": 2, "op": 2}
 ]}
EOF_PATTERN
# shellcheck disable=SC2086
"$WORK/dfsc" -mm "$MM" $CORPUS -replay "$WORK/ops.json" -scale 120 \
    >"$WORK/ops.out" 2>"$WORK/ops.log" || fail "dfsc -replay of a read, a write and a probe exited $?"
cat "$WORK/ops.out"
grep -q '^dfsc: 3 requests,' "$WORK/ops.out" ||
    fail "dfsc -replay did not send the read, the write and the probe"
released "dfsc -replay of a read, a write and a probe"

# Three dfsc processes share the two rmd: two overlapping `dfsc -n 3`,
# then, after `kill -9` of the second while it holds a reservation, a
# third. Each process draws its own incarnation for its request IDs, so
# no open may collide with a reservation another process holds, a killed
# one's included: every open is admitted and no rmd refuses one as a
# duplicate. Binaries whose request IDs restart in every process fail
# here: the third's first open is refused as a duplicate on both rmd.

# admitted NAME: poll NAME's log until it reports an admitted open.
admitted() {
    await "$WORK/$1.log" 's/.* -> \(RM[0-9]*\)$/\1/p' >/dev/null || fail "dfsc $1 admitted no open"
}
# shellcheck disable=SC2086
"$WORK/dfsc" -mm "$MM" $CORPUS -n 3 -gap 1000 >"$WORK/first.out" 2>"$WORK/first.log" &
FIRST=$!
PIDS="$PIDS $FIRST"
admitted first
# shellcheck disable=SC2086
"$WORK/dfsc" -mm "$MM" $CORPUS -n 3 -gap 1000 >"$WORK/second.out" 2>"$WORK/second.log" &
SECOND=$!
PIDS="$PIDS $SECOND"
admitted second
kill -9 "$SECOND"
wait "$SECOND" 2>/dev/null || true
# shellcheck disable=SC2086
"$WORK/dfsc" -mm "$MM" $CORPUS -n 3 -gap 0 >"$WORK/third.out" 2>"$WORK/third.log" || fail "the third dfsc exited $?"
wait "$FIRST" || fail "the first dfsc exited $?"
for run in first third; do
    cat "$WORK/$run.out"
    grep -q ' 3 admitted' "$WORK/$run.out" || fail "dfsc $run did not admit all 3 accesses"
done
for mon in $RMMONS; do
    if curl -sf "http://$mon/metrics" | grep -q '^dfsqos_rm_refusals_total{reason="duplicate"} [1-9]'; then
        fail "rmd at $mon refused an open as a duplicate request"
    fi
done
# The killed dfsc closed nothing: its reservation goes when its 2 s lease
# expires, and every rmd must then hold none.
holding() {
    for mon in $RMMONS; do
        curl -sf "http://$mon/metrics" | grep -q '^dfsqos_rm_active_streams [1-9]' && return 0
    done
    return 1
}
i=0
while holding; do
    i=$((i + 1))
    [ $i -lt 100 ] || fail "the lease sweeper never reclaimed the killed dfsc's reservations"
    sleep 0.1
done

for pid in $RMDS $MMD; do
    kill -TERM "$pid"
    status=0
    wait "$pid" || status=$?
    [ "$status" -eq 0 ] || fail "daemon $pid exited $status on SIGTERM"
done
PIDS=""
echo "daemons-smoke: ok"
