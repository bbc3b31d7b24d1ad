#!/usr/bin/env sh
# daemons_smoke.sh — the three binaries together on loopback.
#
# Builds mmd, rmd, dfsc and workloadgen, starts one mmd (with its monitor
# and RM liveness armed) and two rmd (heartbeats and leases on), waits
# until the MM's /stats reports both RMs live, runs `dfsc -n 3` and checks
# that all three accesses were admitted. Then it runs the paper's request
# scheduler: `workloadgen` writes a 64-user pattern over the same catalog
# and `dfsc -replay` sends it to the same two rmd in about 5 wall seconds;
# dfsc must exit 0 with as many requests in its summary as workloadgen
# generated. Last, it sends each daemon SIGTERM and checks that it exits
# 0. Every address is an ephemeral port read back from the daemon's log,
# so runs do not collide.
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
MON="$(await "$WORK/mmd.log" 's|.*mmd: stats at http://\([^/]*\)/stats.*|\1|p')" || fail "mmd monitor never served"

RMDS=""
for id in 1 2; do
    # shellcheck disable=SC2086 # CORPUS is intentionally word-split
    "$WORK/rmd" -id "$id" -mm "$MM" -capacity 100Mbps $CORPUS \
        -heartbeat-interval 200ms -lease-ttl 2s 2>"$WORK/rmd$id.log" &
    RMDS="$RMDS $!"
    PIDS="$PIDS $!"
done

i=0
until curl -sf "http://$MON/stats" | grep -q '"liveRMs": *2'; do
    i=$((i + 1))
    [ $i -lt 100 ] || fail "mmd /stats never reported liveRMs 2"
    sleep 0.1
done

# shellcheck disable=SC2086
"$WORK/dfsc" -mm "$MM" $CORPUS -n 3 -gap 0 >"$WORK/dfsc.out" 2>"$WORK/dfsc.log" || fail "dfsc exited $?"
cat "$WORK/dfsc.out"
grep -q ' 3 admitted' "$WORK/dfsc.out" || fail "dfsc did not admit all 3 accesses"

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

for pid in $RMDS $MMD; do
    kill -TERM "$pid"
    status=0
    wait "$pid" || status=$?
    [ "$status" -eq 0 ] || fail "daemon $pid exited $status on SIGTERM"
done
PIDS=""
echo "daemons-smoke: ok"
