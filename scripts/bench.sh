#!/usr/bin/env sh
# bench.sh — reproducible data-plane benchmark run.
#
# Runs the wire codec benchmarks, the live-TCP streaming benchmark, the
# transport call benchmark, the refused-replication benchmarks (MM and RM)
# and the DES event-loop benchmarks,
# parses the `go test -bench` output into BENCH_6.json, and enforces the
# data-plane allocation ceiling: BenchmarkEncodeChunk and
# BenchmarkDecodeChunk must stay at (by default) 0 allocs/op under every
# slot combination of the frame header (plain, trace, tenant,
# tenant-trace). The zero-allocation property is the point of the chunk
# path, and a regression here is a silent per-chunk cost on every data
# stream; gating the slotted variants proves neither request tracing nor
# tenancy bought its feature with allocations.
#
# It also runs the striped-read scaling benchmark (K lanes over K
# throttled replicas) and enforces the stripe-scaling floor: K4 must
# deliver at least STRIPE_FLOOR times the K1 (single-RM) throughput,
# proving the K-wide scheduler actually aggregates per-replica bandwidth
# instead of serializing behind one throttle. The replicas are throttled
# on purpose, so this ratio is bound by the throttle and does not move
# with the speed of the checksum or of the segment path.
#
# The same benchmark's K4 arm carries the striped read's allocation gate:
# one whole warm read (16 segments over 4 lanes, the ramp's opening ranges
# among them) may cost at most 120 allocs/op. It measures about 93: some
# 75 for the read's own negotiation
# — a lookup, then a CFP, an Open and a Close per lane, 13 calls at the two
# payload boxings each, plus the bid tables, the spans and the four lane
# goroutines — and one per range for the FileEnd the client decodes. (It
# measured about 230 while every call also built a context, a timer and a
# cancellation callback.) The segment path itself (slot ring, pooled
# segment buffers, slice writer, pooled server chunk buffer and FileEnd)
# adds nothing per segment; with a bytes.Buffer per segment and maps for
# the board the same read cost 493 allocs and 2.7 MB. The ceiling leaves
# 27 for pool misses after a GC, so a buffer, board entry or writer
# allocated per segment again (16 or more per read each) trips it.
#
# The control plane has its own three gates. BenchmarkEncodeCtl and
# BenchmarkDecodeCtl (the per-open CFP, Bid and OpenRequest, and the
# replication path's BeginReplication and ShardMirror) may cost at most 2
# allocs/op: the codec itself allocates nothing, and what is left is the
# payload struct's boxing into an interface and, for the mirror, its one
# string — so a layout that drifts onto reflection or a per-field
# callback trips it. BenchmarkCall (internal/transport: one Client.Call
# round trip on a warm pool over loopback) may cost at most 4: a call arms one
# absolute deadline and builds no context, timer or callback, so what is
# left is its two payloads — it measured 12 while it built them, and an
# open makes holders + 3 calls. BenchmarkLiveNegotiate (a whole
# AccessHeld + release over loopback at 3, 8 and 16 holders, metadata lease
# cold and hot) may cost at most 8 x holders + 40 allocs/op. It measures
# 32 / 52 / 84 cold: four or so per holder (CFP and Bid boxed on each side
# of the socket) and some twenty for the tables, spans and release. The
# parent of this ceiling measured 99 / 179 / 307, so a per-call context,
# or a goroutine and closure per CFP, each trips it.
#
# The refused-replication path has three more: on an in-process MM with 256
# RMs and one file at cap 8, a refused BeginReplication may cost 0
# allocs/op (the refusal is a preallocated reason, not a formatted
# sentence) and RMsWithout 1 (its result; the resource list is kept in
# order, so nothing is collected and sorted per call). The source-side
# agent makes both calls on every access of an RM under B_TH, and the whole
# attempt around them — BenchmarkReplicationAttemptAtCap (internal/rm: one
# CFP at a saturated RM among 256 whose hot file is at its cap) — may cost 1
# as well, that same result: the agent handles ids in buffers it keeps, so
# a decision that changes nothing copies no registration record.
#
# The discrete-event simulation has three: on internal/simtime, firing one
# event and scheduling the next may cost 1 alloc/op at 4, 20k and 200k
# pending events (the Event handed back for Cancel, and nothing that grows
# with the queue), and an arrival of a fed stream 0; on internal/dfsc, one
# serial negotiation over three in-process RMs (lookup, three CFPs, rank,
# open, release — a simulated request without its scheduler) may cost 11.
# It measures 9 (10 while selection.Rank kept its scratch on the heap);
# with a provider map, a bid map and four bookkeeping slices per fan-out
# it measured 17, so one of them coming back trips it.
#
# Finally it runs the work-conserving QoS benchmark (one stream against an
# idle sibling's headroom, flat tree vs borrowing tree) into a second
# report and enforces two gates: the conserving mode must beat the flat
# mode's throughput by WORKCONSERVE_FLOOR (the whole point of token
# borrowing is utilization strictly above the flat baseline), and the
# benchmark's contention phase must report zero floor violations in both
# modes (borrowed headroom must never dent a busy neighbor's guarantee).
#
# Usage:
#   ./scripts/bench.sh [out.json] [workconserve-out.json]
# Env:
#   BENCH_TIME        go test -benchtime value (default 2s; CI may lower it)
#   ALLOC_CEILING     max allocs/op for the gated chunk and read-request benchmarks (default 0)
#   STRIPE_FLOOR      min K4/K1 throughput ratio for the striped read (default 2.5)
#   WORKCONSERVE_FLOOR min conserving/flat throughput ratio (default 1.5)
set -eu

OUT="${1:-BENCH_6.json}"
OUT9="${2:-BENCH_9.json}"
BENCH_TIME="${BENCH_TIME:-2s}"
ALLOC_CEILING="${ALLOC_CEILING:-0}"
STRIPE_FLOOR="${STRIPE_FLOOR:-2.5}"
WORKCONSERVE_FLOOR="${WORKCONSERVE_FLOOR:-1.5}"
RAW="$(mktemp)"
RAW9="$(mktemp)"
trap 'rm -f "$RAW" "$RAW9"' EXIT

echo "== wire codec benchmarks (benchtime=$BENCH_TIME)"
go test ./internal/wire/ -run '^$' \
	-bench 'BenchmarkEncodeChunk|BenchmarkDecodeChunk|BenchmarkRoundTrip|BenchmarkStreamThroughput|BenchmarkChecksum|BenchmarkEncodeRangedRead|BenchmarkDecodeRangedRead|BenchmarkEncodeCtl|BenchmarkDecodeCtl' \
	-benchmem -benchtime "$BENCH_TIME" | tee -a "$RAW"

echo "== live TCP streaming benchmarks (benchtime=$BENCH_TIME)"
go test ./internal/live/ -run '^$' \
	-bench 'BenchmarkLiveStreamThroughput|BenchmarkLiveStripedReadThroughput|BenchmarkLiveNegotiate' \
	-benchmem -benchtime "$BENCH_TIME" | tee -a "$RAW"

echo "== transport call benchmark (benchtime=$BENCH_TIME)"
go test ./internal/transport/ -run '^$' \
	-bench 'BenchmarkCall$' \
	-benchmem -benchtime "$BENCH_TIME" | tee -a "$RAW"

echo "== refused-replication benchmarks, MM and RM (benchtime=$BENCH_TIME)"
go test ./internal/mm/ -run '^$' \
	-bench 'BenchmarkBeginReplicationRefused|BenchmarkRMsWithout' \
	-benchmem -benchtime "$BENCH_TIME" | tee -a "$RAW"
go test ./internal/rm/ -run '^$' \
	-bench 'BenchmarkReplicationAttemptAtCap' \
	-benchmem -benchtime "$BENCH_TIME" | tee -a "$RAW"

echo "== DES event-loop benchmarks (benchtime=$BENCH_TIME)"
go test ./internal/simtime/ -run '^$' \
	-bench 'BenchmarkSchedulerPending|BenchmarkFeed' \
	-benchmem -benchtime "$BENCH_TIME" | tee -a "$RAW"
go test ./internal/dfsc/ -run '^$' \
	-bench 'BenchmarkNegotiateSerial|BenchmarkCollectBidsConcurrent' \
	-benchmem -benchtime "$BENCH_TIME" | tee -a "$RAW"

# Parse "BenchmarkName/sub-N  iters  ns/op  [MB/s]  [B/op]  [allocs/op]"
# lines into a JSON array. MB/s is absent on benchmarks without SetBytes.
awk -v out="$OUT" '
/^Benchmark/ {
	name = $1
	sub(/-[0-9]+$/, "", name)  # strip the GOMAXPROCS suffix
	ns = ""; mbs = ""; bop = ""; aop = ""
	for (i = 2; i < NF; i++) {
		if ($(i+1) == "ns/op")     ns  = $i
		if ($(i+1) == "MB/s")      mbs = $i
		if ($(i+1) == "B/op")      bop = $i
		if ($(i+1) == "allocs/op") aop = $i
	}
	line = sprintf("  {\"name\": \"%s\", \"ns_per_op\": %s", name, ns)
	if (mbs != "") line = line sprintf(", \"mb_per_s\": %s", mbs)
	if (bop != "") line = line sprintf(", \"b_per_op\": %s", bop)
	if (aop != "") line = line sprintf(", \"allocs_per_op\": %s", aop)
	line = line "}"
	lines[n++] = line
}
END {
	print "[" > out
	for (i = 0; i < n; i++) print lines[i] (i < n-1 ? "," : "") >> out
	print "]" >> out
}
' "$RAW"

echo "== wrote $OUT"
cat "$OUT"

# alloc_gate NAME CEILING fails the run when benchmark NAME did not run or
# reports more than CEILING allocs/op.
fail=0
alloc_gate() {
	# The -N GOMAXPROCS suffix is absent when GOMAXPROCS=1, so it is optional.
	aop="$(awk -v b="$1" '$1 ~ "^"b"(-[0-9]+)?$" && $(NF) == "allocs/op" { print $(NF-1) }' "$RAW")"
	if [ -z "$aop" ]; then
		echo "GATE: $1 did not run" >&2
		fail=1
	elif [ "$aop" -gt "$2" ]; then
		echo "GATE: $1 at $aop allocs/op exceeds ceiling $2" >&2
		fail=1
	else
		echo "GATE: $1 at $aop allocs/op (ceiling $2) ok"
	fi
}

# Alloc regression gate on the chunk codec under every slot combination,
# and on the read-request codec.
for slots in plain trace tenant tenant-trace; do
	alloc_gate "BenchmarkEncodeChunk/$slots" "$ALLOC_CEILING"
	alloc_gate "BenchmarkDecodeChunk/$slots" "$ALLOC_CEILING"
done
alloc_gate BenchmarkEncodeRangedRead "$ALLOC_CEILING"
alloc_gate BenchmarkDecodeRangedRead "$ALLOC_CEILING"

# Control plane: the control codecs at 2 allocs/op (per-open and
# replication frames alike), one transport call at 4, then a whole live
# negotiation at 8 x holders + 40.
for payload in CFP Bid OpenRequest BeginReplication ShardMirror; do
	alloc_gate "BenchmarkEncodeCtl/$payload" 2
	alloc_gate "BenchmarkDecodeCtl/$payload" 2
done
alloc_gate BenchmarkCall 4
for holders in 3 8 16; do
	ceiling=$((8 * holders + 40))
	for lease in cold hot; do
		alloc_gate "BenchmarkLiveNegotiate/H$holders/$lease" "$ceiling"
	done
done

# One whole K4 striped read: negotiation plus a segment path that
# allocates nothing per segment (see the header).
alloc_gate "BenchmarkLiveStripedReadThroughput/K4" 120

# The refused-replication path, on the MM and from the RM (see the header).
alloc_gate BenchmarkBeginReplicationRefused 0
alloc_gate BenchmarkRMsWithout 1
alloc_gate BenchmarkReplicationAttemptAtCap 1

# The DES event loop: queue, feed and serial negotiation (see the header).
for pending in 4 20k 200k; do
	alloc_gate "BenchmarkSchedulerPending/$pending" 1
done
alloc_gate BenchmarkFeed 0
alloc_gate "BenchmarkNegotiateSerial/H3" 11

# Stripe-scaling gate: K4 striped throughput must beat K1 by STRIPE_FLOOR.
stripe_mbs() {
	awk -v b="BenchmarkLiveStripedReadThroughput/$1" \
		'$1 ~ "^"b"(-[0-9]+)?$" { for (i = 2; i < NF; i++) if ($(i+1) == "MB/s") print $i }' "$RAW"
}
k1="$(stripe_mbs K1)"
k4="$(stripe_mbs K4)"
if [ -z "$k1" ] || [ -z "$k4" ]; then
	echo "GATE: striped K1/K4 benchmarks did not run (K1='$k1' K4='$k4')" >&2
	fail=1
elif ! awk -v k1="$k1" -v k4="$k4" -v floor="$STRIPE_FLOOR" \
	'BEGIN { exit !(k4 >= floor * k1) }'; then
	echo "GATE: striped K4 at $k4 MB/s is under ${STRIPE_FLOOR}x the K1 $k1 MB/s" >&2
	fail=1
else
	echo "GATE: striped K4 at $k4 MB/s vs K1 $k1 MB/s (floor ${STRIPE_FLOOR}x) ok"
fi

echo "== work-conserving QoS benchmark (benchtime=$BENCH_TIME)"
go test ./internal/live/ -run '^$' \
	-bench 'BenchmarkLiveWorkConservingThroughput' \
	-benchmem -benchtime "$BENCH_TIME" | tee "$RAW9"

# Same parse as above, plus the violations column: the benchmark reports
# violations=1 when the contending stream's throughput fell under its
# assured floor during the borrow phase.
awk -v out="$OUT9" '
/^Benchmark/ {
	name = $1
	sub(/-[0-9]+$/, "", name)  # strip the GOMAXPROCS suffix
	ns = ""; mbs = ""; bop = ""; aop = ""; vio = ""
	for (i = 2; i < NF; i++) {
		if ($(i+1) == "ns/op")      ns  = $i
		if ($(i+1) == "MB/s")       mbs = $i
		if ($(i+1) == "B/op")       bop = $i
		if ($(i+1) == "allocs/op")  aop = $i
		if ($(i+1) == "violations") vio = $i
	}
	line = sprintf("  {\"name\": \"%s\", \"ns_per_op\": %s", name, ns)
	if (mbs != "") line = line sprintf(", \"mb_per_s\": %s", mbs)
	if (vio != "") line = line sprintf(", \"floor_violations\": %s", vio)
	if (bop != "") line = line sprintf(", \"b_per_op\": %s", bop)
	if (aop != "") line = line sprintf(", \"allocs_per_op\": %s", aop)
	line = line "}"
	lines[n++] = line
}
END {
	print "[" > out
	for (i = 0; i < n; i++) print lines[i] (i < n-1 ? "," : "") >> out
	print "]" >> out
}
' "$RAW9"

echo "== wrote $OUT9"
cat "$OUT9"

# Work-conserving gates: the borrowing tree must deliver utilization
# strictly above the flat baseline, and neither mode may dent the
# contending stream's assured floor.
wc_col() {
	awk -v b="BenchmarkLiveWorkConservingThroughput/$1" -v unit="$2" \
		'$1 ~ "^"b"(-[0-9]+)?$" { for (i = 2; i < NF; i++) if ($(i+1) == unit) print $i }' "$RAW9"
}
flat="$(wc_col flat MB/s)"
cons="$(wc_col conserving MB/s)"
if [ -z "$flat" ] || [ -z "$cons" ]; then
	echo "GATE: work-conserving benchmarks did not run (flat='$flat' conserving='$cons')" >&2
	fail=1
elif ! awk -v f="$flat" -v c="$cons" -v floor="$WORKCONSERVE_FLOOR" \
	'BEGIN { exit !(c >= floor * f) }'; then
	echo "GATE: conserving at $cons MB/s is under ${WORKCONSERVE_FLOOR}x the flat $flat MB/s" >&2
	fail=1
else
	echo "GATE: conserving at $cons MB/s vs flat $flat MB/s (floor ${WORKCONSERVE_FLOOR}x) ok"
fi
for mode in flat conserving; do
	vio="$(wc_col "$mode" violations)"
	if [ -z "$vio" ]; then
		echo "GATE: $mode mode reported no violations metric" >&2
		fail=1
	elif awk -v v="$vio" 'BEGIN { exit !(v > 0) }'; then
		echo "GATE: $mode mode dented the assured floor ($vio violations)" >&2
		fail=1
	else
		echo "GATE: $mode mode held every assured floor (0 violations)"
	fi
done
exit $fail
