#!/usr/bin/env sh
# scenarios.sh — named scenario run with SLO gates.
#
# Builds and runs cmd/dfsqos-scenario: every builtin scenario (Zipfian
# hot-file skew, flash-crowd burst, diurnal tide, mixed operation storm)
# replayed open-loop through the discrete-event cluster — 10⁵–10⁶
# simulated clients in full mode — plus a scaled-down live-TCP slice per
# scenario, with per-class request and failure counts, fail rate,
# aggregate utilization and the live slice's latency percentiles written
# into the report. The runner exits non-zero when any
# scenario violates its declarative SLO, so this script IS the gate: CI
# runs it in short mode (SCEN_MODE=short) and uploads the report.
#
# Usage:
#   ./scripts/scenarios.sh [out.json]
# Env:
#   SCEN_MODE   "full" (default) or "short" — short runs the reduced CI shape
#   SCEN_SEED   master seed for every stream in the run (default 1)
#   SCEN_FLAGS  extra flags for dfsqos-scenario (e.g. "-no-live")
set -eu

OUT="${1:-BENCH_7.json}"
SCEN_MODE="${SCEN_MODE:-full}"
SCEN_SEED="${SCEN_SEED:-1}"
SCEN_FLAGS="${SCEN_FLAGS:-}"

MODE_FLAG=""
if [ "$SCEN_MODE" = "short" ]; then
    MODE_FLAG="-short"
fi

echo "scenarios: mode=$SCEN_MODE seed=$SCEN_SEED -> $OUT"
# shellcheck disable=SC2086 # SCEN_FLAGS is intentionally word-split
go run ./cmd/dfsqos-scenario $MODE_FLAG -seed "$SCEN_SEED" -o "$OUT" $SCEN_FLAGS
echo "scenarios: report written to $OUT"
