package wire

import (
	"sync/atomic"

	"dfsqos/internal/telemetry"
)

// codecCounters is the frame count by direction. The children are
// resolved once so the per-frame cost is one atomic pointer load plus one
// atomic increment.
type codecCounters struct {
	tx, rx *telemetry.Counter
}

// codecMet is the process-wide sink. It starts as an unregistered (live
// but unscraped) set so instrumentation needs no nil checks;
// RegisterCodecMetrics swaps in registry-backed counters.
var codecMet atomic.Pointer[codecCounters]

func init() { codecMet.Store(newCodecCounters(nil)) }

// newCodecCounters builds the two frame counters on reg (nil reg yields
// live, unregistered counters).
func newCodecCounters(reg *telemetry.Registry) *codecCounters {
	v := reg.NewCounterVec("dfsqos_wire_frames_total",
		"Frames moved on wire connections, by direction (tx/rx).",
		"dir")
	return &codecCounters{tx: v.With("tx"), rx: v.With("rx")}
}

// RegisterCodecMetrics exposes the frame counts on reg as
// dfsqos_wire_frames_total{dir}, making frame traffic observable at
// /metrics. Counts accumulated before registration are not carried over,
// so daemons call this right after building their registry. The sink is
// process-wide (frames are counted wherever the Conn lives, client or
// server side).
func RegisterCodecMetrics(reg *telemetry.Registry) {
	codecMet.Store(newCodecCounters(reg))
}
