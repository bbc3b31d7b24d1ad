package wire

import (
	"sync/atomic"

	"dfsqos/internal/telemetry"
)

// codecCounters is the frame-count split by direction and codec. The
// children are resolved once so the per-frame cost is one atomic pointer
// load plus one atomic increment.
type codecCounters struct {
	txBinary, txGob *telemetry.Counter
	rxBinary, rxGob *telemetry.Counter
}

// codecMet is the process-wide sink. It starts as an unregistered (live
// but unscraped) set so instrumentation needs no nil checks;
// RegisterCodecMetrics swaps in registry-backed counters.
var codecMet atomic.Pointer[codecCounters]

func init() { codecMet.Store(newCodecCounters(nil)) }

// newCodecCounters builds the four frame counters on reg (nil reg yields
// live, unregistered counters).
func newCodecCounters(reg *telemetry.Registry) *codecCounters {
	v := reg.NewCounterVec("dfsqos_wire_frames_total",
		"Frames moved on wire connections, by direction (tx/rx) and codec (binary/gob).",
		"dir", "codec")
	return &codecCounters{
		txBinary: v.With("tx", "binary"),
		txGob:    v.With("tx", "gob"),
		rxBinary: v.With("rx", "binary"),
		rxGob:    v.With("rx", "gob"),
	}
}

// RegisterCodecMetrics exposes the fast-path/gob frame split on reg as
// dfsqos_wire_frames_total{dir,codec}, making the codec mix observable at
// /metrics. Counts accumulated before registration are not carried over,
// so daemons call this right after building their registry. The sink is
// process-wide (frames are counted wherever the Conn lives, client or
// server side).
func RegisterCodecMetrics(reg *telemetry.Registry) {
	codecMet.Store(newCodecCounters(reg))
}

// CodecStats snapshots the process-wide frame counters (tests and
// diagnostics).
func CodecStats() (txBinary, txGob, rxBinary, rxGob uint64) {
	m := codecMet.Load()
	return m.txBinary.Value(), m.txGob.Value(), m.rxBinary.Value(), m.rxGob.Value()
}
