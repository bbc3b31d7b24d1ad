package live

import (
	"dfsqos/internal/telemetry"
	"dfsqos/internal/wire"
)

// ServerMetrics instruments one wire server's request loop: requests and
// errors by message kind, plus reply-write deadline hits (a client that
// stopped reading mid-reply). Families are shared across servers through
// the registry's get-or-create semantics, partitioned by the server
// label ("mm" or "rm").
type ServerMetrics struct {
	server       string
	requests     *telemetry.CounterVec
	errors       *telemetry.CounterVec
	deadlineHits *telemetry.Counter
}

// NewServerMetrics builds the wire-server instrumentation for one server
// role. reg may be nil (no-op metrics).
func NewServerMetrics(reg *telemetry.Registry, server string) *ServerMetrics {
	hits := reg.NewCounterVec("dfsqos_wire_reply_deadline_hits_total",
		"Reply writes that hit the per-frame write deadline (stalled reader).", "server")
	return &ServerMetrics{
		server: server,
		requests: reg.NewCounterVec("dfsqos_wire_requests_total",
			"Requests handled by the wire servers, by message kind.", "server", "kind"),
		errors: reg.NewCounterVec("dfsqos_wire_errors_total",
			"Requests whose handling failed, by message kind.", "server", "kind"),
		deadlineHits: hits.With(server),
	}
}

// request counts one handled request of the given kind.
func (m *ServerMetrics) request(kind wire.Kind) {
	m.requests.With(m.server, kind.String()).Inc()
}

// failure counts one failed handling, splitting out reply-write deadline
// overruns.
func (m *ServerMetrics) failure(kind wire.Kind, err error) {
	m.errors.With(m.server, kind.String()).Inc()
	if wire.IsWriteDeadline(err) {
		m.deadlineHits.Inc()
	}
}

// CopierMetrics instruments the replication data plane: bytes moved and
// transfers in flight. Scraping rate(dfsqos_replication_bytes_total)
// yields the replication throughput in bytes/sec.
type CopierMetrics struct {
	// Bytes counts replica payload bytes read from the source disk and
	// sent to destinations (dfsqos_replication_bytes_total).
	Bytes *telemetry.Counter
	// ActiveTransfers gauges in-flight outbound copies
	// (dfsqos_replication_active_transfers).
	ActiveTransfers *telemetry.Gauge
	// TransfersOK / TransfersFailed count completed outbound copies by
	// outcome (dfsqos_replication_transfers_total{result}).
	TransfersOK     *telemetry.Counter
	TransfersFailed *telemetry.Counter
}

// NewCopierMetrics registers the replication metric families on reg (nil
// reg yields a no-op sink).
func NewCopierMetrics(reg *telemetry.Registry) *CopierMetrics {
	results := reg.NewCounterVec("dfsqos_replication_transfers_total",
		"Completed outbound replica copies by result.", "result")
	return &CopierMetrics{
		Bytes: reg.NewCounter("dfsqos_replication_bytes_total",
			"Replica payload bytes streamed to destination RMs."),
		ActiveTransfers: reg.NewGauge("dfsqos_replication_active_transfers",
			"Outbound replica copies currently in flight."),
		TransfersOK:     results.With("ok"),
		TransfersFailed: results.With("error"),
	}
}
