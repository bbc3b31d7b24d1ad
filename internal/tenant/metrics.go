package tenant

import (
	"dfsqos/internal/ids"
	"dfsqos/internal/telemetry"
)

// Metrics is the per-tenant telemetry surface, labelled by tenant so one
// scrape shows who is consuming what. Every series reads its tenant's
// ledger row at scrape time, under the ledger lock: a row is bound when
// the ledger attached to m creates it, so admissions and releases write
// no telemetry. Build one with NewMetrics, attach it via Ledger.SetMetrics
// (the RM daemons do), and take the ledger out of its series again with
// Unbind; a nil *Metrics is a no-op sink.
type Metrics struct {
	// The row's gauges and counts, one family each, labelled tenant.
	bandwidth, streams, stored              *telemetry.GaugeFuncVec
	admissions, rejections, clamps, charged *telemetry.CounterFuncVec

	bound telemetry.Bindings
}

// NewMetrics registers the tenant metric families on reg (nil reg yields
// a sink that keeps nothing).
func NewMetrics(reg *telemetry.Registry) *Metrics {
	return &Metrics{
		bandwidth: reg.NewGaugeFuncVec("dfsqos_tenant_reserved_bandwidth_bytes_per_second",
			"Reserved bandwidth in flight per tenant.", "tenant"),
		streams: reg.NewGaugeFuncVec("dfsqos_tenant_streams",
			"Open QoS reservations per tenant.", "tenant"),
		stored: reg.NewGaugeFuncVec("dfsqos_tenant_stored_bytes",
			"Stored replica bytes charged per tenant.", "tenant"),
		admissions: reg.NewCounterFuncVec("dfsqos_tenant_admissions_total",
			"Quota-checked reservations granted per tenant.", "tenant"),
		rejections: reg.NewCounterFuncVec("dfsqos_tenant_rejections_total",
			"Over-quota refusals per tenant (bandwidth or bytes).", "tenant"),
		clamps: reg.NewCounterFuncVec("dfsqos_tenant_bid_clamps_total",
			"CFPs answered with the tenant's remaining bandwidth quota below the request's bitrate.", "tenant"),
		charged: reg.NewCounterFuncVec("dfsqos_tenant_charged_bytes_total",
			"Bytes charged against tenant byte quotas.", "tenant"),
	}
}

// bind points t's series at row a of l, each read under l.mu.
func (m *Metrics) bind(l *Ledger, t ids.TenantID, a *acct) {
	label := t.String()
	gauge := func(vec *telemetry.GaugeFuncVec, v func() float64) {
		m.bound.Add(vec.With(label).Bind(locked(l, v)))
	}
	count := func(vec *telemetry.CounterFuncVec, n *uint64) {
		m.bound.Add(vec.With(label).Bind(locked(l, func() uint64 { return *n })))
	}
	gauge(m.bandwidth, func() float64 { return float64(a.bandwidth) })
	gauge(m.streams, func() float64 { return float64(a.streams) })
	gauge(m.stored, func() float64 { return float64(a.bytes) })
	count(m.admissions, &a.admissions)
	count(m.rejections, &a.rejections)
	count(m.clamps, &a.clamps)
	count(m.charged, &a.charged)
}

// locked wraps read to run under l.mu.
func locked[T any](l *Ledger, read func() T) func() T {
	return func() T {
		l.mu.Lock()
		defer l.mu.Unlock()
		return read()
	}
}

// Unbind takes every ledger row bound to m out of its series, and any the
// ledger creates later: a stopped node's tenants leave the registry's sums.
func (m *Metrics) Unbind() {
	if m != nil {
		m.bound.Unbind()
	}
}
