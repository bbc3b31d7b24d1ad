package blkio

import (
	"dfsqos/internal/telemetry"
)

// Metrics is the controller's telemetry surface: the work-conserving
// borrow/reclaim accounting as scrapable series. The counts and the group
// count are read from the controller at scrape time, under its locks, so
// Reserve writes none of them; only the wait histogram, which has no other
// record, is observed as delays are handed out. Build one with NewMetrics,
// attach it with Controller.SetMetrics, and take the controller out of its
// series again with Unbind. Nil means no-op.
type Metrics struct {
	// The counts and the group count (dfsqos_blkio_bytes_total{source},
	// _borrows_total, _reclaims_total, _groups).
	assured, borrowed, borrows, reclaims *telemetry.CounterFunc
	groups                               *telemetry.GaugeFunc
	// ThrottleWait observes every nonzero delay handed to a caller
	// (dfsqos_blkio_throttle_wait_seconds).
	ThrottleWait *telemetry.Histogram

	bound telemetry.Bindings
}

// NewMetrics registers the blkio metric families on reg (nil reg yields a
// sink that keeps nothing). One daemon hosts one disk controller, so the
// families are unlabeled; controllers sharing a registry sum into them.
func NewMetrics(reg *telemetry.Registry) *Metrics {
	bytes := reg.NewCounterFuncVec("dfsqos_blkio_bytes_total",
		"Bytes admitted through the bucket tree by funding source.", "source")
	return &Metrics{
		assured:  bytes.With("assured"),
		borrowed: bytes.With("borrowed"),
		borrows: reg.NewCounterFunc("dfsqos_blkio_borrows_total",
			"Reservations that ran past their assured floor on borrowed root tokens."),
		reclaims: reg.NewCounterFunc("dfsqos_blkio_reclaims_total",
			"Reservations whose borrow was cut short by sibling assured pressure."),
		ThrottleWait: reg.NewHistogram("dfsqos_blkio_throttle_wait_seconds",
			"Delay handed to throttled I/O reservations.",
			telemetry.DefBuckets),
		groups: reg.NewGaugeFunc("dfsqos_blkio_groups",
			"Configured throttle groups."),
	}
}

// bind points every series at c's Stats and group table.
func (m *Metrics) bind(c *Controller) {
	count := func(f *telemetry.CounterFunc, n func(Stats) uint64) {
		m.bound.Add(f.Bind(func() uint64 { return n(c.Stats()) }))
	}
	count(m.assured, func(s Stats) uint64 { return s.AssuredBytes })
	count(m.borrowed, func(s Stats) uint64 { return s.BorrowedBytes })
	count(m.borrows, func(s Stats) uint64 { return s.Borrows })
	count(m.reclaims, func(s Stats) uint64 { return s.Reclaims })
	m.bound.Add(m.groups.Bind(func() float64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return float64(len(c.groups))
	}))
}

// Unbind takes every controller attached to m out of its series: a
// stopped node's disk leaves the registry's sums.
func (m *Metrics) Unbind() {
	if m != nil {
		m.bound.Unbind()
	}
}
