package dfsc

import (
	"time"

	"dfsqos/internal/telemetry"
)

// Metrics instruments the client side of the three-phase flow. Its
// counters are read from the Stats of every client it is bound to, at
// scrape time, so a request writes none of them; clients sharing one
// Metrics sum into its series. Only the latency histograms, which have no
// other record, are observed as requests run. Nil in Options means no
// telemetry, so the discrete-event simulation binds nothing.
type Metrics struct {
	// NegotiationLatency observes the wall-clock seconds from request
	// start to open outcome (dfsqos_dfsc_negotiation_latency_seconds). It
	// is nil under a nil registry, and then no negotiation reads the wall
	// clock: the DES's negotiations take no virtual time.
	NegotiationLatency *telemetry.Histogram
	// FailoverLatency observes the seconds from a failover decision to the
	// replacement's admission (dfsqos_dfsc_failover_latency_seconds), and
	// StripeFirstByte, once per read handle, those from the OpenRead (or
	// ReadStriped) call to the first byte at the writer: negotiation plus
	// the first verified segment (dfsqos_dfsc_stripe_first_byte_seconds).
	FailoverLatency, StripeFirstByte *telemetry.Histogram

	counts []countSeries
}

// countSeries is one counter series and the Stats count it reads.
type countSeries struct {
	series *telemetry.CounterFunc
	count  func(*Stats) int64
}

// noMetrics is the sink of a client built without Metrics: its histograms
// are never exported, and it has no series to bind.
var noMetrics = NewMetrics(nil)

// NewMetrics registers the DFSC metric families on reg (nil reg yields a
// sink that keeps nothing, with no negotiation-latency histogram at all).
func NewMetrics(reg *telemetry.Registry) *Metrics {
	outcomes := reg.NewCounterFuncVec("dfsqos_dfsc_requests_total", "Access attempts by outcome.", "outcome")
	hedges := reg.NewCounterFuncVec("dfsqos_dfsc_hedges_total", "Slow-lane hedges by outcome (fired/won).", "outcome")
	metacache := reg.NewCounterFuncVec("dfsqos_dfsc_metacache_total",
		"Metadata lease-cache outcomes (hit/miss/invalidated).", "outcome")
	lookupErrors := reg.NewCounterFuncVec("dfsqos_dfsc_lookup_errors_total",
		"Metadata lookups failed in transport, by error class.", "class")
	count := func(name, help string, n func(*Stats) int64) countSeries {
		return countSeries{reg.NewCounterFunc(name, help), n}
	}
	m := &Metrics{
		FailoverLatency: reg.NewHistogram("dfsqos_dfsc_failover_latency_seconds",
			"Seconds from failover decision to replacement admission.", telemetry.DefBuckets),
		StripeFirstByte: reg.NewHistogram("dfsqos_dfsc_stripe_first_byte_seconds",
			"Seconds from a striped read's start to its first byte at the writer.", telemetry.DefBuckets),
		counts: []countSeries{
			count("dfsqos_dfsc_fanout_stalls_total", "Providers that missed the bid deadline (degraded to zero bids).",
				func(s *Stats) int64 { return s.FanoutStalls }),
			{outcomes.With("admitted"), func(s *Stats) int64 { return s.Admitted }},
			{outcomes.With("failed"), func(s *Stats) int64 { return s.Failed - s.NoReplica }},
			{outcomes.With("no_replica"), func(s *Stats) int64 { return s.NoReplica }},
			count("dfsqos_dfsc_open_fallbacks_total",
				"Firm opens and writes refused by a ranked RM, falling through to the next.",
				func(s *Stats) int64 { return s.Fallbacks }),
			count("dfsqos_dfsc_failovers_total", "Mid-stream reads re-admitted on another replica after RM failure.",
				func(s *Stats) int64 { return s.Failovers }),
			count("dfsqos_dfsc_stripe_reads_total", "Striped (K-wide) reads started.",
				func(s *Stats) int64 { return s.StripeReads }),
			count("dfsqos_dfsc_stripe_lanes_total", "Stripe lanes admitted across striped reads.",
				func(s *Stats) int64 { return s.StripeLanes }),
			count("dfsqos_dfsc_segments_total", "Data-plane segments committed to readers.",
				func(s *Stats) int64 { return s.Segments }),
			count("dfsqos_dfsc_oversub_admits_total",
				"Lanes admitted past the winning RM's assured headroom (oversubscription-funded).",
				func(s *Stats) int64 { return s.Oversubscribed }),
			{hedges.With("fired"), func(s *Stats) int64 { return s.Hedges }},
			{hedges.With("won"), func(s *Stats) int64 { return s.HedgesWon }},
			{metacache.With("hit"), func(s *Stats) int64 { return s.MetaHits }},
			{metacache.With("miss"), func(s *Stats) int64 { return s.MetaMisses }},
			{metacache.With("invalidated"), func(s *Stats) int64 { return s.MetaInvalidated }},
		},
	}
	for class, label := range lookupClasses {
		m.counts = append(m.counts, countSeries{lookupErrors.With(label), func(s *Stats) int64 { return s.LookupErrors[class] }})
	}
	if reg != nil {
		m.NegotiationLatency = reg.NewHistogram("dfsqos_dfsc_negotiation_latency_seconds",
			"Three-phase negotiation latency (MM query, CFP fan-out, open).", telemetry.DefBuckets)
	}
	return m
}

// bind points every counter series at c's Stats.
func (m *Metrics) bind(c *Client) {
	for _, s := range m.counts {
		s.series.Bind(func() uint64 {
			st := c.Stats()
			return uint64(s.count(&st))
		})
	}
}

// timeNegotiation starts timing one negotiation and returns the func that
// observes it. Without a NegotiationLatency histogram (a nil registry) it
// reads no clock and observes nothing: a DES negotiation takes no virtual
// time.
func (m *Metrics) timeNegotiation() (done func()) {
	h := m.NegotiationLatency
	if h == nil {
		return func() {}
	}
	start := time.Now()
	return func() { h.Observe(time.Since(start).Seconds()) }
}
