package dfsc

import (
	"time"

	"dfsqos/internal/telemetry"
)

// Metrics instruments the client side of the three-phase flow:
// negotiation latency (exploration + CFP fan-out + open), fan-out stalls
// (providers that missed the bid deadline and degraded to zero bids),
// and selection outcomes. Nil in Options means no-op, so the
// discrete-event simulation pays nothing observable.
type Metrics struct {
	// NegotiationLatency observes the wall-clock seconds from request
	// start to open outcome
	// (dfsqos_dfsc_negotiation_latency_seconds). It is nil under a nil
	// registry, and then no negotiation reads the wall clock: the DES's
	// negotiations take no virtual time, and it collects nothing.
	NegotiationLatency *telemetry.Histogram
	// FanoutStalls counts providers whose bid missed the negotiation
	// deadline and were synthesized as last-ranked zero bids
	// (dfsqos_dfsc_fanout_stalls_total).
	FanoutStalls *telemetry.Counter
	// Admitted / Failed / NoReplica count request outcomes
	// (dfsqos_dfsc_requests_total{outcome}).
	Admitted  *telemetry.Counter
	Failed    *telemetry.Counter
	NoReplica *telemetry.Counter
	// Fallbacks counts refusals by a ranked RM — a firm read's open, or
	// any step of a write — before a lower-ranked one (or none) admitted
	// the request (dfsqos_dfsc_open_fallbacks_total).
	Fallbacks *telemetry.Counter
	// Failovers counts mid-stream reads successfully re-admitted on
	// another replica after their serving RM died
	// (dfsqos_dfsc_failovers_total).
	Failovers *telemetry.Counter
	// FailoverLatency observes the seconds from the failover decision to
	// the replacement reservation being admitted
	// (dfsqos_dfsc_failover_latency_seconds).
	FailoverLatency *telemetry.Histogram
	// StripeReads counts read handles opened — one per ReadStriped, one per
	// fsapi open (dfsqos_dfsc_stripe_reads_total); StripeLanes counts the
	// lanes they admitted (dfsqos_dfsc_stripe_lanes_total), so lanes/reads
	// is the effective stripe width.
	StripeReads *telemetry.Counter
	StripeLanes *telemetry.Counter
	// StripeFirstByte observes, once per read handle, the seconds from the
	// OpenRead (or ReadStriped) call to the committer's first successful write
	// (dfsqos_dfsc_stripe_first_byte_seconds): a stream's start-up delay —
	// negotiation plus the first verified segment.
	StripeFirstByte *telemetry.Histogram
	// Segments counts data-plane segments committed to readers
	// (dfsqos_dfsc_segments_total).
	Segments *telemetry.Counter
	// HedgesFired / HedgesWon count slow-lane hedges by outcome
	// (dfsqos_dfsc_hedges_total{outcome}): fired when a lagging lane's
	// range was re-issued to another replica, won when the hedge beat the
	// original copy (first-writer-wins).
	HedgesFired *telemetry.Counter
	HedgesWon   *telemetry.Counter
	// LaneFailovers counts stripe lanes re-admitted on another replica
	// after their RM died mid-range (dfsqos_dfsc_lane_failovers_total).
	LaneFailovers *telemetry.Counter
	// LookupErrors counts metadata lookups that failed in transport, by
	// error class (dfsqos_dfsc_lookup_errors_total{class}): "remote" means
	// the MM answered with an error over a healthy connection, "timeout" a
	// deadline overrun (slow MM), "conn" an unusable connection (dead MM),
	// "other" anything unclassified — so dashboards distinguish a slow MM
	// from a dead one.
	LookupErrors *telemetry.CounterVec
	// OversubAdmits counts admitted lanes funded past the winning RM's
	// assured headroom, i.e. admissions riding the RM's advertised
	// oversubscription ratio (dfsqos_dfsc_oversub_admits_total).
	OversubAdmits *telemetry.Counter
	// MetaHits / MetaMisses / MetaInvalidated count metadata lease-cache
	// outcomes (dfsqos_dfsc_metacache_total{outcome}): "hit" opens that
	// skipped the MM on a live lease, "miss" opens that paid the lookup,
	// "invalidated" leases dropped because the cached replica set failed
	// the client (failover re-resolution).
	MetaHits        *telemetry.Counter
	MetaMisses      *telemetry.Counter
	MetaInvalidated *telemetry.Counter
}

// NewMetrics registers the DFSC metric families on reg (nil reg yields a
// live no-op sink, with no negotiation-latency histogram at all).
func NewMetrics(reg *telemetry.Registry) *Metrics {
	outcomes := reg.NewCounterVec("dfsqos_dfsc_requests_total",
		"Access attempts by outcome.", "outcome")
	hedges := reg.NewCounterVec("dfsqos_dfsc_hedges_total",
		"Slow-lane hedges by outcome (fired/won).", "outcome")
	metacache := reg.NewCounterVec("dfsqos_dfsc_metacache_total",
		"Metadata lease-cache outcomes (hit/miss/invalidated).", "outcome")
	m := &Metrics{
		FanoutStalls: reg.NewCounter("dfsqos_dfsc_fanout_stalls_total",
			"Providers that missed the bid deadline (degraded to zero bids)."),
		Admitted:  outcomes.With("admitted"),
		Failed:    outcomes.With("failed"),
		NoReplica: outcomes.With("no_replica"),
		Fallbacks: reg.NewCounter("dfsqos_dfsc_open_fallbacks_total",
			"Firm opens and writes refused by a ranked RM, falling through to the next."),
		Failovers: reg.NewCounter("dfsqos_dfsc_failovers_total",
			"Mid-stream reads re-admitted on another replica after RM failure."),
		FailoverLatency: reg.NewHistogram("dfsqos_dfsc_failover_latency_seconds",
			"Seconds from failover decision to replacement admission.",
			telemetry.DefBuckets),
		StripeReads: reg.NewCounter("dfsqos_dfsc_stripe_reads_total",
			"Striped (K-wide) reads started."),
		StripeLanes: reg.NewCounter("dfsqos_dfsc_stripe_lanes_total",
			"Stripe lanes admitted across striped reads."),
		StripeFirstByte: reg.NewHistogram("dfsqos_dfsc_stripe_first_byte_seconds",
			"Seconds from a striped read's start to its first byte at the writer.",
			telemetry.DefBuckets),
		Segments: reg.NewCounter("dfsqos_dfsc_segments_total",
			"Data-plane segments committed to readers."),
		OversubAdmits: reg.NewCounter("dfsqos_dfsc_oversub_admits_total",
			"Lanes admitted past the winning RM's assured headroom (oversubscription-funded)."),
		HedgesFired: hedges.With("fired"),
		HedgesWon:   hedges.With("won"),
		LaneFailovers: reg.NewCounter("dfsqos_dfsc_lane_failovers_total",
			"Stripe lanes re-admitted on another replica after RM failure."),
		LookupErrors: reg.NewCounterVec("dfsqos_dfsc_lookup_errors_total",
			"Metadata lookups failed in transport, by error class.", "class"),
		MetaHits:        metacache.With("hit"),
		MetaMisses:      metacache.With("miss"),
		MetaInvalidated: metacache.With("invalidated"),
	}
	if reg != nil {
		m.NegotiationLatency = reg.NewHistogram("dfsqos_dfsc_negotiation_latency_seconds",
			"Three-phase negotiation latency (MM query, CFP fan-out, open).",
			telemetry.DefBuckets)
	}
	return m
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
