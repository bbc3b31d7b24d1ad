package rm

import (
	"dfsqos/internal/ecnp"
	"dfsqos/internal/telemetry"
)

// Metrics is the RM's live telemetry surface: the paper's "dynamic
// runtime information, e.g. the current remained storage bandwidth"
// rendered as continuously scrapable gauges and counters. Its series are
// read at scrape time from the RM's own Stats, ledger, reservations and
// file table, under the RM's lock, so an RM writes no telemetry on its
// request path.
//
// Build one with NewMetrics and pass it through Options.Metrics; New binds
// the families to the RM. Nil means no telemetry at all, as in the DES.
// One daemon hosts one RM, so the families are unlabeled; RMs of one
// process that share a registry sum into them.
type Metrics struct {
	cfps, bids, admissions  *telemetry.CounterFunc
	triggers, transfers     *telemetry.CounterFunc
	migrations, gcEvictions *telemetry.CounterFunc
	leasesExpired           *telemetry.CounterFunc
	offersAccepted          *telemetry.CounterFunc
	offersRejected          *telemetry.CounterFunc
	refused                 [ecnp.NumRefusals]*telemetry.CounterFunc
	remaining, active       *telemetry.GaugeFunc
	storageUsed, files      *telemetry.GaugeFunc
	oversub                 *telemetry.Gauge
}

// NewMetrics registers the RM metric families on reg (nil reg yields a
// sink that keeps nothing).
func NewMetrics(reg *telemetry.Registry) *Metrics {
	offers := reg.NewCounterFuncVec("dfsqos_rm_replica_offers_total",
		"Inbound replica offers by decision.", "decision")
	refusals := reg.NewCounterFuncVec("dfsqos_rm_refusals_total",
		"Opens (reads and writes) and keepalives the RM refused, by reason.", "reason")
	met := &Metrics{
		cfps: reg.NewCounterFunc("dfsqos_rm_cfps_total",
			"Call-For-Proposals received."),
		bids: reg.NewCounterFunc("dfsqos_rm_bids_total",
			"Bids served (always-bid: one per CFP)."),
		admissions: reg.NewCounterFunc("dfsqos_rm_admissions_total",
			"Data accesses admitted (opens)."),
		offersAccepted: offers.With("accepted"),
		offersRejected: offers.With("rejected"),
		triggers: reg.NewCounterFunc("dfsqos_rm_replication_triggers_total",
			"Replication triggers that produced at least one transfer."),
		transfers: reg.NewCounterFunc("dfsqos_rm_replication_transfers_total",
			"Replica copies committed as source."),
		migrations: reg.NewCounterFunc("dfsqos_rm_replication_migrations_total",
			"Own-replica deletions after exceeding N_MAXR."),
		gcEvictions: reg.NewCounterFunc("dfsqos_rm_gc_evictions_total",
			"Cold replicas deleted by the storage collector."),
		leasesExpired: reg.NewCounterFunc("dfsqos_rm_leases_expired_total",
			"Orphaned reservations reclaimed by the lease sweeper."),
		remaining: reg.NewGaugeFunc("dfsqos_rm_remaining_bandwidth_bytes_per_second",
			"Current remained storage bandwidth (capacity - allocated)."),
		active: reg.NewGaugeFunc("dfsqos_rm_active_streams",
			"Open QoS reservations."),
		storageUsed: reg.NewGaugeFunc("dfsqos_rm_storage_used_bytes",
			"Committed plus in-flight replica bytes on the virtual disk."),
		files: reg.NewGaugeFunc("dfsqos_rm_files",
			"Committed replicas held."),
		oversub: reg.NewGauge("dfsqos_rm_oversub_ratio",
			"Admission oversubscription ratio (1 = nominal capacity)."),
	}
	for why := ecnp.ErrDuplicateRequest; why < ecnp.NumRefusals; why++ {
		met.refused[why] = refusals.With(why.Label())
	}
	return met
}

// bind points every series at r: each source reads r's state under r.mu
// when the registry renders. The oversubscription ratio is fixed at New,
// so it is set once.
func (met *Metrics) bind(r *RM) {
	count := func(c *telemetry.CounterFunc, n func(*Stats) int64) {
		c.Bind(locked(r, func() uint64 { return uint64(n(&r.stats)) }))
	}
	count(met.cfps, func(s *Stats) int64 { return s.CFPs })
	count(met.bids, func(s *Stats) int64 { return s.CFPs }) // always-bid: one bid per CFP
	count(met.admissions, func(s *Stats) int64 { return s.Opens })
	count(met.offersAccepted, func(s *Stats) int64 { return s.OffersAccepted })
	count(met.offersRejected, func(s *Stats) int64 { return s.OffersRejected })
	count(met.triggers, func(s *Stats) int64 { return s.RepTriggers })
	count(met.transfers, func(s *Stats) int64 { return s.RepTransfers })
	count(met.migrations, func(s *Stats) int64 { return s.RepMigrations })
	count(met.gcEvictions, func(s *Stats) int64 { return s.GCEvictions })
	count(met.leasesExpired, func(s *Stats) int64 { return s.LeaseExpiries })
	for why := ecnp.ErrDuplicateRequest; why < ecnp.NumRefusals; why++ {
		count(met.refused[why], func(s *Stats) int64 { return s.Refusals[why] })
	}
	met.remaining.Bind(locked(r, func() float64 { return float64(r.led.Remaining()) }))
	met.active.Bind(locked(r, func() float64 { return float64(len(r.active)) }))
	met.storageUsed.Bind(locked(r, func() float64 { return float64(r.storageUsed) }))
	met.files.Bind(locked(r, func() float64 { return float64(len(r.files)) }))
	met.oversub.Set(r.led.Oversub())
}

// locked wraps read to run under r.mu.
func locked[T any](r *RM, read func() T) func() T {
	return func() T {
		r.mu.Lock()
		defer r.mu.Unlock()
		return read()
	}
}
