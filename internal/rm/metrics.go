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
// the families to the RM, and Unbind takes the RM out of them again when
// its node stops. Nil means no telemetry at all, as in the DES. One daemon
// hosts one RM, so the families are unlabeled; RMs of one process that
// share a registry sum into them, the oversubscription ratio too.
type Metrics struct {
	counts []source[uint64]
	gauges []source[float64]
	bound  telemetry.Bindings
}

// source is one series and what it reads of an RM, under r.mu.
type source[T uint64 | float64] struct {
	series *telemetry.Func[T]
	read   func(r *RM) T
}

// NewMetrics registers the RM metric families on reg (nil reg yields a
// sink that keeps nothing).
func NewMetrics(reg *telemetry.Registry) *Metrics {
	count := func(name, help string, n func(*Stats) int64) source[uint64] {
		return countOf(reg.NewCounterFunc(name, help), n)
	}
	gauge := func(name, help string, v func(*RM) float64) source[float64] {
		return source[float64]{reg.NewGaugeFunc(name, help), v}
	}
	offers := reg.NewCounterFuncVec("dfsqos_rm_replica_offers_total",
		"Inbound replica offers by decision.", "decision")
	refusals := reg.NewCounterFuncVec("dfsqos_rm_refusals_total",
		"Opens (reads and writes) and keepalives the RM refused, by reason.", "reason")
	met := &Metrics{
		counts: []source[uint64]{
			count("dfsqos_rm_cfps_total", "Call-For-Proposals received.", func(s *Stats) int64 { return s.CFPs }),
			count("dfsqos_rm_bids_total", "Bids served (always-bid: one per CFP).", func(s *Stats) int64 { return s.CFPs }),
			count("dfsqos_rm_admissions_total", "Data accesses admitted (opens).", func(s *Stats) int64 { return s.Opens }),
			countOf(offers.With("accepted"), func(s *Stats) int64 { return s.OffersAccepted }),
			countOf(offers.With("rejected"), func(s *Stats) int64 { return s.OffersRejected }),
			count("dfsqos_rm_replication_triggers_total", "Replication triggers that produced at least one transfer.",
				func(s *Stats) int64 { return s.RepTriggers }),
			count("dfsqos_rm_replication_transfers_total", "Replica copies committed as source.",
				func(s *Stats) int64 { return s.RepTransfers }),
			count("dfsqos_rm_replication_migrations_total", "Own-replica deletions after exceeding N_MAXR.",
				func(s *Stats) int64 { return s.RepMigrations }),
			count("dfsqos_rm_gc_evictions_total", "Cold replicas deleted by the storage collector.",
				func(s *Stats) int64 { return s.GCEvictions }),
			count("dfsqos_rm_leases_expired_total", "Orphaned reservations reclaimed by the lease sweeper.",
				func(s *Stats) int64 { return s.LeaseExpiries }),
		},
		gauges: []source[float64]{
			gauge("dfsqos_rm_remaining_bandwidth_bytes_per_second", "Current remained storage bandwidth (capacity - allocated).",
				func(r *RM) float64 { return float64(r.led.Remaining()) }),
			gauge("dfsqos_rm_active_streams", "Open QoS reservations.", func(r *RM) float64 { return float64(len(r.active)) }),
			gauge("dfsqos_rm_storage_used_bytes", "Committed plus in-flight replica bytes on the virtual disk.",
				func(r *RM) float64 { return float64(r.storageUsed) }),
			gauge("dfsqos_rm_files", "Committed replicas held.", func(r *RM) float64 { return float64(len(r.files)) }),
			gauge("dfsqos_rm_oversub_ratio", "Admission oversubscription ratio (1 = nominal capacity).",
				func(r *RM) float64 { return r.led.Oversub() }),
		},
	}
	for why := ecnp.ErrDuplicateRequest; why < ecnp.NumRefusals; why++ {
		met.counts = append(met.counts, countOf(refusals.With(why.Label()),
			func(s *Stats) int64 { return s.Refusals[why] }))
	}
	return met
}

// countOf is the counter source reading n of an RM's Stats.
func countOf(series *telemetry.CounterFunc, n func(*Stats) int64) source[uint64] {
	return source[uint64]{series, func(r *RM) uint64 { return uint64(n(&r.stats)) }}
}

// bind points every series at r: each source reads r's state under r.mu
// when the registry renders.
func (met *Metrics) bind(r *RM) {
	bindAll(met, r, met.counts)
	bindAll(met, r, met.gauges)
}

func bindAll[T uint64 | float64](met *Metrics, r *RM, srcs []source[T]) {
	for _, s := range srcs {
		met.bound.Add(s.series.Bind(func() T {
			r.mu.Lock()
			defer r.mu.Unlock()
			return s.read(r)
		}))
	}
}

// Unbind takes every RM New bound to met out of its series: a stopped
// node's state leaves the registry's sums.
func (met *Metrics) Unbind() {
	if met != nil {
		met.bound.Unbind()
	}
}
