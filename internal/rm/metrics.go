package rm

import (
	"dfsqos/internal/ecnp"
	"dfsqos/internal/telemetry"
)

// Metrics is the RM's live telemetry surface: the paper's "dynamic
// runtime information, e.g. the current remained storage bandwidth"
// rendered as continuously scrapable gauges and counters. It mirrors the
// Stats counters onto a registry and adds the runtime gauges the JSON
// snapshot could only sample.
//
// Build one with NewMetrics and pass it through Options.Metrics (or
// SetMetrics). Nil means no-op: the DES and unit tests pay a few
// uncollected atomic ops and nothing else.
type Metrics struct {
	// CFPs counts Call-For-Proposals received
	// (dfsqos_rm_cfps_total).
	CFPs *telemetry.Counter
	// Bids counts bids served; under the paper's always-bid deviation
	// it tracks CFPs one-for-one (dfsqos_rm_bids_total).
	Bids *telemetry.Counter
	// Admissions counts accesses admitted (dfsqos_rm_admissions_total).
	Admissions *telemetry.Counter
	// Refused counts the RM's refusals by code, one child per code the
	// RM returns (dfsqos_rm_refusals_total{reason}).
	Refused [ecnp.NumRefusals]*telemetry.Counter
	// OffersAccepted / OffersRejected count inbound replica offers by
	// decision (dfsqos_rm_replica_offers_total{decision}).
	OffersAccepted *telemetry.Counter
	OffersRejected *telemetry.Counter
	// RepTriggers / RepTransfers / RepMigrations / GCEvictions mirror
	// the replication lifecycle counters.
	RepTriggers   *telemetry.Counter
	RepTransfers  *telemetry.Counter
	RepMigrations *telemetry.Counter
	GCEvictions   *telemetry.Counter
	// LeasesExpired counts orphaned reservations reclaimed by the lease
	// sweeper (dfsqos_rm_leases_expired_total).
	LeasesExpired *telemetry.Counter
	// RemainingBandwidth gauges the current remained storage bandwidth
	// in bytes/sec — the quantity every selection policy and evaluation
	// figure is built on
	// (dfsqos_rm_remaining_bandwidth_bytes_per_second).
	RemainingBandwidth *telemetry.Gauge
	// ActiveStreams gauges the open reservations
	// (dfsqos_rm_active_streams).
	ActiveStreams *telemetry.Gauge
	// StorageUsed gauges committed + in-flight replica bytes
	// (dfsqos_rm_storage_used_bytes).
	StorageUsed *telemetry.Gauge
	// Files gauges the committed replicas held
	// (dfsqos_rm_files).
	Files *telemetry.Gauge
	// OversubRatio gauges the advertised admission oversubscription ratio
	// (dfsqos_rm_oversub_ratio).
	OversubRatio *telemetry.Gauge
}

// NewMetrics registers the RM metric families on reg (nil reg yields a
// live no-op sink). One daemon hosts one RM, so the families are
// unlabeled; in-process multi-RM tests share them through the registry's
// get-or-create semantics.
func NewMetrics(reg *telemetry.Registry) *Metrics {
	offers := reg.NewCounterVec("dfsqos_rm_replica_offers_total",
		"Inbound replica offers by decision.", "decision")
	refusals := reg.NewCounterVec("dfsqos_rm_refusals_total",
		"Opens (reads and writes) and keepalives the RM refused, by reason.", "reason")
	met := &Metrics{
		CFPs: reg.NewCounter("dfsqos_rm_cfps_total",
			"Call-For-Proposals received."),
		Bids: reg.NewCounter("dfsqos_rm_bids_total",
			"Bids served (always-bid: one per CFP)."),
		Admissions: reg.NewCounter("dfsqos_rm_admissions_total",
			"Data accesses admitted (opens)."),
		OffersAccepted: offers.With("accepted"),
		OffersRejected: offers.With("rejected"),
		RepTriggers: reg.NewCounter("dfsqos_rm_replication_triggers_total",
			"Replication triggers that produced at least one transfer."),
		RepTransfers: reg.NewCounter("dfsqos_rm_replication_transfers_total",
			"Replica copies committed as source."),
		RepMigrations: reg.NewCounter("dfsqos_rm_replication_migrations_total",
			"Own-replica deletions after exceeding N_MAXR."),
		GCEvictions: reg.NewCounter("dfsqos_rm_gc_evictions_total",
			"Cold replicas deleted by the storage collector."),
		LeasesExpired: reg.NewCounter("dfsqos_rm_leases_expired_total",
			"Orphaned reservations reclaimed by the lease sweeper."),
		RemainingBandwidth: reg.NewGauge("dfsqos_rm_remaining_bandwidth_bytes_per_second",
			"Current remained storage bandwidth (capacity - allocated)."),
		ActiveStreams: reg.NewGauge("dfsqos_rm_active_streams",
			"Open QoS reservations."),
		StorageUsed: reg.NewGauge("dfsqos_rm_storage_used_bytes",
			"Committed plus in-flight replica bytes on the virtual disk."),
		Files: reg.NewGauge("dfsqos_rm_files",
			"Committed replicas held."),
		OversubRatio: reg.NewGauge("dfsqos_rm_oversub_ratio",
			"Admission oversubscription ratio (1 = nominal capacity)."),
	}
	for why := ecnp.ErrDuplicateRequest; why < ecnp.NumRefusals; why++ {
		met.Refused[why] = refusals.With(why.Label())
	}
	return met
}
