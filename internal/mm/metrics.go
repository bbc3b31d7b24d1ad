package mm

import (
	"dfsqos/internal/ecnp"
	"dfsqos/internal/telemetry"
)

// Metrics is the Metadata Manager's telemetry surface: the size and
// health of the global resource list (the liveness layer's live-RM gauge
// is the headline number) plus the reconciliation and heartbeat
// counters. Nil means no-op, so the DES and pre-liveness deployments pay
// a few uncollected atomic ops and nothing else.
type Metrics struct {
	// RegisteredRMs gauges the resource-list size including dead entries
	// (dfsqos_mm_registered_rms).
	RegisteredRMs *telemetry.Gauge
	// LiveRMs gauges the RMs within their liveness window as of the last
	// sweep, registration or reviving beat (dfsqos_mm_live_rms). With
	// liveness disabled it equals RegisteredRMs.
	LiveRMs *telemetry.Gauge
	// Heartbeats counts accepted liveness beacons
	// (dfsqos_mm_heartbeats_total).
	Heartbeats *telemetry.Counter
	// Deaths counts RMs crossing their miss threshold, once per death: at
	// the sweep that latches it, or at the beat that revives an RM no
	// sweep saw dead (dfsqos_mm_rm_transitions_total{direction="dead"}).
	Deaths *telemetry.Counter
	// Revivals counts dead RMs healed by a heartbeat or re-registration
	// (dfsqos_mm_rm_transitions_total{direction="live"}).
	Revivals *telemetry.Counter
	// ReconciledReplicas counts stale replica-map entries pruned during
	// RM re-registration (dfsqos_mm_reconciled_replicas_total).
	ReconciledReplicas *telemetry.Counter
	// Refused counts refused BeginReplication calls by which limit was
	// hit (dfsqos_mm_replication_refusals_total{reason}): one child per
	// code BeginReplication returns, resolved here, so a refusal is one
	// atomic add with no label lookup on the path.
	Refused [ecnp.NumRefusals]*telemetry.Counter

	// Shard-group telemetry (inert on a single-MM deployment).

	// LiveShards gauges the metadata shards currently considered live
	// (dfsqos_mm_live_shards). Equals the shard count until a shard dies.
	LiveShards *telemetry.Gauge
	// ShardDeaths counts shards observed crossing their beat deadline or
	// killed outright (dfsqos_mm_shard_transitions_total{direction="dead"}).
	ShardDeaths *telemetry.Counter
	// ShardRevivals counts dead shards healed by a beat or revive
	// (dfsqos_mm_shard_transitions_total{direction="live"}).
	ShardRevivals *telemetry.Counter
	// ShardBeats counts shard-to-shard liveness beacons accepted
	// (dfsqos_mm_shard_beats_total).
	ShardBeats *telemetry.Counter
	// ShardMirrorsOK / ShardMirrorsFailed count replica-map mutations
	// mirrored to successor shards, by outcome
	// (dfsqos_mm_shard_mirrors_total{outcome="ok"|"error"}).
	ShardMirrorsOK     *telemetry.Counter
	ShardMirrorsFailed *telemetry.Counter
	// HandoffTakeover / HandoffHeal count replica-map entries moved by the
	// shard handoff protocol, by direction: "takeover" re-replicates a dead
	// shard's keyspace to its successor, "heal" pushes it back after
	// revival (dfsqos_mm_shard_handoff_entries_total{direction}).
	HandoffTakeover *telemetry.Counter
	HandoffHeal     *telemetry.Counter
}

// NewMetrics registers the MM metric families on reg (nil reg yields a
// live no-op sink).
func NewMetrics(reg *telemetry.Registry) *Metrics {
	transitions := reg.NewCounterVec("dfsqos_mm_rm_transitions_total",
		"RM liveness transitions observed by the MM, by direction.", "direction")
	shardTransitions := reg.NewCounterVec("dfsqos_mm_shard_transitions_total",
		"MM shard liveness transitions observed by the shard group, by direction.", "direction")
	mirrors := reg.NewCounterVec("dfsqos_mm_shard_mirrors_total",
		"Replica-map mutations mirrored to successor shards, by outcome.", "outcome")
	handoff := reg.NewCounterVec("dfsqos_mm_shard_handoff_entries_total",
		"Replica-map entries moved by the shard handoff protocol, by direction.", "direction")
	refusals := reg.NewCounterVec("dfsqos_mm_replication_refusals_total",
		"BeginReplication calls the MM refused, by the limit that was hit.", "reason")
	met := &Metrics{
		RegisteredRMs: reg.NewGauge("dfsqos_mm_registered_rms",
			"RMs in the global resource list, live or dead."),
		LiveRMs: reg.NewGauge("dfsqos_mm_live_rms",
			"Registered RMs currently within their liveness window."),
		Heartbeats: reg.NewCounter("dfsqos_mm_heartbeats_total",
			"Liveness beacons accepted from registered RMs."),
		Deaths:   transitions.With("dead"),
		Revivals: transitions.With("live"),
		ReconciledReplicas: reg.NewCounter("dfsqos_mm_reconciled_replicas_total",
			"Stale replica-map entries pruned during RM re-registration."),
		LiveShards: reg.NewGauge("dfsqos_mm_live_shards",
			"Metadata shards currently within their liveness window."),
		ShardDeaths:   shardTransitions.With("dead"),
		ShardRevivals: shardTransitions.With("live"),
		ShardBeats: reg.NewCounter("dfsqos_mm_shard_beats_total",
			"Shard-to-shard liveness beacons accepted."),
		ShardMirrorsOK:     mirrors.With("ok"),
		ShardMirrorsFailed: mirrors.With("error"),
		HandoffTakeover:    handoff.With("takeover"),
		HandoffHeal:        handoff.With("heal"),
	}
	for why := ecnp.ErrReplicaCap; why <= ecnp.ErrUnregisteredRM; why++ {
		met.Refused[why] = refusals.With(why.Label())
	}
	return met
}

// refusalsOnly returns a no-op sink that shares met's refusal counters. A
// refusal is counted by the one shard that validates the write, whichever
// that is, so unlike the RM gauges it is not multiplied by the shard
// count and every shard of an in-process group may report it.
func (met *Metrics) refusalsOnly() *Metrics {
	out := NewMetrics(nil)
	out.Refused = met.Refused
	return out
}
