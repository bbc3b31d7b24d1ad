package mm

import (
	"dfsqos/internal/ecnp"
	"dfsqos/internal/telemetry"
)

// Metrics is the Metadata Manager's telemetry surface: the size and
// health of the global resource list (the live-RM gauge is the headline
// number), the heartbeat, reconciliation and refusal counts, and a shard
// group member's view of its group. Its series are read at scrape time
// from the state the MM keeps — its liveness tables and the counts of its
// Manager and ShardMember — so the MM writes no telemetry on any path.
//
// Build one with NewMetrics and attach it with Manager.SetMetrics or
// ShardMember.SetMetrics; Unbind takes the MM out of its series again when
// its node stops. Nil means no telemetry at all, as in the DES. One daemon
// hosts one MM; MMs of one process that share a registry sum into the
// series.
type Metrics struct {
	manager []source[*Manager]
	member  []source[*ShardMember]
	bound   telemetry.Bindings
}

// source binds one series to what it reads of an owner, returning the
// unbind.
type source[O any] func(o O) (unbind func())

// reads is the source whose series reads read(o) at scrape time.
func reads[O any, T uint64 | float64](series *telemetry.Func[T], read func(O) T) source[O] {
	return func(o O) func() { return series.Bind(func() T { return read(o) }) }
}

// NewMetrics registers the MM metric families on reg (nil reg yields a
// sink that keeps nothing).
func NewMetrics(reg *telemetry.Registry) *Metrics {
	transitions := reg.NewCounterFuncVec("dfsqos_mm_rm_transitions_total",
		"RM liveness transitions observed by the MM, by direction.", "direction")
	shardTransitions := reg.NewCounterFuncVec("dfsqos_mm_shard_transitions_total",
		"MM shard liveness transitions observed by the shard group, by direction.", "direction")
	mirrors := reg.NewCounterFuncVec("dfsqos_mm_shard_mirrors_total",
		"Replica-map mutations mirrored to successor shards, by outcome.", "outcome")
	handoff := reg.NewCounterFuncVec("dfsqos_mm_shard_handoff_entries_total",
		"Replica-map entries moved by the shard handoff protocol, by direction.", "direction")
	refusals := reg.NewCounterFuncVec("dfsqos_mm_replication_refusals_total",
		"BeginReplication calls the MM refused, by the limit that was hit.", "reason")
	rms := func(m *Manager) liveCounts { return m.live.counts() }
	shards := func(s *ShardMember) liveCounts { return s.health.counts() }
	met := &Metrics{
		manager: []source[*Manager]{
			reads(reg.NewGaugeFunc("dfsqos_mm_registered_rms", "RMs in the global resource list, live or dead."),
				func(m *Manager) float64 { return float64(rms(m).slots) }),
			reads(reg.NewGaugeFunc("dfsqos_mm_live_rms", "Registered RMs currently within their liveness window."),
				func(m *Manager) float64 { return float64(rms(m).live) }),
			reads(reg.NewCounterFunc("dfsqos_mm_heartbeats_total", "Liveness beacons accepted from registered RMs."),
				func(m *Manager) uint64 { return m.heartbeats.Load() }),
			reads(transitions.With("dead"), func(m *Manager) uint64 { return rms(m).deaths }),
			reads(transitions.With("live"), func(m *Manager) uint64 { return rms(m).revivals }),
			reads(reg.NewCounterFunc("dfsqos_mm_reconciled_replicas_total", "Stale replica-map entries pruned during RM re-registration."),
				func(m *Manager) uint64 { return m.counts().reconciled }),
		},
		member: []source[*ShardMember]{
			reads(reg.NewGaugeFunc("dfsqos_mm_live_shards", "Metadata shards currently within their liveness window."),
				func(s *ShardMember) float64 { return float64(shards(s).live) }),
			reads(shardTransitions.With("dead"), func(s *ShardMember) uint64 { return shards(s).deaths }),
			reads(shardTransitions.With("live"), func(s *ShardMember) uint64 { return shards(s).revivals }),
			reads(reg.NewCounterFunc("dfsqos_mm_shard_beats_total", "Shard-to-shard liveness beacons accepted."),
				func(s *ShardMember) uint64 { return s.beats.Load() }),
			reads(mirrors.With("ok"), func(s *ShardMember) uint64 { return s.mirrorsOK.Load() }),
			reads(mirrors.With("error"), func(s *ShardMember) uint64 { return s.mirrorsFailed.Load() }),
			reads(handoff.With("takeover"), func(s *ShardMember) uint64 { return s.takeoverEntries.Load() }),
			reads(handoff.With("heal"), func(s *ShardMember) uint64 { return s.healEntries.Load() }),
		},
	}
	for why := ecnp.ErrReplicaCap; why <= ecnp.ErrUnregisteredRM; why++ {
		met.manager = append(met.manager, reads(refusals.With(why.Label()),
			func(m *Manager) uint64 { return m.counts().refused[why] }))
	}
	return met
}

// bind points every source of srcs at o.
func bind[O any](met *Metrics, o O, srcs []source[O]) {
	for _, read := range srcs {
		met.bound.Add(read(o))
	}
}

// Unbind takes every Manager and ShardMember attached to met out of its
// series: a stopped node's state leaves the registry's sums.
func (met *Metrics) Unbind() {
	if met != nil {
		met.bound.Unbind()
	}
}
