package mm

import (
	"fmt"
	"time"

	"dfsqos/internal/ecnp"
	"dfsqos/internal/ids"
)

// ShardedManager is a distributed Metadata Manager: the file → replica map
// is partitioned across shards by consistent hashing, while the (small)
// global resource list is replicated to every shard so any shard can
// answer "which RMs exist" and "which RMs lack a replica of file f"
// locally. This is the DHT design the paper points to for scaling past a
// single MM; with one shard it degenerates to exactly the single manager.
//
// With a replication factor R > 1 each file's mapping is owned by its
// primary shard (the ring successor) and mirrored to the next R-1
// distinct shards walking the ring, so the group survives the death of
// any R-1 shards: writes apply to every live owner in ring-successor
// order, reads come from the first live owner. KillShard / ReviveShard
// model a shard crash; a kill triggers the takeover handoff (the dead
// shard's keyspace re-replicates from surviving owners to the next
// successor beyond the owner set) and a revival triggers the heal
// handoff (the keyspace pushes back, bumping the shard's revival epoch).
// The live deployment drives the same protocol over TCP
// (internal/live's shard group); this in-process form backs the DES and
// the single-binary mmd.
//
// Each shard is a full *Manager, so shard-local invariants (duplicate
// replicas, last-replica protection) are enforced by the same code the
// single-MM deployment runs.
type ShardedManager struct {
	ring   *Ring
	shards []*Manager
	rep    int
	health *ShardHealth
	met    *Metrics
}

// NewSharded returns a distributed manager over n shards with no
// metadata replication (R = 1), the pre-replication behavior.
func NewSharded(n int) *ShardedManager {
	return NewShardedReplicated(n, 1)
}

// NewShardedReplicated returns a distributed manager over n shards with
// each file's mapping replicated to r distinct shards (clamped to [1, n]).
func NewShardedReplicated(n, r int) *ShardedManager {
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	ring := NewRing(n)
	shards := make([]*Manager, n)
	for i := range shards {
		shards[i] = New()
	}
	return &ShardedManager{
		ring:   ring,
		shards: shards,
		rep:    r,
		health: NewShardHealth(n, LivenessConfig{}),
		met:    NewMetrics(nil),
	}
}

// NumShards returns the shard count.
func (m *ShardedManager) NumShards() int { return len(m.shards) }

// Replication returns the metadata replication factor R.
func (m *ShardedManager) Replication() int { return m.rep }

// Shard exposes one shard (diagnostics and tests).
func (m *ShardedManager) Shard(i int) *Manager { return m.shards[i] }

// Health exposes the shard liveness table (diagnostics and tests).
func (m *ShardedManager) Health() *ShardHealth { return m.health }

// ownersOf returns the shards owning file's mapping, primary first, in
// ring-successor order.
func (m *ShardedManager) ownersOf(file ids.FileID) []int {
	return m.ring.SuccessorsOfFile(int64(file), m.rep)
}

// readShard routes a read to the first live owner of file; nil when the
// whole owner set is dead (the mapping is unreachable until a revival).
func (m *ShardedManager) readShard(file ids.FileID) *Manager {
	for _, s := range m.ownersOf(file) {
		if m.health.Alive(s) {
			return m.shards[s]
		}
	}
	return nil
}

// write applies op to every live owner of file in ring-successor order —
// the first live owner validates (its error aborts the write), the rest
// mirror it. Mirror application is expected to succeed since every owner
// holds an identical replica; a mirror failure is counted and surfaced.
func (m *ShardedManager) write(file ids.FileID, op func(*Manager) error) error {
	applied := 0
	for _, s := range m.ownersOf(file) {
		if !m.health.Alive(s) {
			continue
		}
		if err := op(m.shards[s]); err != nil {
			if applied > 0 {
				m.met.ShardMirrorsFailed.Inc()
				return fmt.Errorf("mm: shard %d mirror: %w", s, err)
			}
			return err
		}
		if applied > 0 {
			m.met.ShardMirrorsOK.Inc()
		}
		applied++
	}
	if applied == 0 {
		return fmt.Errorf("mm: no live shard owns %v", file)
	}
	return nil
}

// liveShards returns the live shard indices in ascending order.
func (m *ShardedManager) liveShards() []int {
	out := make([]int, 0, len(m.shards))
	for i := range m.shards {
		if m.health.Alive(i) {
			out = append(out, i)
		}
	}
	return out
}

// canonical returns the lowest-index live shard, the authority for the
// replicated resource list (shard 0 while everything is up).
func (m *ShardedManager) canonical() *Manager {
	for i := range m.shards {
		if m.health.Alive(i) {
			return m.shards[i]
		}
	}
	return m.shards[0]
}

// RegisterRM implements ecnp.Mapper: the RM info replicates to every live
// shard; each reported file lands on every live member of its owner set.
// Dead shards miss the update and reconverge through the heal handoff on
// revival.
func (m *ShardedManager) RegisterRM(info ecnp.RMInfo, files []ids.FileID) error {
	perShard := make([][]ids.FileID, len(m.shards))
	for _, f := range files {
		for _, s := range m.ownersOf(f) {
			perShard[s] = append(perShard[s], f)
		}
	}
	for _, i := range m.liveShards() {
		if err := m.shards[i].RegisterRM(info, perShard[i]); err != nil {
			return fmt.Errorf("mm: shard %d: %w", i, err)
		}
	}
	return nil
}

// Lookup implements ecnp.Mapper. A fully-dead owner set answers empty —
// the mapping is unreachable until a shard revives.
func (m *ShardedManager) Lookup(file ids.FileID) []ids.RMID {
	s := m.readShard(file)
	if s == nil {
		return nil
	}
	return s.Lookup(file)
}

// RMsWithout implements ecnp.Mapper.
func (m *ShardedManager) RMsWithout(file ids.FileID) []ids.RMID {
	s := m.readShard(file)
	if s == nil {
		return nil
	}
	return s.RMsWithout(file)
}

// AddReplica implements ecnp.Mapper.
func (m *ShardedManager) AddReplica(file ids.FileID, rm ids.RMID) error {
	return m.write(file, func(s *Manager) error { return s.AddReplica(file, rm) })
}

// RemoveReplica implements ecnp.Mapper.
func (m *ShardedManager) RemoveReplica(file ids.FileID, rm ids.RMID) error {
	return m.write(file, func(s *Manager) error { return s.RemoveReplica(file, rm) })
}

// BeginReplication implements ecnp.Mapper.
func (m *ShardedManager) BeginReplication(file ids.FileID, rm ids.RMID, maxTotal int) error {
	return m.write(file, func(s *Manager) error { return s.BeginReplication(file, rm, maxTotal) })
}

// EndReplication implements ecnp.Mapper.
func (m *ShardedManager) EndReplication(file ids.FileID, rm ids.RMID, commit bool) error {
	return m.write(file, func(s *Manager) error { return s.EndReplication(file, rm, commit) })
}

// ReplicaCount implements ecnp.Mapper.
func (m *ShardedManager) ReplicaCount(file ids.FileID) int {
	s := m.readShard(file)
	if s == nil {
		return 0
	}
	return s.ReplicaCount(file)
}

// RMs implements ecnp.Mapper. The resource list is replicated, so the
// lowest-index live shard is canonical.
func (m *ShardedManager) RMs() []ecnp.RMInfo {
	return m.canonical().RMs()
}

// AllRMs returns every registered RM regardless of liveness (lowest-index
// live shard is canonical).
func (m *ShardedManager) AllRMs() []ecnp.RMInfo {
	return m.canonical().AllRMs()
}

// SetLiveness arms RM failure detection on every shard (the resource
// list, and therefore the liveness table, is replicated).
func (m *ShardedManager) SetLiveness(cfg LivenessConfig) {
	for _, shard := range m.shards {
		shard.SetLiveness(cfg)
	}
}

// SetClock overrides the wall-clock source on every shard and on the
// shard liveness table (tests).
func (m *ShardedManager) SetClock(now func() time.Time) {
	for _, shard := range m.shards {
		shard.SetClock(now)
	}
	m.health.SetClock(now)
}

// SetMetrics routes MM telemetry. Shard 0 carries the RM gauges (the
// resource list is replicated, so any shard's view is canonical); the
// other shards keep no-op sinks so per-incident counters are not
// multiplied by the shard count — except the replication refusals, which
// only the shard validating a write counts. Shard-group counters
// (mirrors, handoffs, transitions) live on the group itself.
func (m *ShardedManager) SetMetrics(met *Metrics) {
	if met == nil {
		met = NewMetrics(nil)
	}
	m.met = met
	m.shards[0].SetMetrics(met)
	for _, shard := range m.shards[1:] {
		shard.SetMetrics(met.refusalsOnly())
	}
	m.health.SetMetrics(met)
}

// Heartbeat fans an RM's liveness beacon to every live shard so each
// replica of the resource list heals and expires in step. Dead shards
// are skipped — their stale tables rebuild on revival via the heal
// handoff and the RM re-registration machinery.
func (m *ShardedManager) Heartbeat(id ids.RMID) error {
	for _, i := range m.liveShards() {
		if err := m.shards[i].Heartbeat(id); err != nil {
			return fmt.Errorf("mm: shard %d: %w", i, err)
		}
	}
	return nil
}

// Epoch returns id's liveness epoch (lowest-index live shard is canonical).
func (m *ShardedManager) Epoch(id ids.RMID) uint64 { return m.canonical().Epoch(id) }

// LiveCount returns the live-RM count (lowest-index live shard is canonical).
func (m *ShardedManager) LiveCount() int { return m.canonical().LiveCount() }

// Alive reports the canonical shard's view of id's liveness.
func (m *ShardedManager) Alive(id ids.RMID) bool { return m.canonical().Alive(id) }

// KillShard marks shard i dead and runs the takeover handoff: every
// mapping i owned re-replicates from a surviving owner to the next live
// successor beyond the owner set, restoring R live replicas (with R = 1
// there is no surviving owner, so the keyspace is unreachable until the
// shard revives — the single-MM failure mode, now confined to 1/N of
// files). It returns the number of replica entries moved. Killing a
// dead shard is a no-op.
func (m *ShardedManager) KillShard(i int) int {
	if !m.health.SetDown(i, true) {
		return 0
	}
	moved := m.handoffDead(i)
	m.met.HandoffTakeover.Add(uint64(moved))
	return moved
}

// ReviveShard brings shard i back and runs the heal handoff: mappings i
// owns flow back from live owners (including any takeover target), so
// the revived shard serves its keyspace again. Reviving a live shard is
// a no-op. It returns the number of replica entries healed.
func (m *ShardedManager) ReviveShard(i int) int {
	if !m.health.SetDown(i, false) {
		return 0
	}
	healed := m.heal(i)
	m.met.HandoffHeal.Add(uint64(healed))
	return healed
}

// ShardAlive reports whether shard i is live.
func (m *ShardedManager) ShardAlive(i int) bool { return m.health.Alive(i) }

// LiveShardCount returns the number of live shards.
func (m *ShardedManager) LiveShardCount() int { return m.health.LiveCount() }

// ShardEpoch returns shard i's revival epoch.
func (m *ShardedManager) ShardEpoch(i int) uint64 { return m.health.Epoch(i) }

// handoffDead re-replicates dead shard i's keyspace: for every file whose
// owner set contains i and that survives on a live owner, the mapping is
// adopted by the first live shard beyond the owner set. Returns replica
// entries copied.
func (m *ShardedManager) handoffDead(dead int) int {
	moved := 0
	for _, src := range m.liveShards() {
		for _, f := range m.shards[src].Files() {
			owners := m.ownersOf(f)
			if !containsShard(owners, dead) || !containsShard(owners, src) {
				continue
			}
			target := m.takeoverTarget(f, owners)
			if target < 0 {
				continue
			}
			added, err := m.adopt(target, src, f)
			if err != nil {
				m.met.ShardMirrorsFailed.Inc()
				continue
			}
			moved += added
		}
	}
	return moved
}

// takeoverTarget returns the first live shard beyond file's owner set in
// ring-successor order, or -1 when every non-owner shard is dead.
func (m *ShardedManager) takeoverTarget(f ids.FileID, owners []int) int {
	for _, s := range m.ring.SuccessorsOfFile(int64(f), len(m.shards)) {
		if containsShard(owners, s) {
			continue
		}
		if m.health.Alive(s) {
			return s
		}
	}
	return -1
}

// heal pushes revived shard i's keyspace back: every mapping whose owner
// set contains i that lives on another live shard is adopted by i. RMs
// the revived shard never saw (registered while it was down) are copied
// from the canonical resource list first — only unknown ones, since
// re-registering a known RM with an empty file list would prune its
// replicas. Returns replica entries copied.
func (m *ShardedManager) heal(revived int) int {
	dst := m.shards[revived]
	for _, info := range m.canonical().AllRMs() {
		if _, known := dst.RM(info.ID); !known {
			if err := dst.RegisterRM(info, nil); err != nil {
				m.met.ShardMirrorsFailed.Inc()
			}
		}
	}
	healed := 0
	for _, src := range m.liveShards() {
		if src == revived {
			continue
		}
		for _, f := range m.shards[src].Files() {
			if !containsShard(m.ownersOf(f), revived) {
				continue
			}
			added, err := m.adopt(revived, src, f)
			if err != nil {
				m.met.ShardMirrorsFailed.Inc()
				continue
			}
			healed += added
		}
	}
	return healed
}

// adopt copies file's mapping from shard src into shard dst,
// idempotently, registering any holder dst does not know yet.
func (m *ShardedManager) adopt(dst, src int, f ids.FileID) (int, error) {
	holders := m.shards[src].Replicas(f)
	for _, rm := range holders {
		if _, known := m.shards[dst].RM(rm); known {
			continue
		}
		if info, ok := m.shards[src].RM(rm); ok {
			if err := m.shards[dst].RegisterRM(info, nil); err != nil {
				return 0, err
			}
		}
	}
	return m.shards[dst].AdoptReplicas(f, holders)
}

func containsShard(s []int, x int) bool {
	for _, v := range s {
		if v == x {
			return true
		}
	}
	return false
}

// FilesOn merges the per-shard file lists of one RM (replicated mappings
// appear once).
func (m *ShardedManager) FilesOn(rm ids.RMID) []ids.FileID {
	var out []ids.FileID
	for _, shard := range m.shards {
		out = append(out, shard.FilesOn(rm)...)
	}
	sortFiles(out)
	return dedupFiles(out)
}

// Validate checks every live shard's replica-map invariants plus the
// cross-shard invariants that live shards agree on the resource list and
// that every live member of a file's owner set agrees on its holders.
// Dead shards are exempt: their staleness is what the heal handoff exists
// to fix.
func (m *ShardedManager) Validate() error {
	live := m.liveShards()
	if len(live) == 0 {
		return fmt.Errorf("mm: no live shards")
	}
	canonical := m.shards[live[0]].RMs()
	for _, i := range live {
		shard := m.shards[i]
		if err := shard.Validate(); err != nil {
			return fmt.Errorf("mm: shard %d: %w", i, err)
		}
		rms := shard.RMs()
		if len(rms) != len(canonical) {
			return fmt.Errorf("mm: shard %d has %d RMs, shard %d has %d",
				i, len(rms), live[0], len(canonical))
		}
		for j := range rms {
			if rms[j] != canonical[j] {
				return fmt.Errorf("mm: shard %d resource list diverges at %v", i, rms[j].ID)
			}
		}
		for _, f := range shard.Files() {
			owners := m.ownersOf(f)
			if !containsShard(owners, i) {
				continue // lingering takeover copy; harmless, reads route to owners
			}
			want := shard.Replicas(f)
			for _, o := range owners {
				if o == i || !m.health.Alive(o) {
					continue
				}
				got := m.shards[o].Replicas(f)
				if !equalRMs(want, got) {
					return fmt.Errorf("mm: shards %d and %d disagree on %v holders", i, o, f)
				}
			}
		}
	}
	return nil
}

func equalRMs(a, b []ids.RMID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sortFiles(s []ids.FileID) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func dedupFiles(s []ids.FileID) []ids.FileID {
	if len(s) < 2 {
		return s
	}
	out := s[:1]
	for _, f := range s[1:] {
		if f != out[len(out)-1] {
			out = append(out, f)
		}
	}
	return out
}

var _ ecnp.Mapper = (*ShardedManager)(nil)
