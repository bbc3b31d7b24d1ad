package mm

import (
	"fmt"
	"slices"
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
// It is N ShardMembers in one process that share one shard liveness table
// and call each other directly as peers: the replication protocol
// (mirrors, takeover and heal handoffs) is the one internal/live's shard
// group runs over TCP, and with R > 1 the group survives the death of any
// R-1 shards. The manager only routes each call to the file's first live
// owner, fans group-wide calls to every live member, and models crashes
// with KillShard / ReviveShard. It backs the DES's sharded metadata
// plane (cluster.Config.MMShards); mmd serves a single mm.Manager or one
// TCP group member, never this.
type ShardedManager struct {
	members []*ShardMember
}

// NewSharded returns a distributed manager over n shards with no
// metadata replication (R = 1), the pre-replication behavior.
func NewSharded(n int) *ShardedManager {
	return NewShardedReplicated(n, 1)
}

// NewShardedReplicated returns a distributed manager over n shards with
// each file's mapping replicated to r distinct shards (clamped to [1, n]).
func NewShardedReplicated(n, r int) *ShardedManager {
	ring := NewRing(n)
	m := &ShardedManager{members: make([]*ShardMember, n)}
	health := NewShardLiveness(n, LivenessConfig{})
	for i := range m.members {
		m.members[i] = NewShardMember(i, ring, r, health)
	}
	for _, s := range m.members {
		for j, p := range m.members {
			s.SetPeer(j, p)
		}
	}
	return m
}

// Shard exposes one shard (diagnostics and tests).
func (m *ShardedManager) Shard(i int) *Manager { return m.members[i].Manager }

// Health exposes the shard liveness table every member shares.
func (m *ShardedManager) Health() *Liveness[int] { return m.members[0].Health() }

// ownersOf returns the shards owning file's mapping, primary first, in
// ring-successor order.
func (m *ShardedManager) ownersOf(file ids.FileID) []int {
	return m.members[0].owners(file)
}

// serving routes a call to file's first live owner; nil when the whole
// owner set is dead (the mapping is unreachable until a revival).
func (m *ShardedManager) serving(file ids.FileID) *ShardMember {
	var buf [8]int // the owner set, on the stack: every call routes here
	if o := m.Health().firstLive(m.members[0].appendOwners(buf[:0], file), -1, -1); o >= 0 {
		return m.members[o]
	}
	return nil
}

// write hands a mutation to file's first live owner, which mirrors it to
// the other live owners; a dead owner set refuses it.
func (m *ShardedManager) write(file ids.FileID, op func(*ShardMember) error) error {
	if s := m.serving(file); s != nil {
		return op(s)
	}
	return fmt.Errorf("mm: no live shard owns %v", file)
}

// liveMembers returns the live members in ascending index order.
func (m *ShardedManager) liveMembers() []*ShardMember {
	out := make([]*ShardMember, 0, len(m.members))
	for i, s := range m.members {
		if m.Health().Alive(i) {
			out = append(out, s)
		}
	}
	return out
}

// canonical returns the lowest-index live shard, the authority for the
// replicated resource list (shard 0 while everything is up).
func (m *ShardedManager) canonical() *Manager {
	if live := m.liveMembers(); len(live) > 0 {
		return live[0].Manager
	}
	return m.members[0].Manager
}

// RegisterRM implements ecnp.Mapper: the RM info replicates to every live
// shard; each reported file lands on every live member of its owner set.
// Dead shards miss the update and reconverge through the heal handoff on
// revival.
func (m *ShardedManager) RegisterRM(info ecnp.RMInfo, files []ids.FileID) error {
	for _, s := range m.liveMembers() {
		if err := s.RegisterRM(info, files); err != nil {
			return fmt.Errorf("mm: shard %d: %w", s.index, err)
		}
	}
	return nil
}

// Lookup implements ecnp.Mapper. A fully-dead owner set answers empty —
// the mapping is unreachable until a shard revives.
func (m *ShardedManager) Lookup(file ids.FileID) []ids.RMID {
	if s := m.serving(file); s != nil {
		return s.Lookup(file)
	}
	return nil
}

// RMsWithout implements ecnp.Mapper.
func (m *ShardedManager) RMsWithout(file ids.FileID) []ids.RMID {
	return m.AppendRMsWithout(nil, file)
}

// AppendRMsWithout appends RMsWithout(file) to dst, as
// Manager.AppendRMsWithout does; a fully-dead owner set appends nothing.
func (m *ShardedManager) AppendRMsWithout(dst []ids.RMID, file ids.FileID) []ids.RMID {
	if s := m.serving(file); s != nil {
		return s.AppendRMsWithout(dst, file)
	}
	return dst
}

// AddReplica implements ecnp.Mapper.
func (m *ShardedManager) AddReplica(file ids.FileID, rm ids.RMID) error {
	return m.write(file, func(s *ShardMember) error { return s.AddReplica(file, rm) })
}

// RemoveReplica implements ecnp.Mapper.
func (m *ShardedManager) RemoveReplica(file ids.FileID, rm ids.RMID) error {
	return m.write(file, func(s *ShardMember) error { return s.RemoveReplica(file, rm) })
}

// BeginReplication implements ecnp.Mapper.
func (m *ShardedManager) BeginReplication(file ids.FileID, rm ids.RMID, maxTotal int) error {
	return m.write(file, func(s *ShardMember) error { return s.BeginReplication(file, rm, maxTotal) })
}

// EndReplication implements ecnp.Mapper.
func (m *ShardedManager) EndReplication(file ids.FileID, rm ids.RMID, commit bool) error {
	return m.write(file, func(s *ShardMember) error { return s.EndReplication(file, rm, commit) })
}

// ReplicaCount implements ecnp.Mapper.
func (m *ShardedManager) ReplicaCount(file ids.FileID) int {
	if s := m.serving(file); s != nil {
		return s.ReplicaCount(file)
	}
	return 0
}

// RMs implements ecnp.Mapper. The resource list is replicated, so the
// lowest-index live shard is canonical.
func (m *ShardedManager) RMs() []ecnp.RMInfo {
	return m.canonical().RMs()
}

// SetClock overrides the wall-clock source on every shard and on the
// shard liveness table (tests).
func (m *ShardedManager) SetClock(now func() time.Time) {
	for _, s := range m.members {
		s.Manager.SetClock(now)
	}
	m.Health().SetClock(now)
}

// Heartbeat fans an RM's liveness beacon to every live shard so each
// replica of the resource list heals and expires in step. Dead shards
// are skipped — their stale tables rebuild on revival via the heal
// handoff and the RM re-registration machinery.
func (m *ShardedManager) Heartbeat(id ids.RMID) error {
	for _, s := range m.liveMembers() {
		if err := s.Heartbeat(id); err != nil {
			return fmt.Errorf("mm: shard %d: %w", s.index, err)
		}
	}
	return nil
}

// KillShard marks shard i dead and has every live member run the
// takeover handoff, restoring R live replicas of i's keyspace (with R = 1
// there is no surviving owner, so the keyspace is unreachable until the
// shard revives — the single-MM failure mode, now confined to 1/N of
// files). It returns the replica entries the targets adopted. Killing a
// dead shard is a no-op.
func (m *ShardedManager) KillShard(i int) int {
	if !m.Health().SetDown(i, true) {
		return 0
	}
	moved := 0
	for _, s := range m.liveMembers() {
		moved += s.Takeover(i)
	}
	return moved
}

// ReviveShard brings shard i back and has every other live member run
// the heal handoff: the mappings i owns flow back (including writes it
// missed) and it learns the RMs registered while it was down. Reviving a
// live shard is a no-op. It returns the replica entries i adopted.
func (m *ShardedManager) ReviveShard(i int) int {
	if !m.Health().SetDown(i, false) {
		return 0
	}
	healed := 0
	for _, s := range m.liveMembers() {
		healed += s.Heal(i)
	}
	return healed
}

// Validate checks every live shard's replica-map invariants plus the
// cross-shard invariants that live shards agree on the resource list and
// that every live member of a file's owner set agrees on its holders.
// Dead shards are exempt: their staleness is what the heal handoff exists
// to fix.
func (m *ShardedManager) Validate() error {
	live := m.liveMembers()
	if len(live) == 0 {
		return fmt.Errorf("mm: no live shards")
	}
	canonical := live[0].Manager.RMs()
	for _, s := range live {
		if err := s.Manager.Validate(); err != nil {
			return fmt.Errorf("mm: shard %d: %w", s.index, err)
		}
		if rms := s.Manager.RMs(); !slices.Equal(rms, canonical) {
			return fmt.Errorf("mm: shard %d resource list diverges from shard %d's", s.index, live[0].index)
		}
		for _, f := range s.Manager.Files() {
			owners := m.ownersOf(f)
			if !slices.Contains(owners, s.index) {
				continue // lingering takeover copy; harmless, reads route to owners
			}
			want := s.Manager.Replicas(f)
			for _, o := range owners {
				if o != s.index && m.Health().Alive(o) && !slices.Equal(want, m.members[o].Manager.Replicas(f)) {
					return fmt.Errorf("mm: shards %d and %d disagree on %v holders", s.index, o, f)
				}
			}
		}
	}
	return nil
}

var _ ecnp.Mapper = (*ShardedManager)(nil)
