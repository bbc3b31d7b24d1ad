package mm

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"dfsqos/internal/ecnp"
	"dfsqos/internal/ids"
	"dfsqos/internal/wire"
)

// ShardPeer is how a shard-group member reaches another member. The
// in-process group (ShardedManager) calls the other *ShardMember
// directly; a TCP group member (internal/live's MMShard) calls it
// through an MM client stub.
type ShardPeer interface {
	ApplyMirror(m wire.ShardMirror) error
	ApplyHandoff(h wire.ShardHandoff) (adopted int, err error)
}

// ErrShardUnreachable marks a mirror or handoff that never reached its
// peer (a transport failure or an injected partition), as opposed to a
// peer that answered with a refusal.
var ErrShardUnreachable = errors.New("mm: shard peer unreachable")

// ShardMember is one member of a replicated metadata shard group and the
// one place the group's replication protocol is written: a full *Manager
// confined to its slice of the keyspace (every file whose ring owner set
// — the primary and the next R-1 distinct shards — includes it), its view
// of the group's liveness, and its peers.
//
// The serving owner applies a mutation locally, then mirrors it to the
// other live owners; a mirror is applied terminally, so it cannot loop.
// Reads, heartbeats and RM liveness queries answer from the embedded
// manager. When a peer dies the member runs the takeover handoff (its
// shared slice goes to the first live shard beyond each owner set); when
// one revives, the heal handoff (the revived shard's slice goes back). A
// running member counts itself alive in every liveness decision: no beat
// refreshes its own slot, and a stale one would silence every
// first-live-owner rule at once.
//
// Settled once for both deployments:
//
//  1. A failed mirror is counted; the serving owner's commit stands. One
//     that never arrived (ErrShardUnreachable) is logged, and its co-owner
//     stays stale until it dies and is healed; a refused one means the
//     owner set diverged and is returned, wrapped with the co-owner index.
//  2. Handoff entries are counted by the receiver (ApplyHandoff); Takeover
//     and Heal return the sum the receivers adopted.
//  3. Only the first live owner pushes a takeover. A heal is pushed by the
//     first live shard of the file's ring walk, which reaches a takeover
//     copy when every other owner is dead.
//  4. A heal always teaches the revived shard the resource list: every
//     handoff carries it, even with no entries.
//  5. Mirrors and handoffs apply idempotently. A handoff entry is the
//     pusher's whole holder set for its file, so it also drops holders
//     removed while the receiver was dead. Handoffs carry no reservations,
//     so a mirrored EndReplication the receiver never saw begin commits
//     the holder, or, aborted, does nothing.
type ShardMember struct {
	*Manager
	index  int
	ring   *Ring
	rep    int
	health *Liveness[int]

	mu    sync.Mutex
	met   *Metrics
	peers []ShardPeer // ring-index aligned; nil at own index / unset
	logf  func(string, ...any)

	heals sync.WaitGroup // heal handoffs HeardFrom started
}

// NewShardMember builds member index of the group laid out by ring, with
// replication factor rep (clamped to [1, shard count]) and the liveness
// view health.
func NewShardMember(index int, ring *Ring, rep int, health *Liveness[int]) *ShardMember {
	return &ShardMember{
		Manager: New(),
		index:   index,
		ring:    ring,
		rep:     max(1, min(rep, ring.Shards())),
		health:  health,
		met:     NewMetrics(nil),
		peers:   make([]ShardPeer, ring.Shards()),
		logf:    func(string, ...any) {},
	}
}

// Index returns this member's ring index.
func (s *ShardMember) Index() int { return s.index }

// Health exposes the member's shard liveness view.
func (s *ShardMember) Health() *Liveness[int] { return s.health }

// SetPeer attaches peer shard i (ignored for the member's own index; nil
// detaches).
func (s *ShardMember) SetPeer(i int, p ShardPeer) {
	if i == s.index {
		return
	}
	s.mu.Lock()
	s.peers[i] = p
	s.mu.Unlock()
}

// SetMetrics routes all of the member's telemetry to met: the local
// manager's RM series, the liveness view's transitions and the
// shard-group counters it reports (beats, mirrors, handoff entries).
func (s *ShardMember) SetMetrics(met *Metrics) {
	if met == nil {
		met = NewMetrics(nil)
	}
	s.mu.Lock()
	s.met = met
	s.mu.Unlock()
	s.Manager.SetMetrics(met)
	s.health.SetMetrics(met)
}

// SetLogger routes diagnostics (default: discard).
func (s *ShardMember) SetLogger(logf func(string, ...any)) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	s.mu.Lock()
	s.logf = logf
	s.mu.Unlock()
}

func (s *ShardMember) state() (*Metrics, func(string, ...any)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.met, s.logf
}

func (s *ShardMember) peer(i int) ShardPeer {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.peers[i]
}

// owners returns file's owner set, primary first, in ring order.
func (s *ShardMember) owners(file ids.FileID) []int {
	return s.appendOwners(nil, file)
}

// appendOwners appends owners(file) to dst.
func (s *ShardMember) appendOwners(dst []int, file ids.FileID) []int {
	return s.ring.appendSuccessors(dst, mix64(uint64(file)), s.rep)
}

// walk returns every shard in file's ring order: the owner set, then the
// shards a takeover reaches beyond it.
func (s *ShardMember) walk(file ids.FileID) []int {
	return s.ring.SuccessorsOfFile(int64(file), s.ring.Shards())
}

// firstLive is this member's first live shard of walk other than skip.
func (s *ShardMember) firstLive(walk []int, skip int) int {
	return s.health.firstLive(walk, s.index, skip)
}

// RegisterRM implements ecnp.Mapper. Registrations fan to every live
// member with the RM's full file list; each member keeps the files it
// owns, so the reconcile prunes exactly its slice.
func (s *ShardMember) RegisterRM(info ecnp.RMInfo, files []ids.FileID) error {
	owned := make([]ids.FileID, 0, len(files))
	for _, f := range files {
		if slices.Contains(s.owners(f), s.index) {
			owned = append(owned, f)
		}
	}
	return s.Manager.RegisterRM(info, owned)
}

// AddReplica implements ecnp.Mapper: local apply, then mirror.
func (s *ShardMember) AddReplica(file ids.FileID, rm ids.RMID) error {
	return s.write(s.Manager.AddReplica(file, rm), wire.ShardMirror{Op: "AddReplica", File: file, RM: rm})
}

// RemoveReplica implements ecnp.Mapper.
func (s *ShardMember) RemoveReplica(file ids.FileID, rm ids.RMID) error {
	return s.write(s.Manager.RemoveReplica(file, rm), wire.ShardMirror{Op: "RemoveReplica", File: file, RM: rm})
}

// BeginReplication implements ecnp.Mapper.
func (s *ShardMember) BeginReplication(file ids.FileID, rm ids.RMID, maxTotal int) error {
	return s.write(s.Manager.BeginReplication(file, rm, maxTotal),
		wire.ShardMirror{Op: "BeginReplication", File: file, RM: rm, MaxTotal: maxTotal})
}

// EndReplication implements ecnp.Mapper.
func (s *ShardMember) EndReplication(file ids.FileID, rm ids.RMID, commit bool) error {
	return s.write(s.Manager.EndReplication(file, rm, commit),
		wire.ShardMirror{Op: "EndReplication", File: file, RM: rm, Commit: commit})
}

// write mirrors a mutation the local manager accepted (err == nil) to the
// other live owners of its file (decision 1 of the type comment).
func (s *ShardMember) write(err error, m wire.ShardMirror) error {
	if err != nil {
		return err
	}
	met, logf := s.state()
	for _, o := range s.owners(m.File) {
		p := s.peer(o) // nil at the member's own index
		if p == nil || !s.health.Alive(o) {
			continue
		}
		err := p.ApplyMirror(m)
		if err == nil {
			met.ShardMirrorsOK.Inc()
			continue
		}
		met.ShardMirrorsFailed.Inc()
		if !errors.Is(err, ErrShardUnreachable) {
			return fmt.Errorf("mm: shard %d mirror: %w", o, err)
		}
		logf("mm: shard %d mirror %s to %d: %v", s.index, m.Op, o, err)
	}
	return nil
}

// ApplyMirror applies a mutation mirrored by the serving owner, never
// mirroring it onward. Replica add/remove apply idempotently — a mirror
// can race a handoff carrying the same mapping.
func (s *ShardMember) ApplyMirror(m wire.ShardMirror) error {
	switch m.Op {
	case "AddReplica":
		_, err := s.Manager.AdoptReplicas(m.File, []ids.RMID{m.RM})
		return err
	case "RemoveReplica":
		if !slices.Contains(s.Manager.Replicas(m.File), m.RM) {
			return nil // already gone
		}
		return s.Manager.RemoveReplica(m.File, m.RM)
	case "BeginReplication":
		return s.Manager.BeginReplication(m.File, m.RM, m.MaxTotal)
	case "EndReplication":
		err := s.Manager.EndReplication(m.File, m.RM, m.Commit)
		if errors.Is(err, ecnp.ErrNoPendingReplication) {
			// Begun before this member revived: handoffs carry committed
			// holders only, so a commit adopts the holder, an abort is done.
			err = nil
			if m.Commit {
				_, err = s.Manager.AdoptReplicas(m.File, []ids.RMID{m.RM})
			}
		}
		return err
	}
	return fmt.Errorf("mm: shard %d: unknown mirror op %q", s.index, m.Op)
}

// ApplyHandoff adopts a keyspace batch pushed by a peer: RMs the member
// does not know register first (only unknown ones — re-registering a
// known RM with no files would prune its replicas), then each entry
// becomes its file's holder set, new holders added before stale ones go
// so the set never empties. The handoff-entry counter advances by the
// holders that were new, labeled with the push direction.
func (s *ShardMember) ApplyHandoff(h wire.ShardHandoff) (int, error) {
	for _, info := range h.Infos {
		if _, known := s.Manager.RM(info.ID); known {
			continue
		}
		if err := s.Manager.RegisterRM(info, nil); err != nil {
			return 0, err
		}
	}
	adopted := 0
	var err error
	for i := 0; i < len(h.Entries) && err == nil; i++ {
		e := h.Entries[i]
		var n int
		n, err = s.Manager.AdoptReplicas(e.File, e.RMs)
		adopted += n
		for _, rm := range s.Manager.Replicas(e.File) {
			if err == nil && len(e.RMs) > 0 && !slices.Contains(e.RMs, rm) {
				err = s.Manager.RemoveReplica(e.File, rm)
			}
		}
	}
	met, _ := s.state()
	counter := met.HandoffTakeover
	if h.Direction == "heal" {
		counter = met.HandoffHeal
	}
	counter.Add(uint64(adopted))
	return adopted, err
}

// PeerBeat accepts a liveness beacon peer shard i sent, counts it, and
// hands it to HeardFrom.
func (s *ShardMember) PeerBeat(i int) error {
	if i < 0 || i >= s.ring.Shards() || i == s.index {
		return fmt.Errorf("mm: shard %d: bad peer beat from %d", s.index, i)
	}
	met, _ := s.state()
	met.ShardBeats.Inc()
	s.HeardFrom(i)
	return nil
}

// HeardFrom records that peer i proved itself alive — by a beat it sent,
// or one it answered. One that revives a dead peer runs the heal handoff
// asynchronously; WaitHeals waits for it.
func (s *ShardMember) HeardFrom(i int) {
	if s.health.Beat(i) {
		s.heals.Add(1)
		go func() {
			defer s.heals.Done()
			s.Heal(i)
		}()
	}
}

// WaitHeals waits for every heal handoff HeardFrom started. Call it once
// nothing can beat the member any more — after its server and its beat
// loop have stopped — so no handoff outlives the member.
func (s *ShardMember) WaitHeals() { s.heals.Wait() }

// Sweep latches peers that crossed their beat deadline, running the
// takeover handoff for each newly dead one, and sweeps the member's RM
// table. A beat loop calls it every tick.
func (s *ShardMember) Sweep() {
	// Stamp, not Beat: a stalled tick must not read as a death plus a
	// revival of the member itself.
	s.health.Stamp(s.index)
	for _, dead := range s.health.Sweep() {
		if dead != s.index {
			_, logf := s.state()
			logf("mm: shard %d sweep: peer %d latched dead", s.index, dead)
			s.Takeover(dead)
		}
	}
	s.Manager.Sweep()
}

// Takeover pushes the slice of the keyspace this member shares with dead
// shard dead, for files where this member is the first live owner, to
// the first live shard beyond each owner set. It returns the entries the
// targets adopted.
func (s *ShardMember) Takeover(dead int) int {
	batches := make(map[int][]wire.ShardEntry) // target shard → entries
	for _, f := range s.Manager.Files() {
		owners := s.owners(f)
		if !slices.Contains(owners, dead) || s.firstLive(owners, dead) != s.index {
			continue
		}
		target := s.firstLive(s.walk(f)[s.rep:], -1)
		if target < 0 {
			continue // no live non-owner shard left to take the slice
		}
		batches[target] = append(batches[target], wire.ShardEntry{File: f, RMs: s.Manager.Replicas(f)})
	}
	moved := 0
	for target := range s.ring.Shards() { // index order: deterministic
		if len(batches[target]) > 0 {
			moved += s.push(target, "takeover", batches[target])
		}
	}
	return moved
}

// Heal pushes revived shard's slice of the keyspace back to it — each file
// it owns for which this member is the first live shard of the ring walk,
// the revived shard excluded — together with the resource list. It
// returns the entries the revived shard adopted.
func (s *ShardMember) Heal(revived int) int {
	if revived == s.index {
		return 0
	}
	var entries []wire.ShardEntry
	for _, f := range s.Manager.Files() {
		if !slices.Contains(s.owners(f), revived) || s.firstLive(s.walk(f), revived) != s.index {
			continue
		}
		entries = append(entries, wire.ShardEntry{File: f, RMs: s.Manager.Replicas(f)})
	}
	return s.push(revived, "heal", entries)
}

// push sends one handoff batch to target and returns what it adopted.
func (s *ShardMember) push(target int, direction string, entries []wire.ShardEntry) int {
	p := s.peer(target)
	if p == nil {
		return 0
	}
	_, logf := s.state()
	n, err := p.ApplyHandoff(wire.ShardHandoff{
		From:      int32(s.index),
		Direction: direction,
		Infos:     s.Manager.AllRMs(),
		Entries:   entries,
	})
	logf("mm: shard %d handoff %s to %d: %d of %d entr(ies) adopted (err %v)", s.index, direction, target, n, len(entries), err)
	return n
}

var _ ecnp.Mapper = (*ShardMember)(nil)
var _ ShardPeer = (*ShardMember)(nil)
