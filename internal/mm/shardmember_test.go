package mm

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"dfsqos/internal/ecnp"
	"dfsqos/internal/ids"
	"dfsqos/internal/telemetry"
	"dfsqos/internal/wire"
)

// TestReplicatedMembersBeatSweepAndHeal drives the beat-driven path of
// the core with three members that each keep their own liveness view:
// a silent member is latched dead by the others' sweeps (never a member
// by itself), the survivors run the takeover, and when it comes back as
// an empty process its first beats heal its keyspace and resource list
// back into it.
func TestReplicatedMembersBeatSweepAndHeal(t *testing.T) {
	const n, rep = 3, 2
	clk := newFakeClock()
	reg := telemetry.NewRegistry()
	met := NewMetrics(reg)
	ring := NewRing(n)
	member := func(i int) *ShardMember {
		h := NewShardLiveness(n, livenessCfg())
		h.SetClock(clk.Now)
		for j := range n {
			h.Stamp(j) // on the fake clock
		}
		s := NewShardMember(i, ring, rep, h)
		s.SetMetrics(met)
		return s
	}
	members := []*ShardMember{member(0), member(1), member(2)}
	connect := func() {
		for _, s := range members {
			for j, p := range members {
				s.SetPeer(j, p)
			}
		}
	}
	connect()
	files := make([]ids.FileID, 30)
	for i := range files {
		files[i] = ids.FileID(i)
	}
	for _, s := range members {
		if err := s.RegisterRM(info(1), files); err != nil {
			t.Fatal(err)
		}
	}
	if err := members[0].PeerBeat(0); err == nil {
		t.Fatal("a member accepted a beat from itself")
	}
	if err := members[0].PeerBeat(n); err == nil {
		t.Fatal("a member accepted a beat from outside the group")
	}

	// Shard 2 falls silent; 0 and 1 keep beating each other. Nobody beats
	// a member's own slot: Sweep must stamp it rather than latch itself.
	clk.Advance(livenessCfg().Deadline() + time.Millisecond)
	members[0].PeerBeat(1)
	members[1].PeerBeat(0)
	members[0].Sweep()
	members[1].Sweep()
	for _, i := range []int{0, 1} {
		h := members[i].Health()
		if h.Alive(2) || !h.Alive(0) || !h.Alive(1) {
			t.Fatalf("member %d's view after sweep: alive %v %v %v, want only 2 dead", i, h.Alive(0), h.Alive(1), h.Alive(2))
		}
	}
	if met.HandoffTakeover.Value() == 0 {
		t.Fatal("sweep latched shard 2 dead but no takeover entry was adopted")
	}
	for _, f := range files {
		if !slices.Contains(ring.SuccessorsOfFile(int64(f), rep), 2) {
			continue
		}
		for _, i := range []int{0, 1} {
			if !slices.Equal(members[i].Replicas(f), []ids.RMID{1}) {
				t.Fatalf("%v owned by dead shard 2 not on survivor %d after takeover: %v", f, i, members[i].Replicas(f))
			}
		}
	}

	// Shard 2 restarts empty and beats: each survivor's view revives it and
	// heals it asynchronously.
	members[2] = member(2)
	connect()
	members[0].PeerBeat(2)
	members[1].PeerBeat(2)
	deadline := time.Now().Add(5 * time.Second)
	for {
		missing := 0
		for _, f := range files {
			if slices.Contains(ring.SuccessorsOfFile(int64(f), rep), 2) && len(members[2].Replicas(f)) == 0 {
				missing++
			}
		}
		if missing == 0 && len(members[2].AllRMs()) == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("restarted shard 2 still misses %d files and knows %d RMs", missing, len(members[2].AllRMs()))
		}
		time.Sleep(time.Millisecond)
	}
	if got := members[0].Health().Epoch(2); got != 1 {
		t.Fatalf("shard 2's epoch in member 0's view = %d, want 1", got)
	}
	if met.HandoffHeal.Value() == 0 || met.ShardBeats.Value() != 4 {
		t.Fatalf("heal entries %d, beats %d: want some heal and 4 beats", met.HandoffHeal.Value(), met.ShardBeats.Value())
	}
}

// peerFunc is a ShardPeer whose mirrors all answer err.
type peerFunc struct{ err error }

func (p peerFunc) ApplyMirror(wire.ShardMirror) error          { return p.err }
func (p peerFunc) ApplyHandoff(wire.ShardHandoff) (int, error) { return 0, p.err }

// heldPeer is a ShardPeer whose handoffs report in on started and then
// wait for release.
type heldPeer struct{ started, release chan struct{} }

func (p heldPeer) ApplyMirror(wire.ShardMirror) error { return nil }
func (p heldPeer) ApplyHandoff(wire.ShardHandoff) (int, error) {
	close(p.started)
	<-p.release
	return 0, nil
}

// TestWaitHealsWaitsForBeatHeal: the heal a reviving beat starts runs on
// its own goroutine, and WaitHeals does not return while that handoff is
// in flight, so a member's teardown outlives none of its heals.
func TestWaitHealsWaitsForBeatHeal(t *testing.T) {
	clk := newFakeClock()
	h := NewShardLiveness(2, livenessCfg())
	h.SetClock(clk.Now)
	h.Stamp(0)
	h.Stamp(1)
	s := NewShardMember(0, NewRing(2), 2, h)
	p := heldPeer{started: make(chan struct{}), release: make(chan struct{})}
	s.SetPeer(1, p)
	clk.Advance(livenessCfg().Deadline() + time.Millisecond)
	if err := s.PeerBeat(1); err != nil {
		t.Fatal(err)
	}
	<-p.started
	waited := make(chan struct{})
	go func() {
		s.WaitHeals()
		close(waited)
	}()
	select {
	case <-waited:
		t.Fatal("WaitHeals returned while the heal handoff was in flight")
	case <-time.After(50 * time.Millisecond):
	}
	close(p.release)
	select {
	case <-waited:
	case <-time.After(5 * time.Second):
		t.Fatal("WaitHeals did not return after the heal handoff finished")
	}
}

// TestReplicatedMirrorOutcomes pins decision 1: a mirror that never
// arrived is counted and not returned, a refused one is counted and
// returned under the co-owner's index, and the serving owner's commit
// stands either way.
func TestReplicatedMirrorOutcomes(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := NewShardMember(0, NewRing(2), 2, NewShardLiveness(2, LivenessConfig{}))
	s.SetMetrics(NewMetrics(reg))
	s.RegisterRM(info(1), []ids.FileID{0})
	s.RegisterRM(info(2), nil)
	s.RegisterRM(info(3), nil)

	s.SetPeer(1, peerFunc{fmt.Errorf("%w: dial refused", ErrShardUnreachable)})
	if err := s.AddReplica(0, 2); err != nil {
		t.Fatalf("an undelivered mirror surfaced: %v", err)
	}
	refusal := errors.New("refused")
	s.SetPeer(1, peerFunc{refusal})
	err := s.AddReplica(0, 3)
	if !errors.Is(err, refusal) || !strings.Contains(err.Error(), "shard 1 mirror") {
		t.Fatalf("refused mirror: %v, want the refusal wrapped with shard 1", err)
	}
	if hs := s.Replicas(0); !slices.Equal(hs, []ids.RMID{1, 2, 3}) {
		t.Fatalf("serving owner holds %v, want both writes committed", hs)
	}
	s.SetPeer(1, nil)
	if err := s.RemoveReplica(0, 3); err != nil {
		t.Fatal(err)
	}
	text := exposition(t, reg)
	for _, want := range []string{
		`dfsqos_mm_shard_mirrors_total{outcome="error"} 2`,
		`dfsqos_mm_shard_mirrors_total{outcome="ok"} 0`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
}

// TestReplicatedApplyMirrorIdempotent: a mirror replayed, or one racing a
// handoff, converges instead of erroring — including the end of a
// reservation the receiver never saw begin.
func TestReplicatedApplyMirrorIdempotent(t *testing.T) {
	s := NewShardMember(0, NewRing(1), 1, NewShardLiveness(1, LivenessConfig{}))
	s.RegisterRM(info(1), []ids.FileID{0})
	s.RegisterRM(info(2), nil)
	s.RegisterRM(info(3), nil)
	for _, m := range []wire.ShardMirror{
		{Op: "AddReplica", File: 0, RM: 2},
		{Op: "AddReplica", File: 0, RM: 2},
		{Op: "RemoveReplica", File: 0, RM: 2},
		{Op: "RemoveReplica", File: 0, RM: 2},
		{Op: "EndReplication", File: 0, RM: 3, Commit: true},
		{Op: "EndReplication", File: 0, RM: 2, Commit: false},
		{Op: "BeginReplication", File: 0, RM: 2, MaxTotal: 0},
		{Op: "EndReplication", File: 0, RM: 2, Commit: false},
	} {
		if err := s.ApplyMirror(m); err != nil {
			t.Fatalf("ApplyMirror(%+v): %v", m, err)
		}
	}
	if hs := s.Replicas(0); !slices.Equal(hs, []ids.RMID{1, 3}) {
		t.Fatalf("holders after the mirror replay %v, want [1 3]", hs)
	}
	if s.PendingCount(0) != 0 {
		t.Fatalf("%d reservations left pending", s.PendingCount(0))
	}
	if err := s.ApplyMirror(wire.ShardMirror{Op: "Rename", File: 0}); err == nil {
		t.Fatal("unknown mirror op accepted")
	}
}

// TestReplicatedHandoffReplacesHolders: a handoff entry becomes its
// file's holder set on the receiver — dropping a holder removed while the
// receiver was away — and registers the RMs the receiver never saw first.
func TestReplicatedHandoffReplacesHolders(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := NewShardMember(0, NewRing(1), 1, NewShardLiveness(1, LivenessConfig{}))
	s.SetMetrics(NewMetrics(reg))
	s.RegisterRM(info(1), []ids.FileID{0, 1})
	s.RegisterRM(info(2), []ids.FileID{0})
	n, err := s.ApplyHandoff(wire.ShardHandoff{
		Direction: "heal",
		Infos:     []ecnp.RMInfo{info(1), info(2), info(3)},
		Entries: []wire.ShardEntry{
			{File: 0, RMs: []ids.RMID{2, 3}},
			{File: 1, RMs: []ids.RMID{1}},
		},
	})
	if err != nil || n != 1 {
		t.Fatalf("ApplyHandoff = %d, %v; want 1 new holder", n, err)
	}
	if hs := s.Replicas(0); !slices.Equal(hs, []ids.RMID{2, 3}) {
		t.Fatalf("file 0 holders %v, want the pushed [2 3]", hs)
	}
	if got := len(s.AllRMs()); got != 3 {
		t.Fatalf("receiver knows %d RMs, want 3", got)
	}
	if !strings.Contains(exposition(t, reg), `dfsqos_mm_shard_handoff_entries_total{direction="heal"} 1`) {
		t.Fatal("heal entry not counted")
	}
	if _, err := s.ApplyHandoff(wire.ShardHandoff{Entries: []wire.ShardEntry{{File: 0, RMs: []ids.RMID{9}}}}); err == nil {
		t.Fatal("handoff naming an unregistered holder accepted")
	}
}
