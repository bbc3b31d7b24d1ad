package mm

import (
	"slices"
	"testing"

	"dfsqos/internal/ids"
)

// memberSum sums what read counts over every member of m.
func memberSum(m *ShardedManager, read func(*ShardMember) uint64) (n uint64) {
	for _, s := range m.members {
		n += read(s)
	}
	return n
}

// TestReplicatedWritesMirrorToOwners checks the R-way write path: every
// registered mapping lands on each live member of its owner set, reads
// come from the first live owner, and the mirror counter ticks.
func TestReplicatedWritesMirrorToOwners(t *testing.T) {
	m := NewShardedReplicated(3, 2)
	files := make([]ids.FileID, 60)
	for i := range files {
		files[i] = ids.FileID(i)
	}
	if err := m.RegisterRM(info(1), files); err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		owners := m.ownersOf(f)
		if len(owners) != 2 {
			t.Fatalf("owner set of %v = %v, want 2 shards", f, owners)
		}
		for _, o := range owners {
			if hs := m.Shard(o).Lookup(f); len(hs) != 1 || hs[0] != 1 {
				t.Fatalf("shard %d missing mirrored mapping of %v: %v", o, f, hs)
			}
		}
		// Non-owners hold nothing: replication is R-way, not broadcast.
		for s := 0; s < len(m.members); s++ {
			if !slices.Contains(owners, s) && len(m.Shard(s).Lookup(f)) != 0 {
				t.Fatalf("non-owner shard %d holds %v", s, f)
			}
		}
	}
	// A replica-map mutation mirrors too.
	m.RegisterRM(info(2), nil)
	if err := m.AddReplica(files[0], 2); err != nil {
		t.Fatal(err)
	}
	for _, o := range m.ownersOf(files[0]) {
		if got := len(m.Shard(o).Lookup(files[0])); got != 2 {
			t.Fatalf("shard %d sees %d holders after mirrored AddReplica, want 2", o, got)
		}
	}
	if memberSum(m, func(s *ShardMember) uint64 { return s.mirrorsOK.Load() }) == 0 {
		t.Fatal("no mirror writes counted")
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestReplicatedKillShardFailsOver is the in-process failover drill: with
// R = 2 a dead primary's keyspace stays readable through the surviving
// owner, the takeover handoff restores a second live copy, writes keep
// mirroring, and revival heals the corpse back to full ownership.
func TestReplicatedKillShardFailsOver(t *testing.T) {
	m := NewShardedReplicated(3, 2)
	files := make([]ids.FileID, 90)
	for i := range files {
		files[i] = ids.FileID(i)
	}
	if err := m.RegisterRM(info(1), files); err != nil {
		t.Fatal(err)
	}
	m.RegisterRM(info(2), nil)

	victim := m.ownersOf(files[0])[0]
	moved := m.KillShard(victim)
	if moved == 0 {
		t.Fatal("takeover handoff moved nothing")
	}
	if m.Health().Alive(victim) || m.Health().LiveCount() != 2 {
		t.Fatalf("victim alive=%v live=%d after kill", m.Health().Alive(victim), m.Health().LiveCount())
	}
	if m.KillShard(victim) != 0 {
		t.Fatal("re-killing a dead shard handed off again")
	}
	// Every mapping is still readable, including the victim's keyspace.
	for _, f := range files {
		if hs := m.Lookup(f); len(hs) != 1 || hs[0] != 1 {
			t.Fatalf("Lookup(%v) with shard %d dead = %v", f, victim, hs)
		}
	}
	// The takeover target now holds a live copy of each mapping whose
	// owner set lost the victim, so R live replicas survive.
	for _, f := range files {
		owners := m.ownersOf(f)
		if !slices.Contains(owners, victim) {
			continue
		}
		liveCopies := 0
		for s := 0; s < len(m.members); s++ {
			if m.Health().Alive(s) && len(m.Shard(s).Lookup(f)) > 0 {
				liveCopies++
			}
		}
		if liveCopies < 2 {
			t.Fatalf("file %v has %d live copies after takeover, want >= 2", f, liveCopies)
		}
	}
	// Writes during the outage apply to the surviving owners.
	if err := m.AddReplica(files[0], 2); err != nil {
		t.Fatalf("write during outage: %v", err)
	}
	if got := m.ReplicaCount(files[0]); got != 2 {
		t.Fatalf("ReplicaCount during outage = %d, want 2", got)
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("validate during outage: %v", err)
	}
	if got := memberSum(m, func(s *ShardMember) uint64 { return s.takeoverEntries.Load() }); got == 0 {
		t.Fatal("takeover entries not counted")
	}

	// Revival heals: the shard re-owns its keyspace — including the write
	// it missed — and bumps its epoch.
	healed := m.ReviveShard(victim)
	if healed == 0 {
		t.Fatal("heal handoff moved nothing")
	}
	if m.ReviveShard(victim) != 0 {
		t.Fatal("re-reviving a live shard healed again")
	}
	if m.Health().Epoch(victim) != 1 {
		t.Fatalf("victim epoch = %d, want 1", m.Health().Epoch(victim))
	}
	if hs := m.Shard(victim).Lookup(files[0]); len(hs) != 2 {
		t.Fatalf("revived shard sees %v for %v, want the missed write too", hs, files[0])
	}
	for _, f := range files {
		if !slices.Contains(m.ownersOf(f), victim) {
			continue
		}
		if len(m.Shard(victim).Lookup(f)) == 0 {
			t.Fatalf("revived shard still missing %v", f)
		}
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("validate after heal: %v", err)
	}
	if got := memberSum(m, func(s *ShardMember) uint64 { return s.healEntries.Load() }); got == 0 {
		t.Fatal("heal entries not counted")
	}
}

// TestReplicatedHealLearnsNewRMs kills a shard, registers a new RM during
// the outage, and checks the heal handoff teaches the revived shard the
// RM it never saw — without pruning the files of RMs it already knew.
func TestReplicatedHealLearnsNewRMs(t *testing.T) {
	m := NewShardedReplicated(3, 2)
	files := []ids.FileID{0, 1, 2, 3, 4, 5, 6, 7}
	if err := m.RegisterRM(info(1), files); err != nil {
		t.Fatal(err)
	}
	m.KillShard(2)
	if err := m.RegisterRM(info(9), nil); err != nil {
		t.Fatal(err)
	}
	if err := m.AddReplica(files[0], 9); err != nil {
		t.Fatal(err)
	}
	m.ReviveShard(2)
	found := false
	for _, rm := range m.Shard(2).RMs() {
		if rm.ID == 9 {
			found = true
		}
	}
	if !found {
		t.Fatal("revived shard never learned RM 9")
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestUnreplicatedKillConfinesOutage pins the R = 1 degenerate case: a
// dead shard's keyspace is unreachable (empty lookups, write errors) but
// the other shards' files are untouched — the single-MM failure mode
// confined to 1/N of the keyspace.
func TestUnreplicatedKillConfinesOutage(t *testing.T) {
	m := NewShardedReplicated(3, 1)
	files := make([]ids.FileID, 60)
	for i := range files {
		files[i] = ids.FileID(i)
	}
	if err := m.RegisterRM(info(1), files); err != nil {
		t.Fatal(err)
	}
	if m.KillShard(0) != 0 {
		t.Fatal("R=1 kill found a surviving owner to hand off from")
	}
	for _, f := range files {
		owned := m.ownersOf(f)[0] == 0
		hs := m.Lookup(f)
		if owned && len(hs) != 0 {
			t.Fatalf("dead shard's file %v still resolves: %v", f, hs)
		}
		if !owned && len(hs) != 1 {
			t.Fatalf("survivor's file %v lost: %v", f, hs)
		}
		if owned {
			if err := m.AddReplica(f, 1); err == nil {
				t.Fatalf("write to dead keyspace of %v accepted", f)
			}
		}
	}
	// Revival restores the keyspace from... nothing to restore from at
	// R=1; the shard still holds its pre-kill state in-process.
	m.ReviveShard(0)
	for _, f := range files {
		if len(m.Lookup(f)) != 1 {
			t.Fatalf("file %v unreachable after revival", f)
		}
	}
}

// TestReplicatedFullOwnerSetDead kills both owners of a file (R = 2 of 4)
// and checks reads degrade to empty rather than panicking, then heal on
// revival.
func TestReplicatedFullOwnerSetDead(t *testing.T) {
	m := NewShardedReplicated(4, 2)
	files := make([]ids.FileID, 120)
	for i := range files {
		files[i] = ids.FileID(i)
	}
	if err := m.RegisterRM(info(1), files); err != nil {
		t.Fatal(err)
	}
	target := files[0]
	owners := m.ownersOf(target)
	// Kill the primary first (its takeover re-replicates to a live
	// non-owner), then the successor: the owner set is fully dead but the
	// takeover copy keeps the read path alive for this file.
	m.KillShard(owners[0])
	m.KillShard(owners[1])
	if hs := m.Lookup(target); len(hs) != 0 {
		// The readShard walk only consults owners; a fully-dead owner set
		// answers empty even though a takeover copy exists elsewhere.
		t.Fatalf("Lookup with whole owner set dead = %v, want empty", hs)
	}
	m.ReviveShard(owners[0])
	if hs := m.Lookup(target); len(hs) != 1 {
		t.Fatalf("Lookup after revival = %v, want 1 holder", hs)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}
