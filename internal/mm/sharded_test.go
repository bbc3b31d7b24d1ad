package mm

import (
	"testing"
	"testing/quick"

	"dfsqos/internal/ids"
)

func TestRingDeterministicAndBalanced(t *testing.T) {
	a := NewRing(4)
	b := NewRing(4)
	counts := make([]int, 4)
	for f := int64(0); f < 4000; f++ {
		sa, sb := a.OwnerOfFile(f), b.OwnerOfFile(f)
		if sa != sb {
			t.Fatalf("rings disagree on file %d: %d vs %d", f, sa, sb)
		}
		counts[sa]++
	}
	for s, c := range counts {
		// 4000 keys over 4 shards: expect ~1000 each; vnodes keep the
		// imbalance bounded.
		if c < 500 || c > 1700 {
			t.Errorf("shard %d owns %d of 4000 keys; ring unbalanced: %v", s, c, counts)
		}
	}
}

func TestRingSingleShardOwnsAll(t *testing.T) {
	r := NewRing(1)
	for f := int64(0); f < 100; f++ {
		if r.OwnerOfFile(f) != 0 {
			t.Fatal("single-shard ring routed away from shard 0")
		}
	}
}

func TestRingPanicsOnZeroShards(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewRing(0) did not panic")
		}
	}()
	NewRing(0)
}

func TestShardedRegisterPartitionsFiles(t *testing.T) {
	m := NewSharded(4)
	files := make([]ids.FileID, 100)
	for i := range files {
		files[i] = ids.FileID(i)
	}
	if err := m.RegisterRM(info(1), files); err != nil {
		t.Fatal(err)
	}
	// Every file is findable through the sharded front.
	for _, f := range files {
		holders := m.Lookup(f)
		if len(holders) != 1 || holders[0] != 1 {
			t.Fatalf("Lookup(%v) = %v", f, holders)
		}
	}
	// Files are spread across shards, not piled on one.
	nonEmpty := 0
	total := 0
	for i := 0; i < len(m.members); i++ {
		n := len(m.Shard(i).FilesOn(1))
		total += n
		if n > 0 {
			nonEmpty++
		}
	}
	if total != 100 {
		t.Fatalf("shards hold %d files total, want 100", total)
	}
	if nonEmpty < 3 {
		t.Fatalf("only %d shards hold files; partitioning broken", nonEmpty)
	}
	// The resource list is replicated to every shard.
	for i := 0; i < len(m.members); i++ {
		if len(m.Shard(i).RMs()) != 1 {
			t.Fatalf("shard %d missing the RM registration", i)
		}
	}
}

func TestShardedMapperSemanticsMatchSingle(t *testing.T) {
	single := New()
	sharded := NewSharded(3)
	setup := func(reg func(id ids.RMID, files []ids.FileID)) {
		reg(1, []ids.FileID{0, 1, 2})
		reg(2, []ids.FileID{1, 2, 3})
		reg(3, []ids.FileID{0, 3})
	}
	setup(func(id ids.RMID, files []ids.FileID) { single.RegisterRM(info(id), files) })
	setup(func(id ids.RMID, files []ids.FileID) { sharded.RegisterRM(info(id), files) })

	for f := ids.FileID(0); f < 5; f++ {
		a, b := single.Lookup(f), sharded.Lookup(f)
		if len(a) != len(b) {
			t.Fatalf("Lookup(%v): single %v, sharded %v", f, a, b)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("Lookup(%v): single %v, sharded %v", f, a, b)
			}
		}
		if single.ReplicaCount(f) != sharded.ReplicaCount(f) {
			t.Fatalf("ReplicaCount(%v) differs", f)
		}
		wa, wb := single.RMsWithout(f), sharded.RMsWithout(f)
		if len(wa) != len(wb) {
			t.Fatalf("RMsWithout(%v): single %v, sharded %v", f, wa, wb)
		}
	}
	fa, fb := single.FilesOn(2), sharded.FilesOn(2)
	if len(fa) != len(fb) {
		t.Fatalf("FilesOn: single %v, sharded %v", fa, fb)
	}
	for i := range fa {
		if fa[i] != fb[i] {
			t.Fatalf("FilesOn order: single %v, sharded %v", fa, fb)
		}
	}
}

func TestShardedAddRemoveReplica(t *testing.T) {
	m := NewSharded(2)
	m.RegisterRM(info(1), []ids.FileID{7})
	m.RegisterRM(info(2), nil)
	if err := m.AddReplica(7, 2); err != nil {
		t.Fatal(err)
	}
	if err := m.AddReplica(7, 2); err == nil {
		t.Fatal("duplicate AddReplica accepted")
	}
	if got := m.ReplicaCount(7); got != 2 {
		t.Fatalf("ReplicaCount = %d", got)
	}
	if err := m.RemoveReplica(7, 1); err != nil {
		t.Fatal(err)
	}
	if err := m.RemoveReplica(7, 2); err == nil {
		t.Fatal("last replica removed")
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestShardedValidateCatchesDivergentResourceLists(t *testing.T) {
	m := NewSharded(2)
	m.RegisterRM(info(1), nil)
	// Corrupt one shard directly: register an RM only there.
	m.Shard(1).RegisterRM(info(9), nil)
	if err := m.Validate(); err == nil {
		t.Fatal("divergent resource lists passed validation")
	}
}

// Property: for any file set, the sharded lookup agrees with a single
// manager given identical registrations.
func TestShardedEquivalenceProperty(t *testing.T) {
	f := func(rawFiles []uint16, shardsRaw uint8) bool {
		shards := int(shardsRaw%6) + 1
		single := New()
		sharded := NewSharded(shards)
		files := make([]ids.FileID, 0, len(rawFiles))
		for _, rf := range rawFiles {
			files = append(files, ids.FileID(rf%500))
		}
		// Dedup: RegisterRM would reject duplicates within one call.
		seen := map[ids.FileID]bool{}
		uniq := files[:0]
		for _, f := range files {
			if !seen[f] {
				seen[f] = true
				uniq = append(uniq, f)
			}
		}
		single.RegisterRM(info(1), uniq)
		sharded.RegisterRM(info(1), uniq)
		for _, f := range uniq {
			if single.ReplicaCount(f) != sharded.ReplicaCount(f) {
				return false
			}
		}
		return sharded.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
