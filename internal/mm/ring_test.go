package mm

import (
	"slices"
	"testing"
)

// TestRingSingleShardSuccessors pins the degenerate ring: one shard owns
// every key, and any successor-set request collapses to [0] no matter how
// many replicas are asked for.
func TestRingSingleShardSuccessors(t *testing.T) {
	r := NewRing(1)
	for f := int64(0); f < 50; f++ {
		for n := 1; n <= 5; n++ {
			succ := r.SuccessorsOfFile(f, n)
			if len(succ) != 1 || succ[0] != 0 {
				t.Fatalf("SuccessorsOfFile(%d, %d) = %v, want [0]", f, n, succ)
			}
		}
	}
	if got := r.SuccessorsOfFile(1, 0); got != nil {
		t.Fatalf("Successors with n=0 = %v, want nil", got)
	}
	if order := r.Order(); len(order) != 1 || order[0] != 0 {
		t.Fatalf("Order() = %v, want [0]", order)
	}
}

// TestRingRedistributionBound is the consistent-hashing contract: growing
// the ring from n to n+1 shards moves only the keys the new shard now
// owns — roughly 1/(n+1) of them — and every moved key moves TO the new
// shard, never between survivors. Shrinking is the mirror image: only the
// departed shard's keys move. Without this bound a membership change
// would re-replicate nearly the whole keyspace instead of one slice.
func TestRingRedistributionBound(t *testing.T) {
	const keys = 8000
	small, big := NewRing(4), NewRing(5)
	moved := 0
	for f := int64(0); f < keys; f++ {
		before, after := small.OwnerOfFile(f), big.OwnerOfFile(f)
		if before == after {
			continue
		}
		moved++
		// Join: a key may only move to the joining shard (index 4).
		if after != 4 {
			t.Fatalf("file %d moved %d -> %d on join; only moves to the new shard are allowed", f, before, after)
		}
	}
	// Expect ~keys/5 moved; allow 2x slack for vnode imbalance, and
	// require at least some movement (the new shard must own keys).
	if moved == 0 || moved > 2*keys/5 {
		t.Fatalf("join moved %d of %d keys, want (0, %d]", moved, keys, 2*keys/5)
	}

	// Leave (5 -> 4): only keys the departed shard 4 owned may move.
	for f := int64(0); f < keys; f++ {
		before, after := big.OwnerOfFile(f), small.OwnerOfFile(f)
		if before != after && before != 4 {
			t.Fatalf("file %d moved %d -> %d on leave; only the departed shard's keys may move", f, before, after)
		}
	}
}

// TestRingSuccessorWraparound pins the top-of-ring wrap: a key above every
// ring point owns the same successor walk as key zero, and the walk always
// yields distinct shards with the primary first.
func TestRingSuccessorWraparound(t *testing.T) {
	r := NewRing(3)
	top := r.Successors(^uint64(0), 3)
	zero := r.Successors(0, 3)
	if len(top) != 3 || len(zero) != 3 {
		t.Fatalf("successor walks truncated: top=%v zero=%v", top, zero)
	}
	for i := range top {
		if top[i] != zero[i] {
			t.Fatalf("wraparound walk %v differs from key-zero walk %v", top, zero)
		}
	}
	if top[0] != r.Owner(^uint64(0)) {
		t.Fatalf("primary %d is not Owner %d", top[0], r.Owner(^uint64(0)))
	}
}

// TestRingSuccessorsDistinctAndClamped checks the replica-set shape over
// many keys: no duplicate shards, the primary leads, and asking for more
// successors than shards returns every shard exactly once.
func TestRingSuccessorsDistinctAndClamped(t *testing.T) {
	r := NewRing(4)
	for f := int64(0); f < 500; f++ {
		succ := r.SuccessorsOfFile(f, 2)
		if len(succ) != 2 || succ[0] == succ[1] {
			t.Fatalf("SuccessorsOfFile(%d, 2) = %v, want 2 distinct shards", f, succ)
		}
		if succ[0] != r.OwnerOfFile(f) {
			t.Fatalf("file %d: primary %d != owner %d", f, succ[0], r.OwnerOfFile(f))
		}
		all := r.SuccessorsOfFile(f, 9)
		if len(all) != 4 {
			t.Fatalf("over-asked successor set %v, want all 4 shards", all)
		}
		seen := map[int]bool{}
		for _, s := range all {
			if seen[s] {
				t.Fatalf("duplicate shard in successor walk %v", all)
			}
			seen[s] = true
		}
		// The append form leaves what dst held alone, shard ids
		// included, and appends the same set.
		prefix := []int{3, 2, 1, 0}
		if got := r.appendSuccessors(prefix, mix64(uint64(f)), 9); !slices.Equal(got, append(slices.Clip(prefix), all...)) {
			t.Fatalf("appendSuccessors(%v, file %d, 9) = %v, want the prefix and %v", prefix, f, got, all)
		}
	}
}
