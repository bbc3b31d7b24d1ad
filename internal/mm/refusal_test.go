package mm_test

import (
	"errors"
	"strings"
	"testing"

	"dfsqos/internal/ecnp"
	"dfsqos/internal/ids"
	"dfsqos/internal/live"
	"dfsqos/internal/mm"
	"dfsqos/internal/telemetry"
	"dfsqos/internal/units"
)

// shardGroup is a three-member, R = 2 shard group as one test sees it:
// its mapper, its members' telemetry (nil for the in-process group, which
// binds none), and a way to make one member's replica map diverge behind
// the group's back.
type shardGroup struct {
	mapper ecnp.Mapper
	reg    *telemetry.Registry
	member func(i int) *mm.Manager
}

// TestShardedRefusalReasonsSurvive: the reason reaches the caller through
// the shard group too — bare from the validating owner, and under the
// "%w" wrap when a mirror owner disagrees with it — in one process and
// over TCP alike, where the mirror's refusal crosses two sockets.
func TestShardedRefusalReasonsSurvive(t *testing.T) {
	t.Run("in-process", func(t *testing.T) {
		m := mm.NewShardedReplicated(3, 2)
		refusalsSurvive(t, shardGroup{mapper: m, member: m.Shard})
	})
	t.Run("tcp", func(t *testing.T) {
		reg := telemetry.NewRegistry()
		l, err := live.NewLocal(live.LocalSpec{ShardGroup: true, MM: live.MMSpec{Registry: reg}})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		refusalsSurvive(t, shardGroup{
			mapper: l.Mapper,
			reg:    reg,
			member: func(i int) *mm.Manager { return l.Shards[i].Manager },
		})
	})
}

func refusalsSurvive(t *testing.T, g shardGroup) {
	for id := ids.RMID(1); id <= 3; id++ {
		var files []ids.FileID
		if id == 1 {
			files = []ids.FileID{0, 1, 2, 3, 4, 5}
		}
		if err := g.mapper.RegisterRM(ecnp.RMInfo{ID: id, Capacity: units.Mbps(18), StorageBytes: 16 * units.GB}, files); err != nil {
			t.Fatal(err)
		}
	}

	// Between them the six files are validated by more than one shard.
	ring := mm.NewRing(3)
	primaries := map[int]bool{}
	for f := ids.FileID(0); f < 6; f++ {
		primaries[ring.SuccessorsOfFile(int64(f), 2)[0]] = true
		if err := g.mapper.BeginReplication(f, 2, 2); err != nil {
			t.Fatalf("%v: %v", f, err)
		}
		if err := g.mapper.BeginReplication(f, 3, 2); !errors.Is(err, ecnp.ErrReplicaCap) {
			t.Fatalf("%v past its cap: %v, want ErrReplicaCap", f, err)
		}
		if err := g.mapper.EndReplication(f, 3, false); !errors.Is(err, ecnp.ErrNoPendingReplication) {
			t.Fatalf("%v: abort without reservation: %v, want ErrNoPendingReplication", f, err)
		}
	}
	if len(primaries) < 2 {
		t.Fatalf("all six files validate on one shard (%v): pick files that spread", primaries)
	}
	// Counted once each, by whichever shard validated the write: the
	// members' series sum to six.
	if g.reg != nil {
		var text strings.Builder
		if err := g.reg.WritePrometheus(&text); err != nil {
			t.Fatal(err)
		}
		if want := `dfsqos_mm_replication_refusals_total{reason="cap"} 6`; !strings.Contains(text.String(), want) {
			t.Fatalf("exposition missing %q after six refusals over three shards:\n%s", want, text.String())
		}
	}

	// Make the mirror owner of file 0 diverge: it alone believes RM3
	// holds the file, so the primary accepts and the mirror refuses.
	if err := g.member(ring.SuccessorsOfFile(0, 2)[1]).AddReplica(0, 3); err != nil {
		t.Fatal(err)
	}
	err := g.mapper.BeginReplication(0, 3, 0)
	if !errors.Is(err, ecnp.ErrAlreadyHolds) {
		t.Fatalf("mirror refusal: %v, want ErrAlreadyHolds under the mirror wrap", err)
	}
	if err == ecnp.ErrAlreadyHolds {
		t.Fatal("mirror refusal arrived bare: the wrap naming the shard is gone")
	}
}
