package live

import (
	"fmt"
	"io"
	"testing"
	"time"

	"dfsqos/internal/dfsc"
	"dfsqos/internal/ids"
	"dfsqos/internal/qos"
	"dfsqos/internal/replication"
	"dfsqos/internal/rng"
	"dfsqos/internal/selection"
	"dfsqos/internal/testenv"
	"dfsqos/internal/units"
)

// The live allocation ceilings count client and servers together: every
// daemon of the loopback cluster runs in the test's process.

// TestLiveNegotiateAllocations holds one whole negotiation over loopback
// TCP — AccessHeld (lookup at the MM, one CFP per holder fanned out
// concurrently, the Open at the winner) plus the release's Close — to
// 8 × holders + 40 allocations, at 3, 8 and 16 holders of the requested
// file. "cold" has no metadata lease, so every open pays the lookup round
// trip; "hot" arms a lease far longer than the test, so the lookup is
// answered from the client's cache. Soft admission on fat RMs: nothing is
// refused and the data plane stays idle. What a negotiation costs is four
// or so per holder (CFP and Bid boxed on each side of the socket) and some
// twenty for the tables, spans and release; a context built per call
// trips the ceiling at every width.
func TestLiveNegotiateAllocations(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	for _, holders := range []int{3, 8, 16} {
		t.Run(fmt.Sprintf("H%d", holders), func(t *testing.T) {
			caps := make([]units.BytesPerSec, holders)
			rms := make([]ids.RMID, holders)
			for i := range caps {
				caps[i] = units.Mbps(1000)
				rms[i] = ids.RMID(i + 1)
			}
			lc := startLiveCluster(t, caps,
				map[ids.FileID][]ids.RMID{0: rms},
				replication.DefaultConfig(replication.Static()), 100)
			defer lc.shutdown()
			ceiling := float64(8*holders + 40)
			for _, lease := range []struct {
				name string
				ttl  time.Duration
			}{{"cold", 0}, {"hot", time.Hour}} {
				client, err := dfsc.New(dfsc.Options{
					ID:        1,
					Mapper:    lc.mmCli,
					Directory: lc.dir,
					Scheduler: lc.sched,
					Catalog:   lc.cat,
					Policy:    selection.Full,
					Scenario:  qos.Soft,
					Rand:      rng.New(11),
					Fanout:    dfsc.Fanout{Concurrent: true},
					MetaTTL:   lease.ttl,
				})
				if err != nil {
					t.Fatal(err)
				}
				negotiate := func() {
					out, release := client.AccessHeld(0)
					if !out.OK {
						t.Fatalf("%s: open refused: %s", lease.name, out.Reason)
					}
					release()
				}
				negotiate() // dial every pool, fill the lease
				allocs := testing.AllocsPerRun(50, negotiate)
				t.Logf("%s: %.0f allocations per negotiation", lease.name, allocs)
				if allocs > ceiling {
					t.Errorf("%s: a negotiation allocates %.0f times, want at most %.0f", lease.name, allocs, ceiling)
				}
			}
		})
	}
}

// TestLiveStripedReadAllocations holds one whole warm K4 striped read —
// some fifteen ranges over four RMs, the ramp's opening ranges among
// them — to 120 allocations. Its negotiation is most of that: a lookup,
// then a CFP, an Open and a Close per lane at two payload boxings each,
// the bid tables, the spans and the four lane goroutines. The segment
// path itself (slot ring, pooled segment buffers, slice writer, pooled
// server chunk buffer and FileEnd) adds nothing per range; dfsc's
// TestReadStripedSegmentPathDoesNotAllocate holds that range by range.
func TestLiveStripedReadAllocations(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	const k = 4
	caps := make([]units.BytesPerSec, k)
	holders := make([]ids.RMID, k)
	for i := range caps {
		caps[i] = units.Mbps(8000)
		holders[i] = ids.RMID(i + 1)
	}
	lc := startLiveCluster(t, caps,
		map[ids.FileID][]ids.RMID{0: holders},
		replication.DefaultConfig(replication.Static()), 100)
	defer lc.shutdown()
	client, err := dfsc.New(dfsc.Options{
		ID:        1,
		Mapper:    lc.mmCli,
		Directory: lc.dir,
		Scheduler: lc.sched,
		Catalog:   lc.cat,
		Policy:    selection.RemOnly,
		Scenario:  qos.Soft,
		Rand:      rng.New(9),
	})
	if err != nil {
		t.Fatal(err)
	}
	size := int64(lc.cat.File(0).Size)
	read := func() {
		res, err := client.ReadStriped(lc.dir, 0, io.Discard, dfsc.StripeConfig{Width: k, SegmentBytes: size / (3 * k)})
		if err != nil {
			t.Fatal(err)
		}
		if res.Bytes != size || len(res.RMs) != k {
			t.Fatalf("striped %d of %d bytes over %v, want all of it over %d RMs", res.Bytes, size, res.RMs, k)
		}
	}
	read() // dial every pool and warm the read engine's pools
	allocs := testing.AllocsPerRun(20, read)
	t.Logf("%.0f allocations per K%d read of %d bytes", allocs, k, size)
	if allocs > 120 {
		t.Errorf("a K%d striped read allocates %.0f times, want at most 120", k, allocs)
	}
}
