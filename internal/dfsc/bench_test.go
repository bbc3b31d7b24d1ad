package dfsc

import (
	"context"
	"testing"

	"dfsqos/internal/ecnp"
	"dfsqos/internal/ids"
	"dfsqos/internal/qos"
	"dfsqos/internal/rng"
	"dfsqos/internal/selection"
	"dfsqos/internal/testenv"
	"dfsqos/internal/units"
)

// TestNegotiateSerialAllocations is one simulated request as the DES
// issues it: lookup on an in-process MM, a serial CFP to each of the
// file's three in-process RMs, ranking, open, and the release. There is no
// transport under it, so what is left beside the three HandleCFP calls and
// the open is the client's own bookkeeping, held to 11 allocations.
func TestNegotiateSerialAllocations(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	h := newHarness(t,
		map[ids.RMID]units.BytesPerSec{1: units.Mbps(1800), 2: units.Mbps(1800), 3: units.Mbps(1800)},
		map[ids.FileID][]ids.RMID{0: {1, 2, 3}})
	c := h.client(t, selection.Full, qos.Soft)
	if avg := testing.AllocsPerRun(200, func() {
		out, release := c.AccessHeld(0)
		if !out.OK {
			t.Fatalf("access refused: %s", out.Reason)
		}
		release()
	}); avg > 11 {
		t.Errorf("a serial negotiation over 3 holders allocates %v times, want at most 11", avg)
	}
}

// BenchmarkCollectBidsConcurrent prices the concurrent fan-out mechanism
// alone: sixteen providers that bid at once from memory, so what is
// measured is handing sixteen CFPs to the bid workers and collecting
// sixteen bids — no transport, no RM. Allocations are the bid and provider
// tables and the reply channel; a worker started per CFP would add to them
// on every fan-out.
func BenchmarkCollectBidsConcurrent(b *testing.B) {
	b.Run("H16", func(b *testing.B) {
		const holders = 16
		dir := new(ecnp.StaticDirectory)
		ids16 := make([]ids.RMID, holders)
		log := &callLog{cfps: make(map[ids.RMID]int)}
		for i := range ids16 {
			id := ids.RMID(i + 1)
			ids16[i] = id
			dir.Set(id, &scriptProvider{id: id, rem: units.Mbps(float64(10 + i)), holds: true, log: log})
		}
		h := newHarness(b, nil, nil)
		c, err := New(Options{
			ID: 1, Mapper: listMapper{holders: ids16}, Directory: dir,
			Scheduler: ecnp.SimScheduler{S: h.sched}, Catalog: h.catalog,
			Policy: selection.Full, Scenario: qos.Soft, Rand: rng.New(5),
			Fanout: Fanout{Concurrent: true},
		})
		if err != nil {
			b.Fatal(err)
		}
		cfp := ecnp.CFP{Request: 1, File: 0, Bitrate: units.Mbps(2), DurationSec: 60}
		ctx := context.Background()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			bids, providers := c.collectBids(ctx, ids16, cfp)
			if len(bids) != holders || len(providers) != holders {
				b.Fatalf("collected %d bids from %d providers", len(bids), len(providers))
			}
		}
	})
}
