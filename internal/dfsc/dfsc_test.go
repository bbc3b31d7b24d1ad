package dfsc

import (
	"testing"

	"dfsqos/internal/catalog"
	"dfsqos/internal/ecnp"
	"dfsqos/internal/history"
	"dfsqos/internal/ids"
	"dfsqos/internal/mm"
	"dfsqos/internal/qos"
	"dfsqos/internal/replication"
	"dfsqos/internal/rm"
	"dfsqos/internal/rng"
	"dfsqos/internal/selection"
	"dfsqos/internal/simtime"
	"dfsqos/internal/units"
)

// harness wires a small cluster with an explicit catalog for client tests.
type harness struct {
	sched   *simtime.Scheduler
	mapper  *mm.Manager
	dir     *ecnp.StaticDirectory
	rms     map[ids.RMID]*rm.RM
	catalog *catalog.Catalog
}

func newHarness(t testing.TB, caps map[ids.RMID]units.BytesPerSec, holders map[ids.FileID][]ids.RMID) *harness {
	t.Helper()
	cfg := catalog.DefaultConfig()
	cfg.NumFiles = 8
	cat, err := catalog.Generate(cfg, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	h := &harness{
		sched:   simtime.NewScheduler(),
		mapper:  mm.New(),
		dir:     new(ecnp.StaticDirectory),
		rms:     make(map[ids.RMID]*rm.RM),
		catalog: cat,
	}
	adapter := ecnp.SimScheduler{S: h.sched}
	master := rng.New(11)
	fileSets := make(map[ids.RMID]map[ids.FileID]rm.FileMeta)
	for f, hs := range holders {
		meta := cat.File(f)
		for _, id := range hs {
			if fileSets[id] == nil {
				fileSets[id] = make(map[ids.FileID]rm.FileMeta)
			}
			fileSets[id][f] = rm.FileMeta{Bitrate: meta.Bitrate, Size: meta.Size, DurationSec: meta.DurationSec}
		}
	}
	for id, capBW := range caps {
		node, err := rm.New(rm.Options{
			Info:        ecnp.RMInfo{ID: id, Capacity: capBW, StorageBytes: 16 * units.GB},
			Scheduler:   adapter,
			Mapper:      h.mapper,
			History:     history.DefaultConfig(),
			Replication: replication.DefaultConfig(replication.Static()),
			Rand:        master.Split(id.String()),
			Files:       fileSets[id],
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := node.Register(); err != nil {
			t.Fatal(err)
		}
		h.rms[id] = node
		h.dir.Set(id, node)
	}
	for _, node := range h.rms {
		node.SetDirectory(h.dir)
	}
	return h
}

func (h *harness) client(t testing.TB, pol selection.Policy, scen qos.Scenario) *Client {
	t.Helper()
	c, err := New(Options{
		ID:        1,
		Mapper:    h.mapper,
		Directory: h.dir,
		Scheduler: ecnp.SimScheduler{S: h.sched},
		Catalog:   h.catalog,
		Policy:    pol,
		Scenario:  scen,
		Rand:      rng.New(5),
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Fatal("empty options accepted")
	}
}

func TestAccessHappyPath(t *testing.T) {
	h := newHarness(t,
		map[ids.RMID]units.BytesPerSec{1: units.Mbps(18), 2: units.Mbps(18)},
		map[ids.FileID][]ids.RMID{0: {1, 2}})
	c := h.client(t, selection.RemOnly, qos.Soft)
	out := c.Access(0)
	if !out.OK {
		t.Fatalf("access failed: %s", out.Reason)
	}
	if out.RM != 1 && out.RM != 2 {
		t.Fatalf("served by %v", out.RM)
	}
	served := h.rms[out.RM]
	if served.Allocated() != h.catalog.File(0).Bitrate {
		t.Fatalf("allocated %v, want the file bitrate", served.Allocated())
	}
	// The reservation is released after the playback duration.
	h.sched.Run()
	if served.Allocated() != 0 {
		t.Fatalf("allocated %v after playback, want 0", served.Allocated())
	}
	st := c.Stats()
	if st.Requests != 1 || st.Failed != 0 || st.Completed != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestAccessNoReplica(t *testing.T) {
	h := newHarness(t, map[ids.RMID]units.BytesPerSec{1: units.Mbps(18)}, nil)
	c := h.client(t, selection.RemOnly, qos.Soft)
	out := c.Access(0)
	if out.OK {
		t.Fatal("access to unplaced file succeeded")
	}
	st := c.Stats()
	if st.NoReplica != 1 || st.Failed != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRemOnlyPrefersIdleRM(t *testing.T) {
	h := newHarness(t,
		map[ids.RMID]units.BytesPerSec{1: units.Mbps(18), 2: units.Mbps(18)},
		map[ids.FileID][]ids.RMID{0: {1, 2}})
	// Pre-load RM1 so RM2 has more remaining bandwidth.
	h.rms[1].Open(ecnp.OpenRequest{Request: 999, Bitrate: units.Mbps(10), DurationSec: 10000})
	c := h.client(t, selection.RemOnly, qos.Soft)
	for i := 0; i < 3; i++ {
		out := c.Access(0)
		if !out.OK || out.RM != 2 {
			t.Fatalf("access %d served by %v, want idle RM2", i, out.RM)
		}
		h.rms[2].Close(out.Request)
	}
}

func TestFirmFallbackToNextRanked(t *testing.T) {
	h := newHarness(t,
		map[ids.RMID]units.BytesPerSec{1: units.Mbps(18), 2: units.Mbps(18)},
		map[ids.FileID][]ids.RMID{0: {1, 2}})
	bitrate := h.catalog.File(0).Bitrate
	// Fill RM2 (the would-be winner) to the brim, leaving room on RM1.
	h.rms[2].Open(ecnp.OpenRequest{Request: 999, Bitrate: units.Mbps(18), DurationSec: 10000})
	h.rms[1].Open(ecnp.OpenRequest{Request: 998, Bitrate: units.Mbps(18) - bitrate, DurationSec: 10000})
	c := h.client(t, selection.RemOnly, qos.Firm)
	out := c.Access(0)
	if !out.OK {
		t.Fatalf("firm access failed despite capacity on RM1: %s", out.Reason)
	}
	if out.RM != 1 {
		t.Fatalf("served by %v, want fallback RM1", out.RM)
	}
}

func TestFirmFailsWhenAllFull(t *testing.T) {
	h := newHarness(t,
		map[ids.RMID]units.BytesPerSec{1: units.Mbps(18), 2: units.Mbps(18)},
		map[ids.FileID][]ids.RMID{0: {1, 2}})
	h.rms[1].Open(ecnp.OpenRequest{Request: 998, Bitrate: units.Mbps(17.9), DurationSec: 10000})
	h.rms[2].Open(ecnp.OpenRequest{Request: 999, Bitrate: units.Mbps(17.9), DurationSec: 10000})
	c := h.client(t, selection.RemOnly, qos.Firm)
	out := c.Access(0)
	if out.OK {
		t.Fatal("firm access admitted with no capacity anywhere")
	}
	st := c.Stats()
	if st.Failed != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// Soft access in the same state succeeds by over-allocating.
	c2 := h.client(t, selection.RemOnly, qos.Soft)
	if out := c2.Access(0); !out.OK {
		t.Fatalf("soft access failed: %s", out.Reason)
	}
}

func TestRandomPolicySpreads(t *testing.T) {
	h := newHarness(t,
		map[ids.RMID]units.BytesPerSec{1: units.Mbps(180), 2: units.Mbps(180), 3: units.Mbps(180)},
		map[ids.FileID][]ids.RMID{0: {1, 2, 3}})
	c := h.client(t, selection.Random, qos.Soft)
	counts := map[ids.RMID]int{}
	for i := 0; i < 300; i++ {
		out := c.Access(0)
		if !out.OK {
			t.Fatal("access failed")
		}
		counts[out.RM]++
		h.rms[out.RM].Close(out.Request)
	}
	for id, n := range counts {
		if n < 50 {
			t.Errorf("%v served only %d of 300 under random policy", id, n)
		}
	}
}

func TestRequestIDsUnique(t *testing.T) {
	h := newHarness(t,
		map[ids.RMID]units.BytesPerSec{1: units.Mbps(1800)},
		map[ids.FileID][]ids.RMID{0: {1}})
	c := h.client(t, selection.RemOnly, qos.Soft)
	seen := make(map[ids.RequestID]bool)
	for i := 0; i < 100; i++ {
		out := c.Access(0)
		if !out.OK {
			t.Fatal("access failed")
		}
		if seen[out.Request] {
			t.Fatalf("duplicate request id %v", out.Request)
		}
		seen[out.Request] = true
	}
}

// TestRequestIDsOfIncarnationsNeverCollide: two clients with one ID and
// different incarnations — two processes, or one restarted — mint
// disjoint request IDs, each carrying its incarnation in bits 52–62;
// incarnation 0 mints the IDs clients always did, and New refuses a
// client ID too wide for its 12 bits.
func TestRequestIDsOfIncarnationsNeverCollide(t *testing.T) {
	h := newHarness(t, map[ids.RMID]units.BytesPerSec{1: units.Mbps(18)}, nil)
	client := func(id ids.DFSCID, incarnation uint32) (*Client, error) {
		return New(Options{ID: id, Mapper: h.mapper, Directory: h.dir, Scheduler: ecnp.SimScheduler{S: h.sched},
			Catalog: h.catalog, Rand: rng.New(5), Incarnation: incarnation})
	}
	for _, pair := range [][2]uint32{{0, 1}, {1, 2}, {0, 2047}, {5, 5 + 2048*3 + 1}} {
		seen := make(map[ids.RequestID]uint32)
		for _, inc := range pair {
			c, err := client(7, inc)
			if err != nil {
				t.Fatal(err)
			}
			for range 1000 {
				id := c.nextRequestID(&c.stats.Requests)
				if other, dup := seen[id]; dup {
					t.Fatalf("incarnations %d and %d both minted %v", other, inc, id)
				}
				seen[id] = inc
				if got := uint32(id >> 52); got != inc%2048 {
					t.Fatalf("incarnation %d minted %v, whose bits 52–62 read %d", inc, id, got)
				}
				if id < 0 || (id>>40)&0xfff != 7 {
					t.Fatalf("incarnation %d minted %v, not client 7's", inc, id)
				}
			}
		}
	}
	c, err := client(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if id := c.nextRequestID(&c.stats.Requests); id != 3<<40|1 {
		t.Fatalf("incarnation 0 minted %v, want %v", id, ids.RequestID(3<<40|1))
	}
	for _, id := range []ids.DFSCID{-1, 4096} {
		if _, err := client(id, 0); err == nil {
			t.Errorf("New accepted client ID %d", id)
		}
	}
	if _, err := client(4095, 0); err != nil {
		t.Errorf("New refused client ID 4095: %v", err)
	}
}
