package dfsc

import (
	"testing"

	"dfsqos/internal/ecnp"
	"dfsqos/internal/ids"
	"dfsqos/internal/qos"
	"dfsqos/internal/rng"
	"dfsqos/internal/selection"
	"dfsqos/internal/units"
)

func TestStoreNewFile(t *testing.T) {
	// File 3 has no replicas; Store must place it on some RM and register
	// it with the MM.
	h := newHarness(t,
		map[ids.RMID]units.BytesPerSec{1: units.Mbps(18), 2: units.Mbps(18)},
		map[ids.FileID][]ids.RMID{0: {1, 2}})
	c := h.client(t, selection.RemOnly, qos.Firm)
	out := c.Store(3)
	if !out.OK {
		t.Fatalf("store failed: %s", out.Reason)
	}
	if !out.RM.Valid() {
		t.Fatal("no serving RM")
	}
	if !h.rms[out.RM].HasFile(3) {
		t.Fatalf("%v does not hold the stored file", out.RM)
	}
	holders := h.mapper.Lookup(3)
	if len(holders) != 1 || holders[0] != out.RM {
		t.Fatalf("MM holders = %v, want [%v]", holders, out.RM)
	}
	// The ingest reserves bandwidth until the write completes.
	if h.rms[out.RM].Allocated() != h.catalog.File(3).Bitrate {
		t.Fatalf("allocated %v during ingest", h.rms[out.RM].Allocated())
	}
	h.sched.Run()
	if h.rms[out.RM].Allocated() != 0 {
		t.Fatal("ingest reservation not released")
	}
	// The stored file is now readable through the normal path.
	read := c.Access(3)
	if !read.OK || read.RM != out.RM {
		t.Fatalf("read-after-store = %+v", read)
	}
}

func TestStorePrefersIdleRM(t *testing.T) {
	h := newHarness(t,
		map[ids.RMID]units.BytesPerSec{1: units.Mbps(18), 2: units.Mbps(18)},
		nil)
	h.rms[1].Open(ecnp.OpenRequest{Request: 900, Bitrate: units.Mbps(12), DurationSec: 10000})
	c := h.client(t, selection.RemOnly, qos.Soft)
	out := c.Store(5)
	if !out.OK || out.RM != 2 {
		t.Fatalf("store went to %v, want the idle RM2", out.RM)
	}
}

func TestStoreFailsWhenAllFullFirm(t *testing.T) {
	h := newHarness(t,
		map[ids.RMID]units.BytesPerSec{1: units.Mbps(18)},
		nil)
	h.rms[1].Open(ecnp.OpenRequest{Request: 900, Bitrate: units.Mbps(17.9), DurationSec: 10000})
	storage := h.rms[1].StorageUsed()
	c := h.client(t, selection.RemOnly, qos.Firm)
	out := c.Store(5)
	if out.OK {
		t.Fatal("firm store admitted with no bandwidth anywhere")
	}
	// The refused write must leave nothing behind: not in the MM, and
	// not on the RM that refused it.
	if n := h.mapper.ReplicaCount(5); n != 0 {
		t.Fatalf("MM shows %d replicas of a failed store", n)
	}
	if h.rms[1].HasFile(5) || h.rms[1].StorageUsed() != storage {
		t.Fatalf("RM1 holds file5 %v, storage %v after the refused write, want false, %v",
			h.rms[1].HasFile(5), h.rms[1].StorageUsed(), storage)
	}
	// Once bandwidth frees, the same write succeeds there.
	h.rms[1].Close(900)
	if out := c.Store(5); !out.OK || out.RM != 1 {
		t.Fatalf("store once bandwidth frees: %+v", out)
	}
}

func TestStoreSkipsExistingHolder(t *testing.T) {
	// RM1 already holds file 0; a store of the same file must land on RM2
	// (a holder refuses the write-open and the client falls through).
	h := newHarness(t,
		map[ids.RMID]units.BytesPerSec{1: units.Mbps(180), 2: units.Mbps(18)},
		map[ids.FileID][]ids.RMID{0: {1}})
	c := h.client(t, selection.RemOnly, qos.Soft)
	out := c.Store(0)
	if !out.OK || out.RM != 2 {
		t.Fatalf("store of a held file went to %v, want RM2", out.RM)
	}
	if h.mapper.ReplicaCount(0) != 2 {
		t.Fatalf("replica count %d after store", h.mapper.ReplicaCount(0))
	}
}

func TestBroadcastCNPSameOutcomeMoreMessages(t *testing.T) {
	build := func(broadcast bool) (*Client, *harness) {
		h := newHarness(t,
			map[ids.RMID]units.BytesPerSec{1: units.Mbps(18), 2: units.Mbps(18), 3: units.Mbps(18)},
			map[ids.FileID][]ids.RMID{0: {1, 2}})
		c, err := New(Options{
			ID: 1, Mapper: h.mapper, Directory: h.dir,
			Scheduler: ecnp.SimScheduler{S: h.sched}, Catalog: h.catalog,
			Policy: selection.RemOnly, Scenario: qos.Firm,
			Rand: rng.New(5), BroadcastCNP: broadcast,
		})
		if err != nil {
			t.Fatal(err)
		}
		return c, h
	}
	ecnpClient, _ := build(false)
	cnpClient, _ := build(true)

	outE := ecnpClient.Access(0)
	outC := cnpClient.Access(0)
	if !outE.OK || !outC.OK {
		t.Fatalf("accesses failed: %v %v", outE, outC)
	}
	// Same winner: CNP broadcast filters non-holders, so selection sees
	// the identical bid set.
	if outE.RM != outC.RM {
		t.Fatalf("winners differ: ECNP %v vs CNP %v", outE.RM, outC.RM)
	}
	// But broadcast pays CFPs to all 3 RMs instead of the 2 holders.
	msgsE := ecnpClient.Stats().Messages
	msgsC := cnpClient.Stats().Messages
	if msgsC <= msgsE {
		t.Fatalf("broadcast sent %d messages, matchmaker %d; broadcast should cost more", msgsC, msgsE)
	}
	// ECNP: 2 (query) + 2×2 (CFP/bid) + 2 (open) = 8.
	if msgsE != 8 {
		t.Fatalf("ECNP messages = %d, want 8", msgsE)
	}
	// CNP: 2 (list) + 3×2 (CFP/bid) + 2 (open) = 10.
	if msgsC != 10 {
		t.Fatalf("CNP messages = %d, want 10", msgsC)
	}
}
