package rm

import (
	"testing"

	"dfsqos/internal/ecnp"
	"dfsqos/internal/history"
	"dfsqos/internal/ids"
	"dfsqos/internal/mm"
	"dfsqos/internal/replication"
	"dfsqos/internal/rng"
	"dfsqos/internal/simtime"
	"dfsqos/internal/units"
)

// gcHarness builds RMs with a storage budget and GC enabled.
func gcHarness(t *testing.T, storage units.Size, gc replication.GCConfig, files map[ids.RMID]map[ids.FileID]FileMeta) *harness {
	t.Helper()
	h := &harness{
		sched:  simtime.NewScheduler(),
		mapper: mm.New(),
		dir:    new(ecnp.StaticDirectory),
		rms:    make(map[ids.RMID]*RM),
	}
	adapter := ecnp.SimScheduler{S: h.sched}
	master := rng.New(13)
	for _, id := range []ids.RMID{1, 2, 3} {
		node, err := New(Options{
			Info:        ecnp.RMInfo{ID: id, Capacity: units.Mbps(18), StorageBytes: storage},
			Scheduler:   adapter,
			Mapper:      h.mapper,
			History:     history.DefaultConfig(),
			Replication: replication.DefaultConfig(replication.Rep(1, 8)),
			GC:          gc,
			Rand:        master.Split(id.String()),
			Files:       files[id],
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

func TestStorageAccountingOnSeed(t *testing.T) {
	files := map[ids.RMID]map[ids.FileID]FileMeta{
		1: {0: fm(units.Mbps(2), 100), 1: fm(units.Mbps(1), 100)},
	}
	h := gcHarness(t, units.GB, replication.GCConfig{}, files)
	want := files[1][0].Size + files[1][1].Size
	if got := h.rms[1].StorageUsed(); got != want {
		t.Fatalf("StorageUsed = %v, want %v", got, want)
	}
	if h.rms[2].StorageUsed() != 0 {
		t.Fatal("empty RM reports storage use")
	}
}

func TestSeedOverflowRefused(t *testing.T) {
	_, err := New(Options{
		Info:      ecnp.RMInfo{ID: 1, Capacity: units.Mbps(18), StorageBytes: units.MB},
		Scheduler: ecnp.SimScheduler{S: simtime.NewScheduler()},
		Mapper:    mm.New(),
		History:   history.DefaultConfig(),
		Rand:      rng.New(1),
		Files:     map[ids.FileID]FileMeta{0: fm(units.Mbps(2), 100)}, // 25 MB
	})
	if err == nil {
		t.Fatal("over-capacity seeding accepted")
	}
}

func TestOfferRejectedWhenDiskFull(t *testing.T) {
	// RM2's disk fits only one 25 MB file on 30 MB.
	files := map[ids.RMID]map[ids.FileID]FileMeta{
		2: {9: fm(units.Mbps(2), 100)}, // 25 MB resident
	}
	h := gcHarness(t, 30*units.MB, replication.GCConfig{}, files)
	offer := ecnp.ReplicaOffer{
		Replication: 1, File: 0, SizeBytes: 10 * units.MB,
		Bitrate: units.Mbps(1), DurationSec: 80, Rate: units.Mbps(1.8), Source: 1,
	}
	if h.rms[2].OfferReplica(offer) {
		t.Fatal("full disk accepted an offer")
	}
	if h.rms[2].Stats().OffersRejected != 1 {
		t.Fatal("rejection not counted")
	}
	// An RM with room accepts, and in-flight bytes reserve space.
	if !h.rms[3].OfferReplica(offer) {
		t.Fatal("empty disk rejected offer")
	}
	if got := h.rms[3].StorageUsed(); got != 10*units.MB {
		t.Fatalf("in-flight replica not reserved: %v", got)
	}
	// Abort returns the space.
	h.rms[3].FinishReplica(1, false)
	if got := h.rms[3].StorageUsed(); got != 0 {
		t.Fatalf("aborted replica left %v reserved", got)
	}
}

func TestGCEvictsColdReplicas(t *testing.T) {
	// RM1 holds two files, the second never requested. Storage 60 MB with
	// watermarks 80%/50%: landing a third replica pushes use to ~55 MB
	// (92%) and the collector must evict down past 30 MB.
	cold := fm(units.Mbps(2), 100)  // 25 MB
	hot := fm(units.Mbps(0.4), 100) // 5 MB
	files := map[ids.RMID]map[ids.FileID]FileMeta{
		1: {0: hot, 1: cold},
		2: {0: hot, 1: cold},
		3: {0: hot, 1: cold},
	}
	gc := replication.GCConfig{Enabled: true, HighWatermark: 0.8, LowWatermark: 0.5, MinReplicas: 2}
	h := gcHarness(t, 60*units.MB, gc, files)
	// Heat file 0 on RM1 so file 1 is the cold victim.
	for i := 0; i < 5; i++ {
		h.rms[1].HandleCFP(ecnp.CFP{Request: ids.RequestID(i), File: 0, Bitrate: units.Mbps(0.4), DurationSec: 100})
	}
	// Land a new 25 MB replica on RM1.
	offer := ecnp.ReplicaOffer{
		Replication: 7, File: 5, SizeBytes: 25 * units.MB,
		Bitrate: units.Mbps(2), DurationSec: 100, Rate: units.Mbps(1.8), Source: 2,
	}
	if !h.rms[1].OfferReplica(offer) {
		t.Fatal("offer rejected")
	}
	h.mapper.AddReplica(5, 1)
	h.rms[1].FinishReplica(7, true)

	if h.rms[1].HasFile(1) {
		t.Fatal("cold replica survived GC")
	}
	if !h.rms[1].HasFile(0) {
		t.Fatal("hot replica evicted")
	}
	if !h.rms[1].HasFile(5) {
		t.Fatal("fresh replica evicted")
	}
	if h.rms[1].Stats().GCEvictions == 0 {
		t.Fatal("eviction not counted")
	}
	if h.mapper.ReplicaCount(1) != 2 {
		t.Fatalf("mapper shows %d replicas of the evicted file, want 2", h.mapper.ReplicaCount(1))
	}
	if got := h.rms[1].StorageUsed(); got > 30*units.MB {
		t.Fatalf("storage %v above the low watermark", got)
	}
}

func TestGCNeverDropsBelowMinReplicas(t *testing.T) {
	// Every file sits at exactly MinReplicas: the collector must do
	// nothing even far above the watermark.
	meta := fm(units.Mbps(2), 100) // 25 MB
	files := map[ids.RMID]map[ids.FileID]FileMeta{
		1: {0: meta, 1: meta},
		2: {0: meta, 1: meta},
		3: {0: meta, 1: meta},
	}
	gc := replication.GCConfig{Enabled: true, HighWatermark: 0.5, LowWatermark: 0.3, MinReplicas: 3}
	h := gcHarness(t, 60*units.MB, gc, files)
	offer := ecnp.ReplicaOffer{
		Replication: 9, File: 7, SizeBytes: 5 * units.MB,
		Bitrate: units.Mbps(0.4), DurationSec: 100, Rate: units.Mbps(1.8), Source: 2,
	}
	if !h.rms[1].OfferReplica(offer) {
		t.Fatal("offer rejected")
	}
	h.mapper.AddReplica(7, 1)
	h.rms[1].FinishReplica(9, true)
	if !h.rms[1].HasFile(0) || !h.rms[1].HasFile(1) {
		t.Fatal("GC evicted a minimum-degree replica")
	}
	// File 7 has only 1 replica — protected by the mapper/min rule too.
	if !h.rms[1].HasFile(7) {
		t.Fatal("GC evicted a sole replica")
	}
}
