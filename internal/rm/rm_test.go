package rm

import (
	"math"
	"testing"

	"dfsqos/internal/ecnp"
	"dfsqos/internal/history"
	"dfsqos/internal/ids"
	"dfsqos/internal/mm"
	"dfsqos/internal/replication"
	"dfsqos/internal/rng"
	"dfsqos/internal/selection"
	"dfsqos/internal/simtime"
	"dfsqos/internal/units"
)

// harness wires a scheduler, a mapper and a set of RMs for actor tests.
type harness struct {
	sched  *simtime.Scheduler
	mapper *mm.Manager
	dir    *ecnp.StaticDirectory
	rms    map[ids.RMID]*RM
}

func newHarness(t testing.TB, repCfg replication.Config, caps map[ids.RMID]units.BytesPerSec, files map[ids.RMID]map[ids.FileID]FileMeta) *harness {
	t.Helper()
	return newHarnessWrapped(t, repCfg, caps, files, func(m *mm.Manager) ecnp.Mapper { return m })
}

// newHarnessWrapped hands the RMs wrap(h.mapper) as their mapper, so a
// test can observe or interleave with the calls they make on the MM.
func newHarnessWrapped(t testing.TB, repCfg replication.Config, caps map[ids.RMID]units.BytesPerSec, files map[ids.RMID]map[ids.FileID]FileMeta, wrap func(*mm.Manager) ecnp.Mapper) *harness {
	t.Helper()
	h := &harness{
		sched:  simtime.NewScheduler(),
		mapper: mm.New(),
		dir:    new(ecnp.StaticDirectory),
		rms:    make(map[ids.RMID]*RM),
	}
	adapter := ecnp.SimScheduler{S: h.sched}
	master := rng.New(7)
	mapper := wrap(h.mapper)
	for id, capBW := range caps {
		node, err := New(Options{
			Info:        ecnp.RMInfo{ID: id, Capacity: capBW, StorageBytes: 16 * units.GB},
			Scheduler:   adapter,
			Mapper:      mapper,
			History:     history.DefaultConfig(),
			Replication: repCfg,
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

func fm(bitrate units.BytesPerSec, durSec float64) FileMeta {
	return FileMeta{Bitrate: bitrate, Size: units.Size(float64(bitrate) * durSec), DurationSec: durSec}
}

func staticCfg() replication.Config { return replication.DefaultConfig(replication.Static()) }

func TestNewValidation(t *testing.T) {
	_, err := New(Options{})
	if err == nil {
		t.Fatal("empty options accepted")
	}
	_, err = New(Options{
		Info: ecnp.RMInfo{ID: 1, Capacity: units.Mbps(18)},
	})
	if err == nil {
		t.Fatal("missing scheduler/mapper/rand accepted")
	}
}

func TestOpenCloseLifecycle(t *testing.T) {
	h := newHarness(t, staticCfg(), map[ids.RMID]units.BytesPerSec{1: units.Mbps(18)}, nil)
	r := h.rms[1]
	res := r.Open(ecnp.OpenRequest{Request: 1, File: 0, Bitrate: units.Mbps(2), DurationSec: 100})
	if !res.OK {
		t.Fatalf("open refused: %s", res.Reason)
	}
	if got := r.Allocated(); got != units.Mbps(2) {
		t.Fatalf("allocated %v, want 2 Mbps", got)
	}
	if dup := r.Open(ecnp.OpenRequest{Request: 1, File: 0, Bitrate: units.Mbps(2)}); dup.OK {
		t.Fatal("duplicate request id admitted")
	}
	r.Close(1)
	if got := r.Allocated(); got != 0 {
		t.Fatalf("allocated %v after close, want 0", got)
	}
	r.Close(1) // double close is a no-op
	r.Close(42)
	st := r.Stats()
	if st.Opens != 1 {
		t.Fatalf("Opens = %d, want 1", st.Opens)
	}
}

func TestFirmRefusalAndSoftOverAllocation(t *testing.T) {
	h := newHarness(t, staticCfg(), map[ids.RMID]units.BytesPerSec{1: units.Mbps(10)}, nil)
	r := h.rms[1]
	if res := r.Open(ecnp.OpenRequest{Request: 1, Bitrate: units.Mbps(8), DurationSec: 10, Firm: true}); !res.OK {
		t.Fatal("first firm open refused")
	}
	if res := r.Open(ecnp.OpenRequest{Request: 2, Bitrate: units.Mbps(8), DurationSec: 10, Firm: true}); res.OK || res.Code != ecnp.ErrFirmCapacity {
		t.Fatalf("firm open past capacity: %+v, want refused with ErrFirmCapacity", res)
	}
	if n := r.Stats().Refusals[ecnp.ErrFirmCapacity]; n != 1 {
		t.Fatalf("firm-capacity refusals = %d, want 1", n)
	}
	// Soft open of the same size is admitted and over-allocates.
	if res := r.Open(ecnp.OpenRequest{Request: 3, Bitrate: units.Mbps(8), DurationSec: 10}); !res.OK {
		t.Fatal("soft open refused")
	}
	if rem := h.rms[1].Snapshot(h.sched.Now()).Allocated; rem != units.Mbps(16) {
		t.Fatalf("allocated %v, want 16 Mbps", rem)
	}
}

func TestBidFields(t *testing.T) {
	files := map[ids.RMID]map[ids.FileID]FileMeta{
		1: {0: fm(units.Mbps(2), 100), 1: fm(units.Mbps(1), 300)},
	}
	h := newHarness(t, staticCfg(), map[ids.RMID]units.BytesPerSec{1: units.Mbps(18)}, files)
	r := h.rms[1]
	bid := r.HandleCFP(ecnp.CFP{Request: 1, File: 0, Bitrate: units.Mbps(2), DurationSec: 100})
	if bid.RM != 1 {
		t.Fatalf("bid.RM = %v", bid.RM)
	}
	if bid.Rem != units.Mbps(18) {
		t.Fatalf("bid.Rem = %v, want full capacity", bid.Rem)
	}
	if bid.Req != units.Mbps(2) {
		t.Fatalf("bid.Req = %v", bid.Req)
	}
	// T_ocp = 100, T_ocp_avg = (100+300)/2 = 200 → e^-2.
	want := selection.OccupationBias(100, 200)
	if math.Abs(bid.OccBias-want) > 1e-12 {
		t.Fatalf("bid.OccBias = %v, want %v", bid.OccBias, want)
	}
	if bid.Trend != 0 {
		t.Fatalf("bid.Trend = %v with no history, want 0", bid.Trend)
	}
	// Remaining drops after an allocation.
	r.Open(ecnp.OpenRequest{Request: 1, File: 0, Bitrate: units.Mbps(4), DurationSec: 100})
	bid = r.HandleCFP(ecnp.CFP{Request: 2, File: 0, Bitrate: units.Mbps(2), DurationSec: 100})
	if bid.Rem != units.Mbps(14) {
		t.Fatalf("bid.Rem = %v after allocation, want 14 Mbps", bid.Rem)
	}
}

func TestCFPCountsAndHistoryOnOpen(t *testing.T) {
	files := map[ids.RMID]map[ids.FileID]FileMeta{1: {0: fm(units.Mbps(2), 100)}}
	h := newHarness(t, staticCfg(), map[ids.RMID]units.BytesPerSec{1: units.Mbps(18)}, files)
	r := h.rms[1]
	for i := 0; i < 5; i++ {
		r.HandleCFP(ecnp.CFP{Request: ids.RequestID(i), File: 0, Bitrate: units.Mbps(2), DurationSec: 100})
	}
	if r.Stats().CFPs != 5 {
		t.Fatalf("CFPs = %d, want 5", r.Stats().CFPs)
	}
}

func TestOfferReplicaRules(t *testing.T) {
	files := map[ids.RMID]map[ids.FileID]FileMeta{
		1: {0: fm(units.Mbps(2), 100)},
	}
	h := newHarness(t, replication.DefaultConfig(replication.Rep(1, 8)),
		map[ids.RMID]units.BytesPerSec{1: units.Mbps(18), 2: units.Mbps(18)}, files)
	dst := h.rms[2]
	offer := ecnp.ReplicaOffer{
		Replication: 1, File: 0, SizeBytes: 25 * units.MB,
		Bitrate: units.Mbps(2), DurationSec: 100, Rate: units.Mbps(1.8), Source: 1,
	}
	// Rule 1: destination already has the replica.
	if h.rms[1].OfferReplica(offer) {
		t.Fatal("holder accepted an offer for its own file")
	}
	// Healthy destination accepts.
	if !dst.OfferReplica(offer) {
		t.Fatal("idle destination rejected offer")
	}
	// Same file offered again while in flight: reject (nested replication).
	offer2 := offer
	offer2.Replication = 2
	if dst.OfferReplica(offer2) {
		t.Fatal("destination accepted duplicate in-flight replica")
	}
	// Completion commits the file.
	dst.FinishReplica(1, true)
	if !dst.HasFile(0) {
		t.Fatal("destination does not own file after commit")
	}
	st := dst.Stats()
	if st.OffersAccepted != 1 || st.OffersRejected != 1 {
		t.Fatalf("offer stats = %+v", st)
	}
	// Rule 3: a destination below B_TH rejects.
	dst.Open(ecnp.OpenRequest{Request: 9, Bitrate: units.Mbps(16), DurationSec: 1000})
	offer3 := offer
	offer3.Replication = 3
	offer3.File = 5
	if dst.OfferReplica(offer3) {
		t.Fatal("destination below B_TH accepted offer")
	}
}

func TestFinishReplicaAbort(t *testing.T) {
	h := newHarness(t, replication.DefaultConfig(replication.Rep(1, 8)),
		map[ids.RMID]units.BytesPerSec{1: units.Mbps(18), 2: units.Mbps(18)}, nil)
	dst := h.rms[2]
	offer := ecnp.ReplicaOffer{
		Replication: 7, File: 3, SizeBytes: units.MB,
		Bitrate: units.Mbps(1), DurationSec: 8, Rate: units.Mbps(1.8), Source: 1,
	}
	if !dst.OfferReplica(offer) {
		t.Fatal("offer rejected")
	}
	dst.FinishReplica(7, false)
	if dst.HasFile(3) {
		t.Fatal("aborted replica committed")
	}
	dst.FinishReplica(7, true) // unknown id: no-op
	if dst.HasFile(3) {
		t.Fatal("double finish committed the file")
	}
}

// TestReplicationEndToEnd drives an overload on RM1 and verifies the file
// migrates per Rep(1,2): a copy lands elsewhere and the source deletes its
// own replica once the bound is exceeded.
func TestReplicationEndToEnd(t *testing.T) {
	hot := ids.FileID(0)
	files := map[ids.RMID]map[ids.FileID]FileMeta{
		1: {hot: fm(units.Mbps(2), 100), 7: fm(units.Mbps(1), 50)},
		2: {hot: fm(units.Mbps(2), 100)},
	}
	cfg := replication.DefaultConfig(replication.Rep(1, 2))
	cfg.CooldownSec = 1
	h := newHarness(t, cfg,
		map[ids.RMID]units.BytesPerSec{
			1: units.Mbps(10), 2: units.Mbps(10), 3: units.Mbps(100),
		}, files)
	src := h.rms[1]
	var removed []ids.FileID
	src.SetDiskHooks(nil, func(f ids.FileID) { removed = append(removed, f) })

	// Saturate RM1 beyond 80% so the next CFP triggers replication.
	src.Open(ecnp.OpenRequest{Request: 100, File: hot, Bitrate: units.Mbps(9), DurationSec: 5000})
	// Request traffic for the hot file establishes its busiest-file rank
	// and fires the trigger.
	src.HandleCFP(ecnp.CFP{Request: 1, File: hot, Bitrate: units.Mbps(2), DurationSec: 100})

	if src.Stats().RepTriggers != 1 {
		t.Fatalf("RepTriggers = %d, want 1", src.Stats().RepTriggers)
	}
	// Run the DES until the transfer completes.
	h.sched.Run()
	if !h.rms[3].HasFile(hot) {
		t.Fatal("replica did not land on RM3")
	}
	if src.HasFile(hot) {
		t.Fatal("source kept its replica past N_MAXR (migration expected)")
	}
	if got := h.mapper.ReplicaCount(hot); got != 2 {
		t.Fatalf("replica count = %d, want 2 after migration", got)
	}
	st := src.Stats()
	if st.RepTransfers != 1 || st.RepMigrations != 1 {
		t.Fatalf("stats = %+v, want 1 transfer and 1 migration", st)
	}
	if len(removed) != 1 || removed[0] != hot {
		t.Fatalf("source removed %v from its disk, want the migrated file %v", removed, hot)
	}
}

// TestReplicationCooldown verifies an RM does not trigger twice within the
// cooldown window.
func TestReplicationCooldown(t *testing.T) {
	hot := ids.FileID(0)
	files := map[ids.RMID]map[ids.FileID]FileMeta{
		1: {hot: fm(units.Mbps(2), 100)},
	}
	cfg := replication.DefaultConfig(replication.Rep(1, 8))
	cfg.CooldownSec = 60
	h := newHarness(t, cfg,
		map[ids.RMID]units.BytesPerSec{1: units.Mbps(10), 2: units.Mbps(100), 3: units.Mbps(100)}, files)
	src := h.rms[1]
	src.Open(ecnp.OpenRequest{Request: 100, File: hot, Bitrate: units.Mbps(9), DurationSec: 5000})
	src.HandleCFP(ecnp.CFP{Request: 1, File: hot, Bitrate: units.Mbps(2), DurationSec: 100})
	if src.Stats().RepTriggers != 1 {
		t.Fatalf("first trigger missing")
	}
	// Let the transfer finish (file is 25 MB at 1.8 Mbit/s ≈ 111 s),
	// then immediately re-CFP: the cooldown counts from trigger start,
	// so at transfer end the window has already passed; use a fresh CFP
	// right after the trigger instead to verify suppression.
	src.HandleCFP(ecnp.CFP{Request: 2, File: hot, Bitrate: units.Mbps(2), DurationSec: 100})
	if src.Stats().RepTriggers != 1 {
		t.Fatalf("trigger fired during active transfer/cooldown")
	}
	h.sched.Run()
}

// TestNoTriggerWhenHealthy: an RM above the threshold never replicates.
func TestNoTriggerWhenHealthy(t *testing.T) {
	files := map[ids.RMID]map[ids.FileID]FileMeta{1: {0: fm(units.Mbps(2), 100)}}
	h := newHarness(t, replication.DefaultConfig(replication.Rep(1, 8)),
		map[ids.RMID]units.BytesPerSec{1: units.Mbps(18), 2: units.Mbps(18)}, files)
	for i := 0; i < 10; i++ {
		h.rms[1].HandleCFP(ecnp.CFP{Request: ids.RequestID(i), File: 0, Bitrate: units.Mbps(2), DurationSec: 100})
	}
	if h.rms[1].Stats().RepTriggers != 0 {
		t.Fatal("healthy RM triggered replication")
	}
}

// TestStaticStrategyNeverReplicates: the static configuration never runs
// the agent even under overload.
func TestStaticStrategyNeverReplicates(t *testing.T) {
	files := map[ids.RMID]map[ids.FileID]FileMeta{1: {0: fm(units.Mbps(2), 100)}}
	h := newHarness(t, staticCfg(),
		map[ids.RMID]units.BytesPerSec{1: units.Mbps(10), 2: units.Mbps(100)}, files)
	h.rms[1].Open(ecnp.OpenRequest{Request: 9, File: 0, Bitrate: units.Mbps(9.5), DurationSec: 1000})
	h.rms[1].HandleCFP(ecnp.CFP{Request: 1, File: 0, Bitrate: units.Mbps(2), DurationSec: 100})
	if h.rms[1].Stats().RepTriggers != 0 {
		t.Fatal("static strategy replicated")
	}
	h.sched.Run()
	if h.rms[2].HasFile(0) {
		t.Fatal("replica appeared under static strategy")
	}
}

// TestRepGrowthWithoutMigration: Rep(1,8) with replicas below the bound
// grows the count and keeps the source replica.
func TestRepGrowthWithoutMigration(t *testing.T) {
	hot := ids.FileID(0)
	files := map[ids.RMID]map[ids.FileID]FileMeta{
		1: {hot: fm(units.Mbps(2), 100)},
	}
	cfg := replication.DefaultConfig(replication.Rep(1, 8))
	h := newHarness(t, cfg,
		map[ids.RMID]units.BytesPerSec{1: units.Mbps(10), 2: units.Mbps(100)}, files)
	src := h.rms[1]
	src.Open(ecnp.OpenRequest{Request: 100, File: hot, Bitrate: units.Mbps(9), DurationSec: 5000})
	src.HandleCFP(ecnp.CFP{Request: 1, File: hot, Bitrate: units.Mbps(2), DurationSec: 100})
	h.sched.Run()
	if !src.HasFile(hot) {
		t.Fatal("source lost its replica below the bound")
	}
	if got := h.mapper.ReplicaCount(hot); got != 2 {
		t.Fatalf("replica count = %d, want 2", got)
	}
	if src.Stats().RepMigrations != 0 {
		t.Fatal("unexpected migration below the bound")
	}
}
