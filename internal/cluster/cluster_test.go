package cluster

import (
	"math"
	"testing"

	"dfsqos/internal/ids"
	"dfsqos/internal/qos"
	"dfsqos/internal/replication"
	"dfsqos/internal/selection"
	"dfsqos/internal/units"
	"dfsqos/internal/workload"
)

// quickConfig returns a small-but-loaded configuration that runs in
// milliseconds.
func quickConfig() Config {
	cfg := DefaultConfig()
	cfg.Workload = workload.Config{NumUsers: 96, NumDFSC: 4, MeanArrivalSec: 120, HorizonSec: 1200}
	cfg.Catalog.NumFiles = 200
	return cfg
}

func TestPaperTopology(t *testing.T) {
	caps := PaperTopology()
	if len(caps) != 16 {
		t.Fatalf("topology has %d RMs, want 16", len(caps))
	}
	large := map[int]bool{0: true, 8: true}
	medium := map[int]bool{1: true, 2: true, 9: true, 10: true}
	var total units.BytesPerSec
	for i, c := range caps {
		total += c
		switch {
		case large[i]:
			if c != units.Mbps(128) {
				t.Errorf("RM%d capacity %v, want 128 Mbps", i+1, c)
			}
		case medium[i]:
			if c != units.Mbps(19) {
				t.Errorf("RM%d capacity %v, want 19 Mbps", i+1, c)
			}
		default:
			if c != units.Mbps(18) {
				t.Errorf("RM%d capacity %v, want 18 Mbps", i+1, c)
			}
		}
	}
	// 2×128 + 4×19 + 10×18 = 512 Mbps.
	if total != units.Mbps(512) {
		t.Errorf("aggregate capacity %v, want 512 Mbps", total)
	}
}

func TestConfigValidation(t *testing.T) {
	cfg := DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
	bad := cfg
	bad.ReplicaDegree = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero replica degree accepted")
	}
	bad = cfg
	bad.RMCapacities = []units.BytesPerSec{0}
	if err := bad.Validate(); err == nil {
		t.Error("zero capacity accepted")
	}
	bad = cfg
	bad.RMCapacities = []units.BytesPerSec{}
	if err := bad.Validate(); err == nil {
		t.Error("empty topology accepted")
	}
	bad = cfg
	bad.SampleEverySec = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative sampling accepted")
	}
	bad = cfg
	bad.Oversub = 0.5
	if err := bad.Validate(); err == nil {
		t.Error("sub-nominal oversubscription accepted")
	}
	ok := cfg
	ok.Oversub = 1.5
	if err := ok.Validate(); err != nil {
		t.Errorf("oversubscription 1.5 rejected: %v", err)
	}
}

// TestOversubAdmitsPastNominalCapacity pins the oversubscription-aware
// admission end to end in the DES: a firm cluster at Oversub 2 admits
// demand past nominal capacity, its ledgers report the ratio, and the
// assured integral never credits more than real capacity — the excess
// shows up as over-allocation, not phantom throughput.
func TestOversubAdmitsPastNominalCapacity(t *testing.T) {
	base := DefaultConfig()
	base.RMCapacities = []units.BytesPerSec{units.Mbps(4)}
	base.ReplicaDegree = 1
	base.Scenario = qos.Firm
	base.Catalog.NumFiles = 50
	base.Workload = workload.Config{
		NumUsers:       200,
		NumDFSC:        4,
		MeanArrivalSec: 60,
		HorizonSec:     600,
	}

	nominal, err := RunConfig(base)
	if err != nil {
		t.Fatal(err)
	}
	over := base
	over.Oversub = 2
	relaxed, err := RunConfig(over)
	if err != nil {
		t.Fatal(err)
	}
	if relaxed.FailRate >= nominal.FailRate {
		t.Fatalf("oversub fail rate %.3f did not improve on nominal %.3f",
			relaxed.FailRate, nominal.FailRate)
	}
	snap := relaxed.PerRM[0].Snap
	if snap.Oversub != 2 {
		t.Fatalf("ledger reports oversub %g, want 2", snap.Oversub)
	}
	if capSecs := float64(snap.Capacity) * relaxed.HorizonSec; snap.AssuredByteSecs > capSecs+1e-6 {
		t.Fatalf("assured integral %.0f exceeds capacity×horizon %.0f", snap.AssuredByteSecs, capSecs)
	}
	if snap.OverBytes <= 0 {
		t.Fatal("oversubscribed run recorded no over-allocated byte-seconds")
	}
	if got := snap.AssuredByteSecs + snap.OverBytes; got != snap.AllocByteSecs {
		t.Fatalf("assured %.0f + over %.0f != alloc %.0f", snap.AssuredByteSecs, snap.OverBytes, snap.AllocByteSecs)
	}
}

func TestRunDeterministic(t *testing.T) {
	cfg := quickConfig()
	a, err := RunConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalRequests != b.TotalRequests || a.FailedRequests != b.FailedRequests {
		t.Fatalf("request counts differ: %d/%d vs %d/%d",
			a.TotalRequests, a.FailedRequests, b.TotalRequests, b.FailedRequests)
	}
	if a.OverAllocate != b.OverAllocate || a.FailRate != b.FailRate {
		t.Fatalf("metrics differ across same-seed runs")
	}
	for i := range a.PerRM {
		if a.PerRM[i].Snap != b.PerRM[i].Snap {
			t.Fatalf("RM%d snapshot differs across same-seed runs", i+1)
		}
	}
}

func TestSeedChangesOutcome(t *testing.T) {
	cfg := quickConfig()
	a, _ := RunConfig(cfg)
	cfg.Seed = 2
	b, _ := RunConfig(cfg)
	if a.TotalRequests == b.TotalRequests && a.OverAllocate == b.OverAllocate {
		t.Fatal("different seeds produced identical runs")
	}
}

func TestSoftNeverFails(t *testing.T) {
	cfg := quickConfig()
	cfg.Scenario = qos.Soft
	res, err := RunConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FailedRequests != 0 {
		t.Fatalf("%d failures in soft scenario", res.FailedRequests)
	}
	if res.TotalRequests == 0 {
		t.Fatal("no requests ran")
	}
}

func TestFirmNeverOverAllocates(t *testing.T) {
	cfg := quickConfig()
	cfg.Scenario = qos.Firm
	cfg.Workload.NumUsers = 256 // push hard
	res, err := RunConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.OverAllocate != 0 {
		t.Fatalf("over-allocate %v in firm scenario, want 0", res.OverAllocate)
	}
	for _, rmRes := range res.PerRM {
		if rmRes.Snap.OverBytes != 0 {
			t.Fatalf("%v over-allocated in firm scenario", rmRes.ID)
		}
	}
	if res.FailedRequests == 0 {
		t.Fatal("expected some failures under heavy firm load")
	}
}

func TestAssignedBytesConservation(t *testing.T) {
	// Σ assigned bytes across RMs equals Σ size of admitted requests.
	cfg := quickConfig()
	cfg.Scenario = qos.Firm
	cl, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Run()
	if err != nil {
		t.Fatal(err)
	}
	var assigned float64
	for _, r := range res.PerRM {
		assigned += r.Snap.AssignedBytes
	}
	var admitted float64
	var admittedCount int64
	// Re-derive: every admitted request contributed bitrate×duration.
	// Count via RM stats (Opens) and compare magnitudes.
	for _, st := range res.RMStats {
		admittedCount += st.Opens
	}
	if admittedCount != res.TotalRequests-res.FailedRequests {
		t.Fatalf("opens %d != admitted %d", admittedCount, res.TotalRequests-res.FailedRequests)
	}
	var total units.Size
	for _, f := range cl.Catalog().Files() {
		total += f.Size
	}
	meanSize := float64(total) / float64(cl.Catalog().Len())
	if assigned <= 0 || assigned > 10*meanSize*float64(admittedCount) {
		t.Fatalf("assigned bytes %.0f implausible for %d requests", assigned, admittedCount)
	}
	_ = admitted
}

func TestUtilizationSampling(t *testing.T) {
	cfg := quickConfig()
	cfg.SampleEverySec = 60
	res, err := RunConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Utilization) != 16 {
		t.Fatalf("%d series, want 16", len(res.Utilization))
	}
	wantSamples := int(cfg.Workload.HorizonSec/cfg.SampleEverySec) + 1
	for id, s := range res.Utilization {
		if s.Len() != wantSamples {
			t.Fatalf("%v series has %d samples, want %d", id, s.Len(), wantSamples)
		}
		for _, p := range s.Points {
			if p.Value < 0 {
				t.Fatalf("%v negative utilization sample", id)
			}
		}
	}
}

func TestNoSamplingByDefault(t *testing.T) {
	res, err := RunConfig(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Utilization != nil {
		t.Fatal("sampling ran without being requested")
	}
}

func TestDynamicReplicationChangesPlacement(t *testing.T) {
	cfg := quickConfig()
	cfg.Workload.NumUsers = 256
	cfg.Replication = replication.DefaultConfig(replication.Rep(1, 8))
	cl, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Replications == 0 {
		t.Fatal("no replications under heavy load with Rep(1,8)")
	}
	// Replica counts stay within the bound.
	for f := 0; f < cl.Catalog().Len(); f++ {
		if n := cl.mapper.ReplicaCount(ids.FileID(f)); n < 1 || n > 8 {
			t.Fatalf("file%d has %d replicas, want within [1, 8]", f, n)
		}
	}
	if err := cl.mapper.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRep13KeepsDegreeAtBound(t *testing.T) {
	cfg := quickConfig()
	cfg.Workload.NumUsers = 256
	cfg.Replication = replication.DefaultConfig(replication.Rep(1, 3))
	cl, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Replications == 0 {
		t.Fatal("no replications under heavy load with Rep(1,3)")
	}
	if res.Migrations == 0 {
		t.Fatal("Rep(1,3) at degree 3 must migrate")
	}
	for f := 0; f < cl.Catalog().Len(); f++ {
		if n := cl.mapper.ReplicaCount(ids.FileID(f)); n < 1 || n > 4 {
			// 4 transiently only during an in-flight migration; at the end
			// of a run a migration may still be pending at the horizon.
			t.Fatalf("file%d has %d replicas under Rep(1,3)", f, n)
		}
	}
}

func TestPolicyOrderingUnderLoad(t *testing.T) {
	// The paper's core claim: (1,0,0) beats (0,0,0) on both criteria.
	base := quickConfig()
	base.Workload.NumUsers = 256

	softRandom, softRem := runPair(t, base, qos.Soft)
	if softRem.OverAllocate >= softRandom.OverAllocate {
		t.Fatalf("(1,0,0) over-allocate %v not better than (0,0,0) %v",
			softRem.OverAllocate, softRandom.OverAllocate)
	}
	firmRandom, firmRem := runPair(t, base, qos.Firm)
	if firmRem.FailRate >= firmRandom.FailRate {
		t.Fatalf("(1,0,0) fail rate %v not better than (0,0,0) %v",
			firmRem.FailRate, firmRandom.FailRate)
	}
}

func runPair(t *testing.T, base Config, scen qos.Scenario) (random, rem *Results) {
	t.Helper()
	cfg := base
	cfg.Scenario = scen
	cfg.Policy = selection.Random
	var err error
	random, err = RunConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Policy = selection.RemOnly
	rem, err = RunConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return random, rem
}

func TestBuildSeedsRMsWithPlacement(t *testing.T) {
	cfg := quickConfig()
	cl, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Every file's holders actually hold the file.
	for f := 0; f < cl.Catalog().Len(); f++ {
		holders := cl.mapper.Lookup(ids.FileID(f))
		if len(holders) != cfg.ReplicaDegree {
			t.Fatalf("file%d has %d holders, want %d", f, len(holders), cfg.ReplicaDegree)
		}
		for _, h := range holders {
			if !cl.rms[h-1].HasFile(ids.FileID(f)) {
				t.Fatalf("%v registered for file%d but does not hold it", h, f)
			}
		}
	}
}

func TestCustomTopology(t *testing.T) {
	cfg := quickConfig()
	cfg.RMCapacities = []units.BytesPerSec{units.Mbps(50), units.Mbps(50), units.Mbps(50)}
	res, err := RunConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerRM) != 3 {
		t.Fatalf("%d RMs, want 3", len(res.PerRM))
	}
}

func TestOverAllocateRatioBounds(t *testing.T) {
	cfg := quickConfig()
	cfg.Workload.NumUsers = 300
	res, err := RunConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.OverAllocate < 0 || res.OverAllocate > 1 || math.IsNaN(res.OverAllocate) {
		t.Fatalf("aggregate R_OA = %v out of [0,1]", res.OverAllocate)
	}
	for _, r := range res.PerRM {
		if oa := r.OverAllocateRatio(); oa < 0 || math.IsNaN(oa) {
			t.Fatalf("%v R_OA = %v", r.ID, oa)
		}
	}
}
