package scenario

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"dfsqos/internal/ecnp"
	"dfsqos/internal/workload"
)

func TestRecorderStats(t *testing.T) {
	r := NewRecorder()
	for i := 0; i < 100; i++ {
		r.Observe("video", 10*time.Millisecond, true)
	}
	r.Observe("video", 100*time.Millisecond, false)
	r.Observe("bulk-write", time.Second, true)

	count, failed := r.Totals()
	if count != 102 || failed != 1 {
		t.Fatalf("totals = (%d, %d), want (102, 1)", count, failed)
	}
	stats := r.Stats()
	if len(stats) != 2 {
		t.Fatalf("got %d classes, want 2", len(stats))
	}
	// Sorted by class name.
	if stats[0].Class != "bulk-write" || stats[1].Class != "video" {
		t.Fatalf("classes out of order: %v, %v", stats[0].Class, stats[1].Class)
	}
	v := stats[1]
	if v.Count != 101 || v.Failed != 1 {
		t.Fatalf("video counts (%d, %d), want (101, 1)", v.Count, v.Failed)
	}
	if fr := v.FailRate(); fr < 0.009 || fr > 0.011 {
		t.Fatalf("video fail rate %v, want ~1/101", fr)
	}
	// p50 of 100 observations at 10ms (plus one at 100ms) lands in the
	// 10ms bucket's neighborhood.
	if v.P50Ms < 5 || v.P50Ms > 20 {
		t.Fatalf("p50 %.3f ms, want ~10ms", v.P50Ms)
	}
	if v.P999Ms < v.P50Ms {
		t.Fatal("p999 below p50")
	}
	if (ClassStats{}).FailRate() != 0 {
		t.Fatal("empty class has non-zero fail rate")
	}
}

// TestRecorderCountHasNoLatency: a class recorded by Count, as the DES
// records, carries counts and no latency, and its report names none.
func TestRecorderCountHasNoLatency(t *testing.T) {
	r := NewRecorder()
	r.Count("video", true)
	r.Count("video", false)
	r.Observe("live", 10*time.Millisecond, true)
	stats := r.Stats()
	if len(stats) != 2 || stats[1].Class != "video" {
		t.Fatalf("classes %+v, want live and video", stats)
	}
	if v := stats[1]; v.Count != 2 || v.Failed != 1 || v.P50Ms != 0 || v.P99Ms != 0 || v.P999Ms != 0 || v.MeanMs != 0 {
		t.Fatalf("counted class %+v, want 2 requests, 1 failed and no latency", v)
	}
	if stats[0].P50Ms == 0 {
		t.Fatalf("observed class %+v reports no latency", stats[0])
	}
	js, err := json.Marshal(stats[1])
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(js, []byte("_ms")) {
		t.Fatalf("counted class encodes a latency: %s", js)
	}
}

func TestSLOCheck(t *testing.T) {
	res := &Result{
		Name:            "t",
		FailRate:        0.5,
		OverAllocate:    0.4,
		Utilization:     0.3,
		WorkUtilization: 0.25,
		Classes: []ClassStats{
			{Class: "video", P50Ms: 100, P99Ms: 400, P999Ms: 900},
		},
		Live: &LiveResult{
			FailRate: 0.2,
			Classes:  []ClassStats{{Class: "video", P99Ms: 5000, P999Ms: 9000}},
		},
	}
	// Zero SLO disables every gate.
	if vs := (SLO{}).Check(res); len(vs) != 0 {
		t.Fatalf("zero SLO produced violations: %v", vs)
	}
	// Each gate trips individually.
	cases := []struct {
		slo    SLO
		metric string
	}{
		{SLO{MaxP50Sec: 0.05}, "p50"},
		{SLO{MaxP99Sec: 0.2}, "p99"},
		{SLO{MaxP999Sec: 0.5}, "p999"},
		{SLO{MaxFailRate: 0.1}, "fail_rate"},
		{SLO{MaxOverAllocate: 0.1}, "over_allocate"},
		{SLO{MinUtilization: 0.9}, "utilization"},
		{SLO{MinWorkUtilization: 0.9}, "work_utilization"},
		{SLO{MaxLiveP99Sec: 1}, "p99"},
		{SLO{MaxLiveP999Sec: 2}, "p999"},
		{SLO{MaxLiveFailRate: 0.1}, "fail_rate"},
	}
	for _, c := range cases {
		vs := c.slo.Check(res)
		if len(vs) != 1 {
			t.Fatalf("%+v produced %d violations, want 1", c.slo, len(vs))
		}
		if vs[0].Metric != c.metric {
			t.Fatalf("%+v tripped %q, want %q", c.slo, vs[0].Metric, c.metric)
		}
		if vs[0].String() == "" {
			t.Fatal("empty violation string")
		}
	}
	// Values at the limit do not trip ceilings.
	if vs := (SLO{MaxFailRate: 0.5}).Check(res); len(vs) != 0 {
		t.Fatalf("at-limit value tripped the gate: %v", vs)
	}
}

func TestSLOCheckPerTenant(t *testing.T) {
	res := &Result{
		Name: "t",
		Tenants: []ClassStats{
			{Class: "tenant1", Count: 100, Failed: 60},
			{Class: "tenant2", Count: 100, Failed: 0},
		},
		Victims: &VictimStats{FailRate: 0.05, BaselineFailRate: 0.01},
	}
	cases := []struct {
		slo    SLO
		metric string
	}{
		// The abuser's fail rate trips its ceiling.
		{SLO{PerTenant: []TenantSLO{{Tenant: 1, MaxFailRate: 0.5}}}, "fail_rate"},
		// An abuser below its fail-rate floor means quotas never bit.
		{SLO{PerTenant: []TenantSLO{{Tenant: 2, MinFailRate: 0.05}}}, "fail_rate_floor"},
		// Victims degraded vs the no-abuser baseline.
		{SLO{MaxVictimFailRateDelta: 0.02}, "fail_rate_delta"},
	}
	for _, c := range cases {
		vs := c.slo.Check(res)
		if len(vs) != 1 {
			t.Fatalf("%+v produced %d violations, want 1: %v", c.slo, len(vs), vs)
		}
		if vs[0].Metric != c.metric {
			t.Fatalf("%+v tripped %q, want %q", c.slo, vs[0].Metric, c.metric)
		}
	}
	// A satisfied tenant SLO produces nothing.
	ok := SLO{
		PerTenant: []TenantSLO{
			{Tenant: 1, MinFailRate: 0.5},
			{Tenant: 2, MaxFailRate: 0.01},
		},
		MaxVictimFailRateDelta: 0.1,
	}
	if vs := ok.Check(res); len(vs) != 0 {
		t.Fatalf("satisfied tenant SLO produced violations: %v", vs)
	}
}

// testSpec is a scaled-down scenario exercising every transform: Zipf
// redraw, tide, burst and mix, over the paper topology.
func testSpec() Spec {
	return Spec{
		Name:            "test-mini",
		Users:           300,
		ShortUsers:      100,
		DFSCs:           8,
		MeanArrivalSec:  60,
		HorizonSec:      240,
		ShortHorizonSec: 120,
		Files:           200,
		MeanDurationSec: 30, MinDurationSec: 10, MaxDurationSec: 60,
		TopologyScale: 1,
		ZipfSkew:      1.1,
		Tide:          &Tide{Cycles: 1, Amplitude: 0.5, PeakFrac: 0.25},
		Bursts:        []BurstSpec{{AtFrac: 0.4, DurFrac: 0.3, Fraction: 0.5, SurgeFactor: 0.5}},
		Mix: &workload.Mix{Shares: []workload.ClassShare{
			{Class: "bulk-write", Op: workload.OpWrite, Fraction: 0.05},
			{Class: "metadata", Op: workload.OpMeta, Fraction: 0.2},
		}},
		SLO: SLO{MaxFailRate: 0.9},
	}
}

// tenantSpec is a scaled-down two-tenant scenario: the abuser holds
// half the clients under a per-RM bandwidth cap tight enough to refuse
// most of its accesses, the victim tenant runs unlimited, and the
// victim gates compare against the no-abuser baseline pass.
func tenantSpec() Spec {
	return Spec{
		Name:            "tenant-mini",
		Users:           300,
		DFSCs:           8,
		MeanArrivalSec:  60,
		HorizonSec:      240,
		Files:           200,
		MeanDurationSec: 30, MinDurationSec: 10, MaxDurationSec: 60,
		TopologyScale: 1,
		Policy:        "(1,0,0,2)",
		Tenants: []TenantSpec{
			{ID: 1, Clients: 4, BandwidthMbps: 0.5, Abuser: true},
			{ID: 2, Clients: 4, Weight: 4},
		},
		SLO: SLO{
			MaxFailRate: 0.95,
			PerTenant: []TenantSLO{
				{Tenant: 1, MinFailRate: 0.05},
				{Tenant: 2, MaxFailRate: 0.01},
			},
			MaxVictimFailRateDelta: 0.005,
		},
	}
}

func TestRunMultiTenantIsolation(t *testing.T) {
	res, des, err := run(tenantSpec(), Options{Seed: 3, SkipLive: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tenants) != 2 {
		t.Fatalf("got %d tenant rows, want 2: %+v", len(res.Tenants), res.Tenants)
	}
	byLabel := map[string]ClassStats{}
	for _, c := range res.Tenants {
		byLabel[c.Class] = c
	}
	abuser, victim := byLabel["tenant1"], byLabel["tenant2"]
	if abuser.Count == 0 || victim.Count == 0 {
		t.Fatalf("a tenant dispatched nothing: %+v", res.Tenants)
	}
	if abuser.FailRate() < 0.05 {
		t.Fatalf("abuser fail rate %.4f: the quota never bit", abuser.FailRate())
	}
	if victim.FailRate() > 0.01 {
		t.Fatalf("victim fail rate %.4f: isolation leaked", victim.FailRate())
	}
	if res.Victims == nil {
		t.Fatal("no victim baseline comparison on an abuser scenario")
	}
	v := res.Victims
	if v.Requests == 0 || v.Requests != v.BaselineRequests {
		t.Fatalf("victim request counts diverged: %d vs baseline %d", v.Requests, v.BaselineRequests)
	}
	// The DES is deterministic, so with working isolation the victims'
	// fail rate must match the quiet world exactly.
	if v.FailRate != v.BaselineFailRate {
		t.Fatalf("victims fail rate %.4f vs baseline %.4f", v.FailRate, v.BaselineFailRate)
	}
	if !res.Pass {
		t.Fatalf("tenant scenario violated its SLO: %v", res.Violations)
	}
	// The abuser's refusal floor came from the ledger: the RMs refused
	// once per failed abuser access, every time for the tenant's
	// bandwidth, and never for anything else (soft admission refuses
	// nothing an unlimited tenant asks for). Lifting the quota leaves
	// nothing to refuse.
	var refused [ecnp.NumRefusals]int64
	for _, st := range des.RMStats {
		for why, n := range st.Refusals {
			refused[why] += n
		}
	}
	if refused[ecnp.ErrTenantBandwidth] != abuser.Failed {
		t.Fatalf("%d tenant-bandwidth refusals for %d failed abuser accesses", refused[ecnp.ErrTenantBandwidth], abuser.Failed)
	}
	refused[ecnp.ErrTenantBandwidth] = 0
	if refused != [ecnp.NumRefusals]int64{} {
		t.Fatalf("refusals besides the abuser's quota: %v", refused)
	}
}

func TestRunDESDeterministicUnderSeed(t *testing.T) {
	spec := testSpec()
	opts := Options{Seed: 3, SkipLive: true}
	r1, err := Run(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Requests == 0 {
		t.Fatal("run dispatched no requests")
	}
	// Wall-clock latency is not deterministic, but every simulation
	// outcome is: counts, failures, utilization, over-allocation.
	if r1.Requests != r2.Requests || r1.Failed != r2.Failed ||
		r1.Utilization != r2.Utilization || r1.OverAllocate != r2.OverAllocate {
		t.Fatalf("same seed diverged: %+v vs %+v", r1, r2)
	}
	r3, err := Run(spec, Options{Seed: 4, SkipLive: true})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Requests == r3.Requests && r1.Utilization == r3.Utilization {
		t.Fatal("different seeds produced identical runs")
	}
	// All three classes of the mix must appear.
	classes := map[string]bool{}
	for _, c := range r1.Classes {
		classes[c.Class] = true
	}
	for _, want := range []string{"video", "bulk-write", "metadata"} {
		if !classes[want] {
			t.Fatalf("class %q missing from %v", want, r1.Classes)
		}
	}
	if r1.Utilization <= 0 {
		t.Fatal("zero utilization on a loaded run")
	}
	if !r1.Pass {
		t.Fatalf("mini scenario violated its SLO: %v", r1.Violations)
	}
}

func TestRunShortModeShrinks(t *testing.T) {
	spec := testSpec()
	full, err := Run(spec, Options{Seed: 3, SkipLive: true})
	if err != nil {
		t.Fatal(err)
	}
	short, err := Run(spec, Options{Seed: 3, Short: true, SkipLive: true})
	if err != nil {
		t.Fatal(err)
	}
	if short.Users != spec.ShortUsers || short.HorizonSec != spec.ShortHorizonSec {
		t.Fatalf("short mode ran at (%d users, %.0fs)", short.Users, short.HorizonSec)
	}
	if short.Requests >= full.Requests {
		t.Fatalf("short mode dispatched %d requests vs full %d", short.Requests, full.Requests)
	}
}

func TestRunSLOViolationFailsScenario(t *testing.T) {
	spec := testSpec()
	spec.SLO = SLO{MinUtilization: 2} // unreachable: >2x capacity floor
	res, err := Run(spec, Options{Seed: 3, SkipLive: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Pass || len(res.Violations) == 0 {
		t.Fatal("unreachable SLO did not fail the scenario")
	}
	if res.Violations[0].Metric != "utilization" {
		t.Fatalf("unexpected violation %v", res.Violations[0])
	}
}

func TestBuiltinSpecsAreRunnable(t *testing.T) {
	specs := Builtin()
	if len(specs) < 4 {
		t.Fatalf("only %d builtin scenarios", len(specs))
	}
	seen := map[string]bool{}
	for _, s := range specs {
		if seen[s.Name] {
			t.Fatalf("duplicate scenario name %q", s.Name)
		}
		seen[s.Name] = true
		if s.Users < 100_000 {
			t.Fatalf("%s simulates %d clients, want >= 1e5 in full mode", s.Name, s.Users)
		}
		if s.ShortUsers == 0 || s.ShortUsers >= s.Users {
			t.Fatalf("%s lacks a reduced short-mode population", s.Name)
		}
		if s.Live == nil {
			t.Fatalf("%s has no live-TCP slice", s.Name)
		}
	}
	for _, want := range []string{"zipfian-hotset", "flash-crowd", "diurnal-tide", "mixed-storm", "noisy-neighbor"} {
		if _, err := Find(want); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Find("no-such-scenario"); err == nil {
		t.Fatal("unknown scenario resolved")
	}
}

func TestReportAggregatesAndWrites(t *testing.T) {
	results := []*Result{
		{Name: "a", Pass: true},
		{Name: "b", Pass: false, Violations: []Violation{{Scenario: "b", Metric: "p99", Value: 2, Limit: 1}}},
	}
	rep := NewReport(results, true, 7)
	if rep.Pass || rep.Violations != 1 || rep.Mode != "short" || rep.Seed != 7 {
		t.Fatalf("bad report envelope: %+v", rep)
	}
	var buf bytes.Buffer
	if err := rep.Write(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded Report
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Schema != ReportSchema || len(decoded.Scenarios) != 2 {
		t.Fatalf("round-trip lost data: %+v", decoded)
	}
}

func TestRunAllMini(t *testing.T) {
	spec := testSpec()
	rep, err := RunAll([]Spec{spec}, Options{Seed: 3, Short: true, SkipLive: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Scenarios) != 1 || !rep.Pass {
		t.Fatalf("bad report: %+v", rep)
	}
}

func TestRunLiveSlice(t *testing.T) {
	if testing.Short() {
		t.Skip("live TCP slice")
	}
	spec := testSpec()
	spec.SLO.MaxLiveFailRate = 0.9
	spec.Live = &LiveSpec{StreamReads: true}
	res, err := Run(spec, Options{Seed: 5, Short: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Live == nil {
		t.Fatal("live slice did not run")
	}
	if res.Live.Requests == 0 {
		t.Fatal("live slice issued no requests")
	}
	if res.Live.BytesStreamed == 0 {
		t.Fatal("streaming slice delivered no bytes")
	}
	if res.Live.TraceSpans == 0 {
		t.Fatal("tracer recorded no spans")
	}
	if len(res.Live.Classes) == 0 {
		t.Fatal("live slice recorded no classes")
	}
}

// TestFlashCrowdOutcomePinned pins what the flash-crowd scenario decides,
// not only that a binary agrees with itself: the benchmark's des_flash
// instance (a third of the builtin's horizon, seed 1) must dispatch,
// refuse and replicate exactly these counts. A change that is meant to
// move only the cost of the replication path leaves them alone; one that
// changes a decision's key, or the draws under one key (a reordered
// candidate list), moves them and has to re-baseline here on purpose.
func TestFlashCrowdOutcomePinned(t *testing.T) {
	spec, err := Find("flash-crowd")
	if err != nil {
		t.Fatal(err)
	}
	spec.HorizonSec = 200
	res, err := Run(spec, Options{Seed: 1, SkipLive: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 13382 || res.Failed != 3111 || res.Replications != 90 {
		t.Fatalf("requests / failed / replications = %d / %d / %d, want 13382 / 3111 / 90",
			res.Requests, res.Failed, res.Replications)
	}
}
