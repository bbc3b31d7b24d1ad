package cluster

import (
	"math"
	"strings"
	"testing"
	"time"

	"dfsqos/internal/dfsc"
	"dfsqos/internal/ids"
	"dfsqos/internal/workload"
)

func TestUsePatternReplacesWorkload(t *testing.T) {
	cfg := quickConfig()
	cl, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A hand-built trace: three requests for file 0 through DFSC 0.
	p := &workload.Pattern{
		Config: workload.Config{NumUsers: 1, NumDFSC: 1, MeanArrivalSec: 100, HorizonSec: 400},
		Requests: []workload.Request{
			{AtSec: 10, User: 0, DFSC: 0, File: 0},
			{AtSec: 20, User: 0, DFSC: 0, File: 0},
			{AtSec: 30, User: 0, DFSC: 0, File: 1},
		},
	}
	if err := cl.UsePattern(p); err != nil {
		t.Fatal(err)
	}
	res, err := cl.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalRequests != 3 {
		t.Fatalf("ran %d requests, want the trace's 3", res.TotalRequests)
	}
}

func TestUsePatternValidation(t *testing.T) {
	cl, err := Build(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Too many DFSCs.
	bad := &workload.Pattern{
		Config:   workload.Config{NumUsers: 1, NumDFSC: 99, MeanArrivalSec: 1, HorizonSec: 10},
		Requests: []workload.Request{{AtSec: 1, DFSC: 98, File: 0}},
	}
	if err := cl.UsePattern(bad); err == nil {
		t.Fatal("over-wide trace accepted")
	}
	// File beyond the catalog.
	bad = &workload.Pattern{
		Config:   workload.Config{NumUsers: 1, NumDFSC: 1, MeanArrivalSec: 1, HorizonSec: 10},
		Requests: []workload.Request{{AtSec: 1, DFSC: 0, File: ids.FileID(10_000)}},
	}
	if err := cl.UsePattern(bad); err == nil {
		t.Fatal("out-of-catalog trace accepted")
	}
	// Horizon beyond the run.
	bad = &workload.Pattern{
		Config:   workload.Config{NumUsers: 1, NumDFSC: 1, MeanArrivalSec: 1, HorizonSec: 1e9},
		Requests: []workload.Request{{AtSec: 1, DFSC: 0, File: 0}},
	}
	if err := cl.UsePattern(bad); err == nil {
		t.Fatal("over-long trace accepted")
	}
	// Invalid pattern (out of order).
	bad = &workload.Pattern{
		Config: workload.Config{NumUsers: 1, NumDFSC: 1, MeanArrivalSec: 1, HorizonSec: 10},
		Requests: []workload.Request{
			{AtSec: 5, DFSC: 0, File: 0},
			{AtSec: 1, DFSC: 0, File: 0},
		},
	}
	if err := cl.UsePattern(bad); err == nil {
		t.Fatal("unordered trace accepted")
	}
}

// The scheduler is fed the pattern as a sorted stream, so sortedness is
// load-bearing: a pattern edited out of order after Build (the scenario
// shapes edit it in place) is refused with the offending request named,
// never silently reordered, and nothing is dispatched.
func TestRunRefusesOutOfOrderPattern(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(reqs []workload.Request)
		want string
	}{
		{"swapped pair", func(r []workload.Request) { r[7], r[8] = r[8], r[7] }, "request 8 arrives at"},
		{"NaN", func(r []workload.Request) { r[3].AtSec = math.NaN() }, "request 3 arrives at NaN"},
		{"before the clock", func(r []workload.Request) { r[0].AtSec = -1 }, "request 0 arrives at -1.000s"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cl, err := Build(quickConfig())
			if err != nil {
				t.Fatal(err)
			}
			reqs := cl.Pattern().Requests
			if reqs[7].AtSec == reqs[8].AtSec {
				t.Fatal("requests 7 and 8 arrive together; pick another pair")
			}
			tc.edit(reqs)
			dispatched := 0
			res, err := cl.RunWithObserver(func(workload.Request, dfsc.Outcome, time.Duration) { dispatched++ })
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Run returned (%v, %v), want an error mentioning %q", res, err, tc.want)
			}
			if dispatched != 0 {
				t.Fatalf("%d requests dispatched from a refused pattern", dispatched)
			}
		})
	}
}

// A second Run on the same cluster finds the clock at the horizon and
// every arrival behind it: an error, not a panic from the scheduler.
func TestRunTwiceIsAnError(t *testing.T) {
	cl, err := Build(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Run(); err == nil || !strings.Contains(err.Error(), "request 0 arrives at") {
		t.Fatalf("second Run returned %v", err)
	}
}

func TestShardedMMIsMetricNeutral(t *testing.T) {
	base := quickConfig()
	base.Workload.NumUsers = 192
	single, err := RunConfig(base)
	if err != nil {
		t.Fatal(err)
	}
	base.MMShards = 4
	sharded, err := RunConfig(base)
	if err != nil {
		t.Fatal(err)
	}
	// Metadata partitioning must not change any QoS outcome.
	if single.TotalRequests != sharded.TotalRequests ||
		single.FailedRequests != sharded.FailedRequests ||
		single.OverAllocate != sharded.OverAllocate {
		t.Fatalf("sharded MM changed outcomes: single %+v vs sharded %+v",
			single.OverAllocate, sharded.OverAllocate)
	}
}
