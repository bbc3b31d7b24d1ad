package scenario

import (
	"runtime/metrics"
	"testing"

	"dfsqos/internal/dfsc"
	"dfsqos/internal/testenv"
	"dfsqos/internal/workload"
)

// The benchmark's two DES workloads, des_steady and des_flash, copied as
// literals the way bench/des_workloads.go copies them, so that a change to
// a builtin scenario does not move what this witness measures.
var (
	costSteady = Spec{
		Name:  "zipfian-hotset",
		Users: 100_000, DFSCs: 64, MeanArrivalSec: 300, HorizonSec: 600,
		Files:           4_000,
		MeanDurationSec: 60, MinDurationSec: 15, MaxDurationSec: 180,
		TopologyScale: 64,
		ZipfSkew:      1.1,
	}
	costFlash = Spec{
		Name:  "flash-crowd",
		Users: 100_000, DFSCs: 64, MeanArrivalSec: 1800, HorizonSec: 200,
		Files:           2_000,
		MeanDurationSec: 60, MinDurationSec: 15, MaxDurationSec: 180,
		TopologyScale: 16,
		Firm:          true,
		RepNRep:       1, RepNMaxR: 8,
		Bursts: []BurstSpec{{AtFrac: 0.3, DurFrac: 0.4, Fraction: 0.35, SurgeFactor: 0.5}},
	}
)

// TestDESRequestCost is the DES's cost witness, run at full scale and
// seed 1. The work a run does is pinned exactly: its requests, failures
// and replications (its outcome), the events it fires, the control-plane
// messages its clients exchange and the replication attempts that read
// their file's count at its cap, each of which asks the MM for that
// count alone. The heap objects it allocates per request are
// pinned from above, counted in the event loop alone, from the first
// arrival's dispatch to the last one's.
//
// What a request still allocates is, on both shapes, the close records a
// client makes while its closes in flight grow, and map growth in the
// RMs; on the flash crowd, also the replication agent's transfers. Map
// growth depends on each map's random hash seed, so the count spreads
// between runs: over 18 runs at GOMAXPROCS 1, 2, 4 and 8, 0.130–0.140 on
// the steady shape (median 0.134) and 0.40–0.78 on the flash crowd
// (median 0.52). Each ceiling is the median run plus that spread. One
// more allocation per RM.Open adds 1.0 per request on the steady shape
// and about 2.6 on the flash crowd, whose firm reads open ranked RMs
// until one admits; either ceiling catches it.
func TestDESRequestCost(t *testing.T) {
	if testing.Short() {
		t.Skip("two full-scale DES runs")
	}
	if testenv.RaceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	for _, tc := range []struct {
		spec                           Spec
		requests, failed, replications int64
		events                         uint64
		messages                       int64
		capped                         int64
		maxObjects                     float64
	}{
		{costSteady, 200_513, 0, 0, 384_144, 2_005_130, 0, 0.15},
		{costFlash, 13_382, 3_111, 90, 20_927, 204_424, 10_686, 0.90},
	} {
		t.Run(tc.spec.Name, func(t *testing.T) {
			d, err := configure(tc.spec, Options{Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			cl, err := d.build(tc.spec, 1)
			if err != nil {
				t.Fatal(err)
			}
			arrivals := cl.Pattern().Len()
			sample := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
			objects := func() uint64 {
				metrics.Read(sample)
				return sample[0].Value.Uint64()
			}
			rec := NewRecorder()
			seen := 0
			var from, to uint64
			res, err := cl.RunWithObserver(func(req workload.Request, out dfsc.Outcome) {
				rec.Count(classOf(req), out.OK)
				switch seen++; seen {
				case 1:
					from = objects()
				case arrivals:
					to = objects()
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.TotalRequests != tc.requests || res.FailedRequests != tc.failed || res.Replications != tc.replications {
				t.Errorf("requests %d, failed %d, replications %d; want %d, %d, %d",
					res.TotalRequests, res.FailedRequests, res.Replications, tc.requests, tc.failed, tc.replications)
			}
			if res.Events != tc.events || res.Messages != tc.messages {
				t.Errorf("events %d, messages %d; want %d, %d", res.Events, res.Messages, tc.events, tc.messages)
			}
			var capped int64
			for _, st := range res.RMStats {
				capped += st.RepCapped
			}
			if capped != tc.capped {
				t.Errorf("%d replication attempts on a file at its cap, want %d", capped, tc.capped)
			}
			perRequest := float64(to-from) / float64(arrivals-1)
			t.Logf("%d requests: %.4f events, %.3f messages and %.4f heap objects per request",
				res.TotalRequests, float64(res.Events)/float64(res.TotalRequests),
				float64(res.Messages)/float64(res.TotalRequests), perRequest)
			if perRequest > tc.maxObjects {
				t.Errorf("%.4f heap objects per request in the event loop, want at most %.2f", perRequest, tc.maxObjects)
			}
		})
	}
}
