package rm

import (
	"slices"
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

// referenceBusiest is the ranking the agent made before the RM kept a
// running one: a pass over the CFP count of every file ever requested,
// the held ones kept, then BusiestCovering. counts holds those counts, as
// RM.counts did for every file then. Caller holds r.mu.
func referenceBusiest(r *RM, counts map[ids.FileID]int64) []ids.FileID {
	var fcs []replication.FileCount
	for f, c := range counts {
		if r.holdsLocked(f) {
			fcs = append(fcs, replication.FileCount{File: f, Count: c})
		}
	}
	return replication.BusiestCovering(fcs, r.repCfg.BusyCoverage, nil)
}

// FuzzBusiestRanking runs a random sequence of CFPs for held and unheld
// files against one RM, interleaved with the edits that move a file in or
// out of its table: write-opens, some undone by a refused registration;
// replica offers committed and aborted; garbage-collected replicas and
// migrations. A 9 Mbit/s reservation on the 10 Mbit/s disk, taken and
// released by its own op, puts the RM under B_TH, where every CFP runs
// the agent unless a copy is incoming. After every run the agent's
// ranking must equal referenceBusiest over the CFPs sent so far, and
// after every op Check must pass, which recomputes the count total and
// the top file.
func FuzzBusiestRanking(f *testing.F) {
	// Each op is two bytes: what happens, and the file and duration it
	// happens with.
	f.Add([]byte{10, 0, 0, 5, 0, 5, 0, 5, 1, 1, 0, 2, 3, 5, 0, 5, 4, 6, 0, 6, 0, 6, 0, 0, 0, 0, 8, 0, 0, 1, 9, 0, 0, 1, 0, 2})
	f.Add([]byte{0, 7, 0, 7, 3, 7, 10, 0, 0, 7, 0, 1, 5, 9, 0, 9, 10, 0, 6, 0, 10, 1, 0, 9, 0, 9, 0, 9, 9, 9, 0, 1, 8, 2, 0, 3})
	f.Add([]byte{10, 0, 0, 1, 0, 2, 0, 3, 0, 0, 0, 1, 0, 2, 0, 3, 9, 1, 0, 2, 10, 0, 5, 8, 7, 0, 5, 8, 6, 0, 10, 0, 0, 8, 8, 0, 0, 8})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const (
			numFiles = 12
			sentinel = ids.FileID(-1)
		)
		mapper := &flakyMapper{Manager: mm.New()}
		r := newRankingRM(t, mapper)
		var (
			counts    = map[ids.FileID]int64{}
			req       ids.RequestID
			rep       ids.ReplicationID
			reps      []ids.ReplicationID
			saturated bool
		)
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i], int(ops[i+1])
			f := ids.FileID(arg % numFiles)
			dur := float64(5 + arg*7%97)
			switch op % 11 {
			case 0, 1, 2: // CFP, for a held file or not
				counts[f]++
				r.mu.Lock()
				r.busiest = append(r.busiest[:0], sentinel)
				r.mu.Unlock()
				r.HandleCFP(ecnp.CFP{Request: req, File: f, Bitrate: units.Mbps(1), DurationSec: dur})
				r.mu.Lock()
				ran := !slices.Equal(r.busiest, []ids.FileID{sentinel})
				got, want := r.busiest, referenceBusiest(r, counts)
				r.mu.Unlock()
				if due := saturated && len(reps) == 0; ran != due {
					t.Fatalf("op %d: the agent ran = %v; saturated = %v with %d copies incoming", i/2, ran, saturated, len(reps))
				}
				if ran && !slices.Equal(got, want) {
					t.Fatalf("op %d: CFP for file %v ranks %v busiest, the reference %v", i/2, f, got, want)
				}
			case 3: // write-open, stored and registered
				req++
				r.Open(ecnp.OpenRequest{Request: req, File: f, Bitrate: units.Mbps(1), DurationSec: dur, SizeBytes: units.Size(dur) * units.MB / 8})
				r.Close(req)
			case 4: // write-open whose registration fails: undone
				req++
				mapper.refuse = true
				r.Open(ecnp.OpenRequest{Request: req, File: f, Bitrate: units.Mbps(1), DurationSec: dur, SizeBytes: units.MB})
				mapper.refuse = false
			case 5: // replica offer
				rep++
				if r.OfferReplica(ecnp.ReplicaOffer{Replication: rep, File: f, SizeBytes: units.Size(dur) * units.MB / 8,
					Bitrate: units.Mbps(1), DurationSec: dur, Rate: units.Mbps(10), Source: 2}) {
					reps = append(reps, rep)
				}
			case 6, 7: // an offer finishes: committed (the collector may then run) or aborted
				if len(reps) == 0 {
					continue
				}
				done := reps[0]
				reps = reps[1:]
				r.FinishReplica(done, op%11 == 6)
			case 8: // the collector runs
				r.collectGarbage()
			case 9: // the RM migrates its replica of f away
				r.migrateOut(f)
			case 10: // the disk saturates, or the saturating stream ends
				if saturated {
					r.Close(saturator)
				} else {
					saturate(t, r)
				}
				saturated = !saturated
			}
			if err := r.Check(false); err != nil {
				t.Fatalf("op %d: %v", i/2, err)
			}
		}
	})
}

// newRankingRM returns RM 1, holding files 0 to 3 and collecting garbage,
// registered with mapper beside RM 2, which holds every file from 0 to 11,
// so the collector and a migration may drop RM 1's copy, and RMs 3 and 4,
// which hold none and are the agent's candidates. The RM's directory
// resolves none of them, so no copy ever starts and no cooldown holds the
// agent back.
func newRankingRM(t testing.TB, mapper *flakyMapper) *RM {
	t.Helper()
	seeded := map[ids.FileID]FileMeta{}
	for f := ids.FileID(0); f < 4; f++ {
		seeded[f] = fm(units.Mbps(1), float64(30+17*f))
	}
	r, err := New(Options{
		Info:        ecnp.RMInfo{ID: 1, Capacity: units.Mbps(10), StorageBytes: 40 * units.MB},
		Scheduler:   ecnp.SimScheduler{S: simtime.NewScheduler()},
		Mapper:      mapper,
		History:     history.DefaultConfig(),
		Replication: replication.DefaultConfig(replication.Rep(1, 2)),
		GC:          replication.GCConfig{Enabled: true, HighWatermark: 0.5, LowWatermark: 0.3, MinReplicas: 1},
		Rand:        rng.New(3),
		Files:       seeded,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := mapper.RegisterRM(ecnp.RMInfo{ID: 2, Capacity: units.Mbps(100)}, []ids.FileID{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}); err != nil {
		t.Fatal(err)
	}
	for id := ids.RMID(3); id <= 4; id++ {
		if err := mapper.RegisterRM(ecnp.RMInfo{ID: id, Capacity: units.Mbps(100)}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Register(); err != nil {
		t.Fatal(err)
	}
	r.SetDirectory(new(ecnp.StaticDirectory))
	return r
}

// saturator is the request saturate opens.
const saturator = ids.RequestID(1 << 40)

// saturate opens a 9 Mbit/s stream on the RM's 10 Mbit/s disk, which puts
// it under B_TH: from then on every CFP runs the agent unless a copy is
// incoming. Closing saturator ends it.
func saturate(t testing.TB, r *RM) {
	t.Helper()
	if res := r.Open(ecnp.OpenRequest{Request: saturator, File: 0, Bitrate: units.Mbps(9), DurationSec: 1e6}); !res.OK {
		t.Fatalf("saturating open refused: %s", res.Reason)
	}
}

// TestBusiestFromRunningTop runs the agent on a saturated RM. While one
// file covers the coverage target alone, each run ranks it from the
// running top without a pass over the table, which leaves the pass's
// buffer nil. A migration that drops the top file ranks the table again
// at once, and a run whose top file does not cover the target passes
// over the table.
func TestBusiestFromRunningTop(t *testing.T) {
	r := newRankingRM(t, &flakyMapper{Manager: mm.New()})
	saturate(t, r)
	cfp := func(f ids.FileID, want []ids.FileID, pass bool) {
		t.Helper()
		r.mu.Lock()
		r.fileCounts = nil
		r.mu.Unlock()
		r.HandleCFP(ecnp.CFP{File: f, Bitrate: units.Mbps(1), DurationSec: 30})
		r.mu.Lock()
		defer r.mu.Unlock()
		if !slices.Equal(r.busiest, want) {
			t.Fatalf("CFP for %v: busiest %v, want %v", f, r.busiest, want)
		}
		if passed := r.fileCounts != nil; passed != pass {
			t.Fatalf("CFP for %v: the run passed over the table = %v, want %v", f, passed, pass)
		}
	}
	cfp(0, []ids.FileID{0}, false)
	cfp(1, []ids.FileID{0}, false)
	cfp(0, []ids.FileID{0}, false)
	cfp(2, []ids.FileID{0}, false) // counts 2, 1, 1: file 0 covers half
	r.migrateOut(0)
	cfp(1, []ids.FileID{1}, false) // counts 2, 1
	cfp(2, []ids.FileID{1}, false) // counts 2, 2: the lower ID ranks first
	cfp(3, []ids.FileID{1, 2}, true)
	if err := r.Check(false); err != nil {
		t.Fatal(err)
	}
}
