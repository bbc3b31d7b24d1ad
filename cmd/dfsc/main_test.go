package main

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"dfsqos/internal/catalog"
	"dfsqos/internal/cluster"
	"dfsqos/internal/ids"
	"dfsqos/internal/live"
	"dfsqos/internal/units"
	"dfsqos/internal/workload"
)

// TestCheckPatternFiles: a pattern whose files all lie in the catalog
// passes, and the first request past its end fails, naming -files, so a
// replay stops before it sends anything rather than panicking mid-run.
func TestCheckPatternFiles(t *testing.T) {
	p := &workload.Pattern{Requests: []workload.Request{
		{AtSec: 1, File: 0}, {AtSec: 2, File: 19}, {AtSec: 3, File: 20}, {AtSec: 4, File: 999},
	}}
	if err := checkPatternFiles(p, 1000); err != nil {
		t.Fatalf("pattern within a 1000-file catalog: %v", err)
	}
	err := checkPatternFiles(p, 20)
	if err == nil {
		t.Fatal("file 20 of a 20-file catalog passed")
	}
	if !strings.Contains(err.Error(), "request 2") || !strings.Contains(err.Error(), "-files") {
		t.Fatalf("error %q names neither the first request past the catalog nor -files", err)
	}
	p.Requests = []workload.Request{{File: ids.FileID(-1)}}
	if checkPatternFiles(p, 20) == nil {
		t.Fatal("negative file id passed")
	}
}

// deploy starts an in-process deployment of the corpus dfsc derives from
// -seed 1, -files files, -num-rms rms and -degree degree: RMs at 100 Mbps,
// with no lease TTL, so nothing but a client's close releases a
// reservation. It returns the cluster and those flags.
func deploy(t *testing.T, files, rms, degree int) (*live.Local, []string) {
	t.Helper()
	catCfg := catalog.DefaultConfig()
	catCfg.NumFiles = files
	cat, placement, err := cluster.SeededCorpus(1, catCfg, rms, degree)
	if err != nil {
		t.Fatal(err)
	}
	holders := map[ids.FileID][]ids.RMID{}
	for _, f := range placement.Files() {
		holders[f] = placement.Holders(f)
	}
	caps := make([]units.BytesPerSec, rms)
	for i := range caps {
		caps[i] = units.Mbps(100)
	}
	lc, err := live.NewLocal(live.LocalSpec{Catalog: cat, Caps: caps, Holders: holders})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lc.Close)
	return lc, []string{"-mm", lc.MM.Addr(), "-seed", "1", "-files", strconv.Itoa(files),
		"-num-rms", strconv.Itoa(rms), "-degree", strconv.Itoa(degree)}
}

// TestExitReleasesReservations: dfsc's exit runs the closes its accesses
// scheduled, so an RM with no lease TTL holds nothing once dfsc returns,
// and a second run is admitted in full. Were the closes cancelled at exit,
// the reservations would stay held and the second run's request ids,
// which restart at 1, would be refused as duplicates.
func TestExitReleasesReservations(t *testing.T) {
	lc, flags := deploy(t, 4, 2, 2)
	for run1 := 1; run1 <= 2; run1++ {
		var out strings.Builder
		if err := run(append(flags, "-n", "3", "-gap", "0"), &out); err != nil {
			t.Fatalf("run %d: %v", run1, err)
		}
		if !strings.Contains(out.String(), " 3 admitted") {
			t.Fatalf("run %d: %q, want 3 admitted", run1, out.String())
		}
		for _, node := range lc.Serving() {
			if n := node.ActiveReservations(); n != 0 {
				t.Fatalf("run %d: %v holds %d reservation(s) after dfsc exited", run1, node.Info().ID, n)
			}
		}
	}
}

// TestReplayHonoursOp: a -replay pattern's write row is stored (its file
// gains a replica, through an ingest open) and its metadata row only asks
// the MM (no CFP, no open); sent as reads, each would have been one CFP
// and one open on a holder.
func TestReplayHonoursOp(t *testing.T) {
	lc, flags := deploy(t, 4, 2, 1)
	const wrote, probed = ids.FileID(0), ids.FileID(1)
	p := &workload.Pattern{
		Config: workload.Config{NumUsers: 1, NumDFSC: 1, MeanArrivalSec: 1, HorizonSec: 1},
		Requests: []workload.Request{
			{AtSec: 0, File: wrote, Op: workload.OpWrite},
			{AtSec: 0, File: probed, Op: workload.OpMeta},
		},
	}
	var out strings.Builder
	if err := run(append(flags, "-replay", savePattern(t, p)), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "2 admitted") {
		t.Fatalf("%q, want 2 admitted", out.String())
	}
	if n := lc.Manager.ReplicaCount(wrote); n != 2 {
		t.Errorf("written file has %d replica(s), want 2: the write was not stored", n)
	}
	var cfps, opens int64
	for _, node := range lc.Serving() {
		cfps += node.Stats().CFPs
		opens += node.Stats().Opens
	}
	// The store's CFP reaches both RMs and it opens one ingest; the probe
	// reaches no RM.
	if cfps != 2 || opens != 1 {
		t.Errorf("RMs saw %d CFP(s) and %d open(s), want 2 and 1", cfps, opens)
	}
}

// TestReplayWriteRefusedEverywhere: a write of a file every RM already
// holds is refused by each of them, and the failure carries the last
// refusal's code, so dfsc counts it refused, not a fault, and exits 0.
func TestReplayWriteRefusedEverywhere(t *testing.T) {
	_, flags := deploy(t, 4, 2, 2)
	p := &workload.Pattern{
		Config:   workload.Config{NumUsers: 1, NumDFSC: 1, MeanArrivalSec: 1, HorizonSec: 1},
		Requests: []workload.Request{{AtSec: 0, File: 0, Op: workload.OpWrite}},
	}
	var out strings.Builder
	if err := run(append(flags, "-replay", savePattern(t, p)), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "1 requests, 0 admitted, 1 failed") {
		t.Fatalf("%q, want 1 requests, 0 admitted, 1 failed", out.String())
	}
}

// savePattern writes p where workload.Load reads it and returns the path.
func savePattern(t *testing.T, p *workload.Pattern) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "pattern.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := p.Save(f); err != nil {
		t.Fatal(err)
	}
	return path
}
