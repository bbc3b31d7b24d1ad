package invariants

import (
	"errors"
	"strings"
	"testing"

	"dfsqos/internal/ecnp"
	"dfsqos/internal/history"
	"dfsqos/internal/ids"
	"dfsqos/internal/mm"
	"dfsqos/internal/replication"
	"dfsqos/internal/rm"
	"dfsqos/internal/rng"
	"dfsqos/internal/simtime"
	"dfsqos/internal/units"
)

// deployment registers two 18 Mbit/s RMs with mapper: RM1 holds file0,
// RM2 holds file0 and file1.
func deployment(t *testing.T) (*mm.Manager, []*rm.RM) {
	t.Helper()
	mapper := mm.New()
	sched := ecnp.SimScheduler{S: simtime.NewScheduler()}
	meta := rm.FileMeta{Bitrate: units.Mbps(1), Size: units.MB, DurationSec: 8}
	var rms []*rm.RM
	for id, files := range [][]ids.FileID{{0}, {0, 1}} {
		held := make(map[ids.FileID]rm.FileMeta)
		for _, f := range files {
			held[f] = meta
		}
		r, err := rm.New(rm.Options{
			Info:        ecnp.RMInfo{ID: ids.RMID(id + 1), Capacity: units.Mbps(18), StorageBytes: units.GB},
			Scheduler:   sched,
			Mapper:      mapper,
			History:     history.DefaultConfig(),
			Replication: replication.DefaultConfig(replication.Static()),
			Rand:        rng.New(uint64(id)),
			Files:       held,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Register(); err != nil {
			t.Fatal(err)
		}
		rms = append(rms, r)
	}
	return mapper, rms
}

// wantViolations fails t unless err names each of want, or, with no want,
// is nil.
func wantViolations(t *testing.T, err error, want ...string) {
	t.Helper()
	if len(want) == 0 && err != nil {
		t.Fatalf("Check: %v, want none", err)
	}
	if len(want) > 0 && err == nil {
		t.Fatalf("Check passed, want %q", want)
	}
	for _, w := range want {
		if !strings.Contains(err.Error(), w) {
			t.Fatalf("Check: %v, want %q", err, w)
		}
	}
}

func TestCheckPassesAHealthyDeployment(t *testing.T) {
	mapper, rms := deployment(t)
	sys := System{RMs: rms, Firm: true, Mapper: mapper, Files: 2, MaxReplicas: 2}
	wantViolations(t, Check(sys))
	if res := rms[1].Open(ecnp.OpenRequest{Request: 1, File: 1, Bitrate: units.Mbps(2), DurationSec: 8, Firm: true}); !res.OK {
		t.Fatal(res.Reason)
	}
	wantViolations(t, Check(sys))
	sys.AtRest = true
	wantViolations(t, Check(sys), "RM2 holds 1 reservation(s), 2.00 Mbit/s allocated, at rest")
	rms[1].Close(1)
	wantViolations(t, Check(sys))
}

func TestCheckRunsEveryRMsCheck(t *testing.T) {
	_, rms := deployment(t)
	rms[0].Open(ecnp.OpenRequest{Request: 1, File: 0, Bitrate: units.Mbps(20), DurationSec: 8})
	wantViolations(t, Check(System{RMs: rms}))
	wantViolations(t, Check(System{RMs: rms, Firm: true}), "RM1: reservations hold 20.00 Mbit/s in firm mode")
}

func TestCheckReplicaCounts(t *testing.T) {
	mapper, rms := deployment(t)
	wantViolations(t, Check(System{RMs: rms, Mapper: mapper, Files: 3, MaxReplicas: 1}),
		"file0 has 2 replica(s), want 1..1", "file2 has 0 replica(s), want 1..1")
}

func TestCheckHoldersHoldTheirFiles(t *testing.T) {
	mapper, rms := deployment(t)
	if err := mapper.AddReplica(1, 1); err != nil {
		t.Fatal(err)
	}
	wantViolations(t, Check(System{RMs: rms, Mapper: mapper, Files: 2, MaxReplicas: 3}),
		"the MM maps file1 on RM1, which does not hold it")
	// A holder outside the checked RMs cannot answer for its files.
	wantViolations(t, Check(System{RMs: rms[:1], Mapper: mapper, Files: 2, MaxReplicas: 3}),
		"the MM maps file0 on RM2")
}

// brokenMap is a replica map whose own validation fails.
type brokenMap struct{ Mapper }

func (brokenMap) Validate() error { return errors.New("holder sets diverge") }

func TestCheckValidatesTheMap(t *testing.T) {
	mapper, rms := deployment(t)
	wantViolations(t, Check(System{RMs: rms, Mapper: brokenMap{mapper}, Files: 2, MaxReplicas: 2}),
		"replica map: holder sets diverge")
}
