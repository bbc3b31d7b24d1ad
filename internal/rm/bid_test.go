package rm

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"dfsqos/internal/ecnp"
	"dfsqos/internal/history"
	"dfsqos/internal/ids"
	"dfsqos/internal/mm"
	"dfsqos/internal/replication"
	"dfsqos/internal/rng"
	"dfsqos/internal/selection"
	"dfsqos/internal/simtime"
	"dfsqos/internal/telemetry"
	"dfsqos/internal/tenant"
	"dfsqos/internal/units"
)

// TestBidClampCountedOnlyNearQuota: a capped tenant's bids always
// advertise floors no higher than its remaining allowance, but a clamp is
// counted only while that allowance is below the CFP's bitrate — when the
// quota, not the disk, is what the tenant runs into.
func TestBidClampCountedOnlyNearQuota(t *testing.T) {
	const tn = ids.TenantID(1)
	reg := telemetry.NewRegistry()
	tenants := tenant.NewLedger()
	tenants.SetMetrics(tenant.NewMetrics(reg))
	tenants.Set(tn, tenant.Quota{Bandwidth: units.Mbps(8), Bytes: tenant.NoLimit})
	r, err := New(Options{
		Info:        ecnp.RMInfo{ID: 1, Capacity: units.Mbps(10), StorageBytes: units.GB},
		Scheduler:   ecnp.SimScheduler{S: simtime.NewScheduler()},
		Mapper:      mm.New(),
		History:     history.DefaultConfig(),
		Replication: staticCfg(),
		Rand:        rng.New(1),
		Files:       map[ids.FileID]FileMeta{0: fm(units.Mbps(1), 8)},
		Tenants:     tenants,
	})
	if err != nil {
		t.Fatal(err)
	}
	clamps := func() float64 {
		t.Helper()
		var b strings.Builder
		if err := reg.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		prefix := fmt.Sprintf("dfsqos_tenant_bid_clamps_total{tenant=%q} ", tn.String())
		for _, line := range strings.Split(b.String(), "\n") {
			if v, ok := strings.CutPrefix(line, prefix); ok {
				var n float64
				fmt.Sscan(v, &n)
				return n
			}
		}
		t.Fatal("no clamp series for the tenant")
		return 0
	}
	cfp := func(req ids.RequestID) selection.Bid {
		t.Helper()
		bid := r.HandleCFP(ecnp.CFP{Request: req, File: 0, Bitrate: units.Mbps(1), DurationSec: 8, Tenant: tn})
		rem, _ := tenants.RemainingBandwidth(tn)
		if bid.Assured > rem || bid.Ceil > rem {
			t.Fatalf("bid advertises assured %v, ceiling %v with %v of the quota left", bid.Assured, bid.Ceil, rem)
		}
		return bid
	}

	// Far below quota: the 10 Mbit/s disk's floors are clamped to the
	// tenant's 8 Mbit/s, and nothing is counted.
	if bid := cfp(1); bid.Assured != units.Mbps(8) || bid.Ceil != units.Mbps(8) {
		t.Fatalf("bid advertises assured %v, ceiling %v, want the 8 Mbit/s allowance", bid.Assured, bid.Ceil)
	}
	// Seven streams leave exactly one request's bitrate: still no clamp.
	for req := ids.RequestID(1); req <= 7; req++ {
		if res := r.Open(ecnp.OpenRequest{Request: req, File: 0, Bitrate: units.Mbps(1), DurationSec: 8, Tenant: tn}); !res.OK {
			t.Fatal(res.Reason)
		}
		cfp(100 + req)
	}
	if n := clamps(); n != 0 {
		t.Fatalf("%v clamps counted with the allowance at or above the bitrate", n)
	}
	// The eighth uses up the quota: every CFP now counts one clamp.
	if res := r.Open(ecnp.OpenRequest{Request: 8, File: 0, Bitrate: units.Mbps(1), DurationSec: 8, Tenant: tn}); !res.OK {
		t.Fatal(res.Reason)
	}
	for i := 1; i <= 3; i++ {
		if bid := cfp(ids.RequestID(200 + i)); bid.Assured != 0 || bid.Ceil != 0 {
			t.Fatalf("bid advertises assured %v, ceiling %v with the quota spent", bid.Assured, bid.Ceil)
		}
		if n := clamps(); n != float64(i) {
			t.Fatalf("%v clamps after %d CFPs over quota, want %d", n, i, i)
		}
	}
	// Closing one stream gives the allowance back: counting stops.
	r.Close(1)
	cfp(300)
	if n := clamps(); n != 3 {
		t.Fatalf("%v clamps after the allowance came back, want 3", n)
	}
}

// referenceOccBias is the per-CFP occupation bias HandleCFP computed
// before held files kept theirs: exp(−T_ocp_avg/T_ocp) from the table's
// running duration sum, at the held file's duration or, for a file the
// RM does not hold, the CFP's. Caller holds r.mu.
func referenceOccBias(r *RM, cfp ecnp.CFP) float64 {
	tOcp := cfp.DurationSec
	if e, known := r.files[cfp.File]; known {
		tOcp = e.meta.DurationSec
	}
	tOcpAvg := 0.0
	if n := len(r.files); n > 0 {
		tOcpAvg = r.sumDur / float64(n)
	}
	return selection.OccupationBias(tOcp, tOcpAvg)
}

// FuzzBidOccupationBias runs a random sequence of table edits against one
// RM — write-opens, some undone by a failed registration, replica offers
// finished and aborted, garbage-collected replicas — interleaved with CFPs
// for held and unheld files, and checks every bid's occupation bias
// against referenceOccBias, bit for bit, read from the table as it stood
// when the CFP arrived.
func FuzzBidOccupationBias(f *testing.F) {
	// Each op is two bytes: what happens, and the file and duration it
	// happens with.
	f.Add([]byte{0, 0, 2, 5, 0, 0, 1, 5, 4, 6, 5, 0, 0, 0, 1, 6, 7, 0, 0, 0, 0, 1})
	f.Add([]byte{3, 7, 0, 0, 1, 7, 2, 8, 4, 9, 6, 0, 0, 2, 1, 9, 4, 17, 5, 0, 0, 3, 1, 5})
	f.Add([]byte{4, 4, 4, 8, 4, 9, 5, 0, 5, 0, 5, 0, 0, 1, 7, 0, 0, 1, 0, 2, 0, 3, 2, 30, 0, 1})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const numFiles = 12
		gc := replication.GCConfig{Enabled: true, HighWatermark: 0.5, LowWatermark: 0.3, MinReplicas: 1}
		mapper := &flakyMapper{Manager: mm.New()}
		seeded := map[ids.FileID]FileMeta{}
		for f := ids.FileID(0); f < 4; f++ {
			seeded[f] = fm(units.Mbps(1), float64(30+17*f))
		}
		r, err := New(Options{
			Info:        ecnp.RMInfo{ID: 1, Capacity: units.Mbps(100), StorageBytes: 40 * units.MB},
			Scheduler:   ecnp.SimScheduler{S: simtime.NewScheduler()},
			Mapper:      mapper,
			History:     history.DefaultConfig(),
			Replication: staticCfg(),
			GC:          gc,
			Rand:        rng.New(3),
			Files:       seeded,
		})
		if err != nil {
			t.Fatal(err)
		}
		// A second holder of every file, so the collector may drop ours.
		if err := mapper.RegisterRM(ecnp.RMInfo{ID: 2, Capacity: units.Mbps(100)}, []ids.FileID{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}); err != nil {
			t.Fatal(err)
		}
		if err := r.Register(); err != nil {
			t.Fatal(err)
		}
		var (
			req  ids.RequestID
			rep  ids.ReplicationID
			reps []ids.ReplicationID
		)
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i], int(ops[i+1])
			f := ids.FileID(arg % numFiles)
			dur := float64(5 + arg*7%97)
			switch op % 8 {
			case 0, 1: // CFP, for a held file or not
				cfp := ecnp.CFP{Request: req, File: f, Bitrate: units.Mbps(1), DurationSec: dur}
				r.mu.Lock()
				want := referenceOccBias(r, cfp)
				r.mu.Unlock()
				if got := r.HandleCFP(cfp).OccBias; math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("op %d: CFP for file %v bids occupation bias %v, the table's is %v", i/2, f, got, want)
				}
			case 2: // write-open, stored and registered
				req++
				r.Open(ecnp.OpenRequest{Request: req, File: f, Bitrate: units.Mbps(1), DurationSec: dur, SizeBytes: units.Size(dur) * units.MB / 8})
				r.Close(req)
			case 3: // write-open whose registration fails: undone
				req++
				mapper.refuse = true
				r.Open(ecnp.OpenRequest{Request: req, File: f, Bitrate: units.Mbps(1), DurationSec: dur, SizeBytes: units.MB})
				mapper.refuse = false
			case 4: // replica offer
				rep++
				if r.OfferReplica(ecnp.ReplicaOffer{Replication: rep, File: f, SizeBytes: units.Size(dur) * units.MB / 8,
					Bitrate: units.Mbps(1), DurationSec: dur, Rate: units.Mbps(10), Source: 2}) {
					reps = append(reps, rep)
				}
			case 5, 6: // an offer finishes: committed (the collector may then run) or aborted
				if len(reps) == 0 {
					continue
				}
				done := reps[0]
				reps = reps[1:]
				r.FinishReplica(done, op%8 == 5)
			case 7: // the collector runs
				r.collectGarbage()
			}
			if err := r.Check(false); err != nil {
				t.Fatalf("op %d: %v", i/2, err)
			}
		}
	})
}

// flakyMapper refuses AddReplica while refuse is set, so a write-open's
// registration fails after its commit and the write is undone.
type flakyMapper struct {
	*mm.Manager
	refuse bool
}

func (m *flakyMapper) AddReplica(f ids.FileID, rm ids.RMID) error {
	if m.refuse {
		return errors.New("mm: registration refused")
	}
	return m.Manager.AddReplica(f, rm)
}
