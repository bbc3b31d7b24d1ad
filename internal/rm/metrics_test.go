package rm

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"

	"dfsqos/internal/ecnp"
	"dfsqos/internal/history"
	"dfsqos/internal/ids"
	"dfsqos/internal/mm"
	"dfsqos/internal/replication"
	"dfsqos/internal/rng"
	"dfsqos/internal/simtime"
	"dfsqos/internal/telemetry"
	"dfsqos/internal/units"
)

// scrapeRM renders reg and returns its dfsqos_rm_* series, keyed by name
// and labels as the exposition spells them.
func scrapeRM(t *testing.T, reg *telemetry.Registry) map[string]float64 {
	t.Helper()
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(b.String(), "\n") {
		if !strings.HasPrefix(line, "dfsqos_rm_") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("series %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// rmSeries is what every dfsqos_rm_* series of a registry the RMs rms are
// bound to must read: the sum of their Stats, ledgers, reservations,
// storage and file tables and oversubscription ratios.
func rmSeries(rms ...*RM) map[string]float64 {
	want := make(map[string]float64)
	for _, r := range rms {
		st := r.Stats()
		r.mu.Lock()
		for name, v := range map[string]int64{
			"dfsqos_rm_cfps_total":                                st.CFPs,
			"dfsqos_rm_bids_total":                                st.CFPs,
			"dfsqos_rm_admissions_total":                          st.Opens,
			`dfsqos_rm_replica_offers_total{decision="accepted"}`: st.OffersAccepted,
			`dfsqos_rm_replica_offers_total{decision="rejected"}`: st.OffersRejected,
			"dfsqos_rm_replication_triggers_total":                st.RepTriggers,
			"dfsqos_rm_replication_capped_total":                  st.RepCapped,
			"dfsqos_rm_replication_transfers_total":               st.RepTransfers,
			"dfsqos_rm_replication_migrations_total":              st.RepMigrations,
			"dfsqos_rm_gc_evictions_total":                        st.GCEvictions,
			"dfsqos_rm_leases_expired_total":                      st.LeaseExpiries,
			"dfsqos_rm_active_streams":                            int64(len(r.active)),
			"dfsqos_rm_storage_used_bytes":                        int64(r.storageUsed),
			"dfsqos_rm_files":                                     int64(len(r.files)),
		} {
			want[name] += float64(v)
		}
		for why := ecnp.ErrDuplicateRequest; why < ecnp.NumRefusals; why++ {
			want[fmt.Sprintf("dfsqos_rm_refusals_total{reason=%q}", why.Label())] += float64(st.Refusals[why])
		}
		want["dfsqos_rm_remaining_bandwidth_bytes_per_second"] += float64(r.led.Remaining())
		want["dfsqos_rm_oversub_ratio"] += r.led.Oversub()
		r.mu.Unlock()
	}
	return want
}

// checkSeries fails unless got and want hold the same series with the
// same values.
func checkSeries(t *testing.T, what string, got, want map[string]float64) {
	t.Helper()
	for name, w := range want {
		if g, ok := got[name]; !ok {
			t.Errorf("%s: %s missing from the exposition", what, name)
		} else if g != w {
			t.Errorf("%s: %s = %v, want %v", what, name, g, w)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: %s exposed but not checked", what, name)
		}
	}
}

// metricsRMs builds RMs 1-3 with GC and leases armed, each seeded with a
// hot and a cold file; RM 1's metrics go to reg1, RM 2's and RM 3's to
// reg23.
func metricsRMs(t *testing.T, reg1, reg23 *telemetry.Registry) *harness {
	t.Helper()
	h := &harness{
		sched:  simtime.NewScheduler(),
		mapper: mm.New(),
		dir:    new(ecnp.StaticDirectory),
		rms:    make(map[ids.RMID]*RM),
	}
	master := rng.New(13)
	gc := replication.GCConfig{Enabled: true, HighWatermark: 0.8, LowWatermark: 0.5, MinReplicas: 2}
	for _, id := range []ids.RMID{1, 2, 3} {
		reg := reg23
		if id == 1 {
			reg = reg1
		}
		node, err := New(Options{
			Info:        ecnp.RMInfo{ID: id, Capacity: units.Mbps(18), StorageBytes: 60 * units.MB},
			Scheduler:   ecnp.SimScheduler{S: h.sched},
			Mapper:      h.mapper,
			History:     history.DefaultConfig(),
			Replication: staticCfg(),
			GC:          gc,
			Rand:        master.Split(id.String()),
			Files:       map[ids.FileID]FileMeta{0: fm(units.Mbps(0.4), 100), 1: fm(units.Mbps(2), 100)},
			Metrics:     NewMetrics(reg),
			LeaseTTLSec: 5,
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

// After a script that moves every RM counter and gauge, each dfsqos_rm_*
// series reads what the RMs bound to its registry say, summed over them.
func TestMetricsReadTheRMAtScrapeTime(t *testing.T) {
	reg1, reg23 := telemetry.NewRegistry(), telemetry.NewRegistry()
	h := metricsRMs(t, reg1, reg23)
	r := h.rms[1]
	checkSeries(t, "at start", scrapeRM(t, reg1), rmSeries(r))

	// CFPs heat file 0, so file 1 is the collector's victim below.
	for i := 0; i < 5; i++ {
		r.HandleCFP(ecnp.CFP{Request: ids.RequestID(i), File: 0, Bitrate: units.Mbps(0.4), DurationSec: 100})
	}
	h.rms[2].HandleCFP(ecnp.CFP{Request: 1, File: 0, Bitrate: units.Mbps(0.4), DurationSec: 100})
	// Reads, one closed.
	for req := ids.RequestID(1); req <= 2; req++ {
		if res := r.Open(ecnp.OpenRequest{Request: req, File: 0, Bitrate: units.Mbps(0.4), DurationSec: 100}); !res.OK {
			t.Fatalf("read %v refused: %s", req, res.Reason)
		}
	}
	r.Close(1)
	// A write-open stores and registers file 6.
	if res := r.Open(ecnp.OpenRequest{Request: 3, File: 6, Bitrate: units.Mbps(0.4), DurationSec: 100, SizeBytes: 5 * units.MB}); !res.OK {
		t.Fatalf("write-open refused: %s", res.Reason)
	}
	// An offer of a file the RM holds is rejected; one of file 5 lands,
	// pushes storage past the high watermark and the collector evicts.
	offer := ecnp.ReplicaOffer{Replication: 7, File: 0, SizeBytes: 25 * units.MB,
		Bitrate: units.Mbps(2), DurationSec: 100, Rate: units.Mbps(1.8), Source: 2}
	if r.OfferReplica(offer) {
		t.Fatal("offer of a held file accepted")
	}
	offer.File = 5
	if !r.OfferReplica(offer) {
		t.Fatal("offer of file 5 rejected")
	}
	checkSeries(t, "with a copy in flight", scrapeRM(t, reg1), rmSeries(r))
	if err := h.mapper.AddReplica(5, 1); err != nil {
		t.Fatal(err)
	}
	r.FinishReplica(7, true)
	// The leases of reads 2 and write 3 expire.
	expired := 0
	h.sched.After(10, func(now simtime.Time) { expired = r.SweepLeases(now) })
	h.sched.Run()
	if expired != 2 {
		t.Fatalf("sweep expired %d reservations, want 2", expired)
	}
	// Refusals: a duplicate request and a renewal of an expired one.
	for _, node := range []*RM{r, h.rms[2], h.rms[3]} {
		if res := node.Open(ecnp.OpenRequest{Request: 9, File: 0, Bitrate: units.Mbps(0.4), DurationSec: 100}); !res.OK {
			t.Fatalf("read 9 refused: %s", res.Reason)
		}
		if res := node.Open(ecnp.OpenRequest{Request: 9, File: 0, Bitrate: units.Mbps(0.4), DurationSec: 100}); res.Code != ecnp.ErrDuplicateRequest {
			t.Fatalf("duplicate read: %+v", res)
		}
	}
	if err := r.Renew(2); err == nil {
		t.Fatal("renewal of an expired lease accepted")
	}

	st := r.Stats()
	if st.CFPs != 5 || st.Opens != 4 || st.OffersAccepted != 1 || st.OffersRejected != 1 ||
		st.GCEvictions == 0 || st.LeaseExpiries != 2 ||
		st.Refusals[ecnp.ErrDuplicateRequest] != 1 || st.Refusals[ecnp.ErrNotReserved] != 1 {
		t.Fatalf("the script did not move every count: %+v", st)
	}
	got := scrapeRM(t, reg1)
	checkSeries(t, "RM 1 alone", got, rmSeries(r))
	if got["dfsqos_rm_bids_total"] != got["dfsqos_rm_cfps_total"] {
		t.Errorf("bids %v, CFPs %v: one bid per CFP", got["dfsqos_rm_bids_total"], got["dfsqos_rm_cfps_total"])
	}
	shared := scrapeRM(t, reg23)
	checkSeries(t, "RMs 2 and 3 on one registry", shared, rmSeries(h.rms[2], h.rms[3]))
	if shared["dfsqos_rm_admissions_total"] != 2 || shared["dfsqos_rm_files"] != 4 {
		t.Errorf("RMs 2 and 3 do not sum: admissions %v, files %v, want 2 and 4",
			shared["dfsqos_rm_admissions_total"], shared["dfsqos_rm_files"])
	}
}

// A scrape runs concurrently with the RM's request path (run under -race).
func TestMetricsScrapeDuringOpens(t *testing.T) {
	reg := telemetry.NewRegistry()
	h := metricsRMs(t, reg, nil)
	r := h.rms[1]
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				req := ids.RequestID(w*1000 + i)
				r.HandleCFP(ecnp.CFP{Request: req, File: 0, Bitrate: units.Mbps(0.01), DurationSec: 100})
				r.Open(ecnp.OpenRequest{Request: req, File: 0, Bitrate: units.Mbps(0.01), DurationSec: 100})
				if i%2 == 0 {
					r.Close(req)
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			scrapeRM(t, reg)
		}
	}()
	wg.Wait()
	<-done
	checkSeries(t, "after the race", scrapeRM(t, reg), rmSeries(r))
}
