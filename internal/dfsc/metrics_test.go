package dfsc

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"dfsqos/internal/ecnp"
	"dfsqos/internal/ids"
	"dfsqos/internal/qos"
	"dfsqos/internal/rng"
	"dfsqos/internal/selection"
	"dfsqos/internal/simtime"
	"dfsqos/internal/telemetry"
	"dfsqos/internal/transport"
	"dfsqos/internal/units"
)

// scrapeDFSC renders reg and returns its dfsqos_dfsc_* counter series (the
// histograms left out), keyed by name and labels as the exposition spells
// them.
func scrapeDFSC(t *testing.T, reg *telemetry.Registry) map[string]float64 {
	t.Helper()
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(b.String(), "\n") {
		if !strings.HasPrefix(line, "dfsqos_dfsc_") || strings.Contains(line, "_seconds") {
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

// dfscSeries is what every dfsqos_dfsc_* counter of a registry the clients
// cs are bound to must read: the sum of their Stats.
func dfscSeries(cs ...*Client) map[string]float64 {
	want := make(map[string]float64)
	for _, c := range cs {
		st := c.Stats()
		for name, v := range map[string]int64{
			`dfsqos_dfsc_requests_total{outcome="admitted"}`:     st.Admitted,
			`dfsqos_dfsc_requests_total{outcome="failed"}`:       st.Failed - st.NoReplica,
			`dfsqos_dfsc_requests_total{outcome="no_replica"}`:   st.NoReplica,
			"dfsqos_dfsc_fanout_stalls_total":                    st.FanoutStalls,
			"dfsqos_dfsc_open_fallbacks_total":                   st.Fallbacks,
			"dfsqos_dfsc_failovers_total":                        st.Failovers,
			"dfsqos_dfsc_stripe_reads_total":                     st.StripeReads,
			"dfsqos_dfsc_stripe_lanes_total":                     st.StripeLanes,
			"dfsqos_dfsc_segments_total":                         st.Segments,
			"dfsqos_dfsc_oversub_admits_total":                   st.Oversubscribed,
			`dfsqos_dfsc_hedges_total{outcome="fired"}`:          st.Hedges,
			`dfsqos_dfsc_hedges_total{outcome="won"}`:            st.HedgesWon,
			`dfsqos_dfsc_metacache_total{outcome="hit"}`:         st.MetaHits,
			`dfsqos_dfsc_metacache_total{outcome="miss"}`:        st.MetaMisses,
			`dfsqos_dfsc_metacache_total{outcome="invalidated"}`: st.MetaInvalidated,
		} {
			want[name] += float64(v)
		}
		for i, class := range lookupClasses {
			want[fmt.Sprintf("dfsqos_dfsc_lookup_errors_total{class=%q}", class)] += float64(st.LookupErrors[i])
		}
	}
	return want
}

// checkDFSCSeries fails unless got and want hold the same series with the
// same values.
func checkDFSCSeries(t *testing.T, what string, got, want map[string]float64) {
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

// After a script that moves every client count — admissions, fallbacks,
// an oversubscribed lane, a stalled bidder, lease hits, misses and
// invalidations, a failover, a hedge, stripe reads, lookup errors and a
// request for a file nobody holds — on three clients sharing one
// Metrics, each dfsqos_dfsc_* counter reads the sum of their Stats.
func TestMetricsReadTheClientAtScrapeTime(t *testing.T) {
	reg := telemetry.NewRegistry()
	met := NewMetrics(reg)

	// A cluster of real RMs: lease hits, misses and the failover's
	// invalidation, a failover and a hedge.
	h := newHarness(t,
		map[ids.RMID]units.BytesPerSec{1: units.Mbps(200), 2: units.Mbps(200)},
		map[ids.FileID][]ids.RMID{0: {1, 2}})
	cluster, err := New(Options{ID: 1, Mapper: h.mapper, Directory: h.dir, Scheduler: ecnp.SimScheduler{S: h.sched},
		Catalog: h.catalog, Policy: selection.RemOnly, Scenario: qos.Soft, Rand: rng.New(5),
		MetaTTL: time.Minute, Metrics: met})
	if err != nil {
		t.Fatal(err)
	}
	checkDFSCSeries(t, "at start", scrapeDFSC(t, reg), dfscSeries(cluster))
	for i := 0; i < 2; i++ { // a miss, then a hit
		if out := cluster.Access(0); !out.OK {
			t.Fatalf("access %d refused: %s", i, out.Reason)
		}
	}
	body := failoverBody()
	h.catalog.File(0).Size = units.Size(len(body))
	if _, err := cluster.ReadStriped(newLaneStreamer(body, 45, 1), 0, io.Discard,
		StripeConfig{Width: 1, SegmentBytes: 10, MaxFailovers: 2, Backoff: time.Microsecond}); err != nil {
		t.Fatal(err)
	}
	slow := &rangedStreamer{body: stripeBody(h, 800), delay: map[ids.RMID]time.Duration{
		1: 20 * time.Millisecond, 2: 400 * time.Millisecond}}
	var got bytes.Buffer
	if _, err := cluster.ReadStriped(slow, 0, &got, StripeConfig{Width: 2, SegmentBytes: 400, HedgeAfter: 40 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}

	// Scripted providers: a firm refusal falls through, a stalled bidder
	// misses the deadline, and the winner's ceiling funds the lane.
	log := &callLog{cfps: make(map[ids.RMID]int)}
	dir := new(ecnp.StaticDirectory)
	for _, p := range []*scriptProvider{
		{id: 1, rem: units.Mbps(90), refuse: ecnp.ErrFirmCapacity},
		{id: 2, rem: units.Mbps(80), stall: time.Second},
		{id: 3, rem: units.Mbps(10), ceil: units.Mbps(40)},
	} {
		p.holds, p.log = true, log
		dir.Set(p.id, p)
	}
	scripted, err := New(Options{ID: 2, Mapper: listMapper{holders: []ids.RMID{1, 2, 3}}, Directory: dir,
		Scheduler: ecnp.SimScheduler{S: simtime.NewScheduler()}, Catalog: h.catalog, Policy: selection.RemOnly,
		Scenario: qos.Firm, Rand: rng.New(5), Fanout: Fanout{Concurrent: true, BidTimeout: 100 * time.Millisecond},
		Metrics: met})
	if err != nil {
		t.Fatal(err)
	}
	if _, release := scripted.AccessHeld(0); release == nil {
		t.Fatal("no release")
	}

	// A dead MM and a file nobody holds.
	broken, err := New(Options{ID: 3, Mapper: &failingMapper{err: &transport.ConnError{Op: "call Lookup", Peer: "x", Err: errors.New("reset")}},
		Directory: new(ecnp.StaticDirectory), Scheduler: ecnp.SimScheduler{S: simtime.NewScheduler()}, Catalog: h.catalog,
		Policy: selection.RemOnly, Scenario: qos.Soft, Rand: rng.New(5), Metrics: met})
	if err != nil {
		t.Fatal(err)
	}
	broken.Access(0)
	if out := cluster.Probe(5); out.OK {
		t.Fatal("a probe of a file nobody holds succeeded")
	}

	c, s, b := cluster.Stats(), scripted.Stats(), broken.Stats()
	if c.Admitted == 0 || c.MetaHits == 0 || c.MetaMisses == 0 || c.MetaInvalidated == 0 || c.Failovers == 0 ||
		c.Hedges == 0 || c.HedgesWon == 0 || c.StripeReads != 2 || c.StripeLanes != 3 || c.Segments == 0 || c.NoReplica != 1 ||
		s.Fallbacks != 1 || s.FanoutStalls != 1 || s.Oversubscribed != 1 ||
		b.Failed != 1 || b.LookupErrors[classifyLookupErr(&transport.ConnError{})] != 1 {
		t.Fatalf("the script did not move every count:\n%+v\n%+v\n%+v", c, s, b)
	}
	checkDFSCSeries(t, "after the script", scrapeDFSC(t, reg), dfscSeries(cluster, scripted, broken))
}

// A scrape runs concurrently with opens, releases and probes on two
// goroutines (run under -race).
func TestMetricsScrapeDuringRequests(t *testing.T) {
	h := newHarness(t,
		map[ids.RMID]units.BytesPerSec{1: units.Mbps(200), 2: units.Mbps(200)},
		map[ids.FileID][]ids.RMID{0: {1, 2}, 1: {2}})
	reg := telemetry.NewRegistry()
	c, err := New(Options{ID: 1, Mapper: h.mapper, Directory: h.dir, Scheduler: ecnp.SimScheduler{S: h.sched},
		Catalog: h.catalog, Policy: selection.RemOnly, Scenario: qos.Soft, Rand: rng.New(5),
		MetaTTL: time.Minute, Metrics: NewMetrics(reg)})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				_, release := c.AccessHeld(ids.FileID(w))
				c.Probe(ids.FileID(2 + w)) // nobody holds it
				release()
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			scrapeDFSC(t, reg)
		}
	}()
	wg.Wait()
	<-done
	checkDFSCSeries(t, "after the race", scrapeDFSC(t, reg), dfscSeries(c))
}
