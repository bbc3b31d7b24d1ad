package dfsc

import (
	"context"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"dfsqos/internal/catalog"
	"dfsqos/internal/ecnp"
	"dfsqos/internal/ids"
	"dfsqos/internal/mm"
	"dfsqos/internal/qos"
	"dfsqos/internal/rng"
	"dfsqos/internal/selection"
	"dfsqos/internal/simtime"
	"dfsqos/internal/units"
)

// stallProvider is an ecnp.Provider whose CFP handler blocks for a fixed
// wall-clock delay — the shape of a wedged or partitioned RM. It
// deliberately does NOT implement ecnp.CtxBidder, so the only defense the
// requester has is the negotiation deadline.
type stallProvider struct {
	id    ids.RMID
	rem   units.BytesPerSec
	delay time.Duration
	opens atomic.Int32
}

func (p *stallProvider) Info() ecnp.RMInfo {
	return ecnp.RMInfo{ID: p.id, Capacity: units.Mbps(100), StorageBytes: units.GB}
}

func (p *stallProvider) HandleCFP(cfp ecnp.CFP) selection.Bid {
	if p.delay > 0 {
		time.Sleep(p.delay)
	}
	return selection.Bid{RM: p.id, Rem: p.rem, Req: cfp.Bitrate, HasReplica: true}
}

func (p *stallProvider) Open(req ecnp.OpenRequest) ecnp.OpenResult {
	p.opens.Add(1)
	return ecnp.OpenResult{OK: true}
}

func (p *stallProvider) Close(ids.RequestID)                   {}
func (p *stallProvider) OfferReplica(ecnp.ReplicaOffer) bool   { return false }
func (p *stallProvider) FinishReplica(ids.ReplicationID, bool) {}

var _ ecnp.Provider = (*stallProvider)(nil)

// fanoutHarness wires N fake providers behind a real mm.Manager.
func fanoutHarness(t *testing.T, providers []*stallProvider) (*mm.Manager, *ecnp.StaticDirectory, *catalog.Catalog) {
	t.Helper()
	cfg := catalog.DefaultConfig()
	cfg.NumFiles = 4
	cat, err := catalog.Generate(cfg, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	mgr := mm.New()
	dir := new(ecnp.StaticDirectory)
	for _, p := range providers {
		if err := mgr.RegisterRM(p.Info(), []ids.FileID{0}); err != nil {
			t.Fatal(err)
		}
		dir.Set(p.id, p)
	}
	return mgr, dir, cat
}

// TestConcurrentFanoutBoundedByDeadline is the acceptance scenario: N
// providers, one of which stalls far past the negotiation deadline. The
// open must complete in about one deadline — not N stalls, not even one
// stall — selecting among the live bids, with the stalled RM degraded to
// a last-ranked zero bid.
func TestConcurrentFanoutBoundedByDeadline(t *testing.T) {
	const (
		deadline = 150 * time.Millisecond
		stall    = 2 * time.Second
	)
	stalled := &stallProvider{id: 4, rem: units.Mbps(90), delay: stall}
	providers := []*stallProvider{
		{id: 1, rem: units.Mbps(10)},
		{id: 2, rem: units.Mbps(30)},
		{id: 3, rem: units.Mbps(20)},
		stalled,
	}
	mgr, dir, cat := fanoutHarness(t, providers)
	c, err := New(Options{
		ID:        1,
		Mapper:    mgr,
		Directory: dir,
		Scheduler: ecnp.SimScheduler{S: simtime.NewScheduler()},
		Catalog:   cat,
		Policy:    selection.RemOnly,
		Scenario:  qos.Firm,
		Rand:      rng.New(5),
		Fanout:    Fanout{Concurrent: true, BidTimeout: deadline},
	})
	if err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	out := c.Access(0)
	elapsed := time.Since(start)
	if !out.OK {
		t.Fatalf("access failed: %s", out.Reason)
	}
	// The stalled provider advertises the best B_rem; had the client
	// waited for its bid it would have won. The deadline turns it into a
	// zero bid, so the best *live* bidder wins instead.
	if out.RM != 2 {
		t.Fatalf("served by %v, want RM2 (best live bid)", out.RM)
	}
	if elapsed >= stall {
		t.Fatalf("open took %v: fan-out waited for the stalled RM", elapsed)
	}
	if elapsed > deadline+500*time.Millisecond {
		t.Fatalf("open took %v, want ~%v", elapsed, deadline)
	}
	if stalled.opens.Load() != 0 {
		t.Fatal("stalled RM received an Open despite its zero bid")
	}
}

// TestConcurrentFanoutCompletesEarly verifies the collector does not
// burn the whole deadline when every bid arrives promptly.
func TestConcurrentFanoutCompletesEarly(t *testing.T) {
	providers := []*stallProvider{
		{id: 1, rem: units.Mbps(10)},
		{id: 2, rem: units.Mbps(30)},
	}
	mgr, dir, cat := fanoutHarness(t, providers)
	c, err := New(Options{
		ID:        1,
		Mapper:    mgr,
		Directory: dir,
		Scheduler: ecnp.SimScheduler{S: simtime.NewScheduler()},
		Catalog:   cat,
		Policy:    selection.RemOnly,
		Scenario:  qos.Firm,
		Rand:      rng.New(5),
		Fanout:    Fanout{Concurrent: true, BidTimeout: 5 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	out := c.Access(0)
	if !out.OK {
		t.Fatalf("access failed: %s", out.Reason)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("prompt bids still took %v", elapsed)
	}
	if out.RM != 2 {
		t.Fatalf("served by %v, want RM2", out.RM)
	}
}

// TestConcurrentFanoutAllStalledFailsAtDeadline verifies the degenerate
// case: every holder stalls, every bid degrades to zero, and the firm
// open walks the zero bids (which all still answer Open here) — the
// negotiation itself must still complete in ~deadline.
func TestConcurrentFanoutZeroBidsStillNegotiate(t *testing.T) {
	const deadline = 100 * time.Millisecond
	providers := []*stallProvider{
		{id: 1, rem: units.Mbps(10), delay: time.Second},
		{id: 2, rem: units.Mbps(30), delay: time.Second},
	}
	mgr, dir, cat := fanoutHarness(t, providers)
	c, err := New(Options{
		ID:        1,
		Mapper:    mgr,
		Directory: dir,
		Scheduler: ecnp.SimScheduler{S: simtime.NewScheduler()},
		Catalog:   cat,
		Policy:    selection.RemOnly,
		Scenario:  qos.Firm,
		Rand:      rng.New(5),
		Fanout:    Fanout{Concurrent: true, BidTimeout: deadline},
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	out := c.Access(0)
	if elapsed := time.Since(start); elapsed > 900*time.Millisecond {
		t.Fatalf("negotiation took %v, want ~%v", elapsed, deadline)
	}
	// Zero-bid providers are still asked to open, in some order — the
	// paper's always-bid deviation means a silent bidder is ranked, not
	// excluded. Both accept, so the access succeeds.
	if !out.OK {
		t.Fatalf("access failed: %s", out.Reason)
	}
}

// TestSerialFanoutUnchanged pins the default: without Fanout.Concurrent
// the client calls providers in holder order on the calling goroutine —
// the deterministic shape the DES requires.
func TestSerialFanoutUnchanged(t *testing.T) {
	providers := []*stallProvider{
		{id: 1, rem: units.Mbps(10)},
		{id: 2, rem: units.Mbps(30)},
	}
	mgr, dir, cat := fanoutHarness(t, providers)
	c, err := New(Options{
		ID:        1,
		Mapper:    mgr,
		Directory: dir,
		Scheduler: ecnp.SimScheduler{S: simtime.NewScheduler()},
		Catalog:   cat,
		Policy:    selection.RemOnly,
		Scenario:  qos.Firm,
		Rand:      rng.New(5),
	})
	if err != nil {
		t.Fatal(err)
	}
	out := c.Access(0)
	if !out.OK || out.RM != 2 {
		t.Fatalf("serial access: %+v", out)
	}
	st := c.Stats()
	if st.Messages != 2+2*2+2 {
		t.Fatalf("messages = %d, want 8 (query+reply, 2×(CFP+bid), open+result)", st.Messages)
	}
}

// namingProvider bids under whatever RM id it is told to name, which need
// not be its own, and appends its own id to a shared log on each CFP.
type namingProvider struct {
	stallProvider
	names ids.RMID
	log   *[]ids.RMID
}

func (p *namingProvider) HandleCFP(cfp ecnp.CFP) selection.Bid {
	*p.log = append(*p.log, p.id)
	return selection.Bid{RM: p.names, Rem: units.Mbps(float64(p.id)), Req: cfp.Bitrate, HasReplica: true}
}

// TestSerialFanoutContactsEachCandidateOnce drives the serial fan-out
// over a candidate list with repeats, a backward step and an unknown id:
// each provider gets one CFP, in the order its id first appears, and
// providers[i] is the one that answered bids[i]. Two providers bid under
// other RMs' ids, one of them a later candidate's; de-duplication follows
// the candidate ids, so that candidate is still contacted.
func TestSerialFanoutContactsEachCandidateOnce(t *testing.T) {
	var got []ids.RMID
	dir := new(ecnp.StaticDirectory)
	for id, names := range map[ids.RMID]ids.RMID{1: 1, 2: 5, 3: 3, 4: 1, 5: 5} {
		dir.Set(id, &namingProvider{stallProvider: stallProvider{id: id}, names: names, log: &got})
	}
	cfg := catalog.DefaultConfig()
	cfg.NumFiles = 4
	cat, err := catalog.Generate(cfg, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Options{
		ID: 1, Mapper: listMapper{}, Directory: dir,
		Scheduler: ecnp.SimScheduler{S: simtime.NewScheduler()}, Catalog: cat,
		Policy: selection.RemOnly, Scenario: qos.Soft, Rand: rng.New(5),
	})
	if err != nil {
		t.Fatal(err)
	}
	candidates := []ids.RMID{1, 3, 2, 3, 9, 5, 1, 4, 2, 5}
	want := []ids.RMID{1, 3, 2, 5, 4}
	bids, providers, stalled := c.collectBids(context.Background(), candidates,
		ecnp.CFP{Request: 1, File: 0, Bitrate: units.Mbps(1), DurationSec: 60}, nil, nil)
	if !slices.Equal(got, want) {
		t.Fatalf("CFPs reached %v, want %v", got, want)
	}
	if stalled != 0 || len(bids) != len(want) || len(providers) != len(want) {
		t.Fatalf("%d bids from %d providers, %d stalled; want %d, %d, 0", len(bids), len(providers), stalled, len(want), len(want))
	}
	for i, id := range want {
		if p := providers[i].(*namingProvider); p.id != id || bids[i].Rem != units.Mbps(float64(id)) {
			t.Errorf("slot %d: provider %v answered a bid of %v, want provider %v's", i, p.id, bids[i].Rem, id)
		}
	}
}
