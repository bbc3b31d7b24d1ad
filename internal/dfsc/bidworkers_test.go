package dfsc

import (
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

// gateProvider is an ecnp.Provider whose CFP handler, when gated, reports
// that it was entered and then blocks until the test opens the gate — a
// stalled bidder the test controls by event, not by sleeping.
type gateProvider struct {
	id      ids.RMID
	rem     units.BytesPerSec
	entered chan<- ids.RMID // nil: answer at once
	gate    <-chan struct{}
	cfps    atomic.Int32
}

func (p *gateProvider) Info() ecnp.RMInfo {
	return ecnp.RMInfo{ID: p.id, Capacity: units.Mbps(100), StorageBytes: units.GB}
}

func (p *gateProvider) HandleCFP(cfp ecnp.CFP) selection.Bid {
	p.cfps.Add(1)
	if p.entered != nil {
		p.entered <- p.id
		<-p.gate
	}
	return selection.Bid{RM: p.id, Rem: p.rem, Req: cfp.Bitrate, HasReplica: true}
}

func (p *gateProvider) Open(ecnp.OpenRequest) ecnp.OpenResult { return ecnp.OpenResult{OK: true} }
func (p *gateProvider) Close(ids.RequestID)                   {}
func (p *gateProvider) OfferReplica(ecnp.ReplicaOffer) bool   { return false }
func (p *gateProvider) FinishReplica(ids.ReplicationID, bool) {}
func (p *gateProvider) StoreFile(ecnp.StoreRequest) error     { return nil }
func (p *gateProvider) register(t *testing.T, m *mm.Manager, f ...ids.FileID) {
	t.Helper()
	if err := m.RegisterRM(p.Info(), f); err != nil {
		t.Fatal(err)
	}
}

// gateOf is the gateProvider dir holds for id.
func gateOf(dir *ecnp.StaticDirectory, id ids.RMID) *gateProvider {
	p, _ := dir.Provider(id)
	return p.(*gateProvider)
}

// workerClient builds a concurrent-fan-out client over dir and mgr whose
// bid workers give up after idle.
func workerClient(t *testing.T, mgr *mm.Manager, dir *ecnp.StaticDirectory, idle time.Duration, opt Options) *Client {
	t.Helper()
	cfg := catalog.DefaultConfig()
	cfg.NumFiles = 4
	cat, err := catalog.Generate(cfg, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	opt.ID, opt.Mapper, opt.Directory, opt.Catalog = 1, mgr, dir, cat
	opt.Scheduler = ecnp.SimScheduler{S: simtime.NewScheduler()}
	opt.Policy, opt.Scenario, opt.Rand = selection.RemOnly, qos.Soft, rng.New(5)
	opt.Fanout.Concurrent = true
	c, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	c.workers.idle = idle
	return c
}

// waitWorkers waits for the pool's own count of live workers to reach
// want.
func waitWorkers(t *testing.T, c *Client, want int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for c.workers.live.Load() != want {
		if time.Now().After(deadline) {
			t.Fatalf("%d bid workers live, want %d", c.workers.live.Load(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSerialClientHasNoWorkers: the simulation's clients take the serial
// path and must not pay for a pool they never use.
func TestSerialClientHasNoWorkers(t *testing.T) {
	h := newHarness(t, map[ids.RMID]units.BytesPerSec{1: units.Mbps(18)}, map[ids.FileID][]ids.RMID{0: {1}})
	if c := h.client(t, selection.RemOnly, qos.Soft); c.workers != nil {
		t.Fatal("a serial client built a worker pool")
	}
}

// TestBidWorkersGrowToTheFanoutThenExit: a fan-out whose CFPs are all in
// flight at once runs on exactly one worker each; the workers outlive the
// negotiation, and after the idle interval none is left — a Client needs
// no Close and an idle process holds no goroutines. (That later
// negotiations reuse them is what BenchmarkCollectBidsConcurrent's
// allocation count shows; how many are parked at a given instant is not
// something a test can wait for.)
func TestBidWorkersGrowToTheFanoutThenExit(t *testing.T) {
	mgr, dir := mm.New(), new(ecnp.StaticDirectory)
	const holders, rounds = 6, 4
	entered := make(chan ids.RMID, holders*rounds)
	gate := make(chan struct{})
	for id := ids.RMID(1); id <= holders; id++ {
		p := &gateProvider{id: id, rem: units.Mbps(float64(id)), entered: entered, gate: gate}
		p.register(t, mgr, 0)
		dir.Set(id, p)
	}
	c := workerClient(t, mgr, dir, 200*time.Millisecond, Options{})

	// Round 0 holds every CFP at the gate until all are in flight; the
	// gate then stays open.
	go func() {
		for i := 0; i < holders; i++ {
			<-entered
		}
		close(gate)
	}()
	for round := 0; round < rounds; round++ {
		out, release := c.AccessHeld(0)
		if !out.OK || out.RM != holders {
			t.Fatalf("round %d: %+v, want RM%d (best bid)", round, out, holders)
		}
		release()
		live := c.workers.live.Load()
		if round == 0 && live != holders {
			t.Fatalf("%d workers live after %d simultaneous CFPs, want one each", live, holders)
		}
		// A later round starts a worker only for a CFP that found none
		// parked, so it can add at most a round's worth.
		if live < holders || live > int64(holders*(round+1)) {
			t.Fatalf("round %d: %d workers live", round, live)
		}
	}
	for id := ids.RMID(1); id <= holders; id++ {
		if got := gateOf(dir, id).cfps.Load(); got != rounds {
			t.Fatalf("RM%d received %d CFPs over %d rounds", id, got, rounds)
		}
	}
	waitWorkers(t, c, 0)

	// And the pool starts again from nothing.
	out, release := c.AccessHeld(0)
	release()
	if !out.OK {
		t.Fatalf("access after the workers drained: %+v", out)
	}
	if c.workers.live.Load() == 0 {
		t.Fatal("a negotiation on a drained pool started no worker")
	}
	waitWorkers(t, c, 0)
}

// TestStalledNegotiationDelaysNoOther: two negotiations on one client. The
// first's providers are all stalled inside HandleCFP; the second must run
// as if the first were not there — every one of its CFPs sent, every bid
// counted, the best bidder chosen — because a job never queues behind a
// CFP in flight.
func TestStalledNegotiationDelaysNoOther(t *testing.T) {
	mgr, dir := mm.New(), new(ecnp.StaticDirectory)
	const perFile = 4
	entered := make(chan ids.RMID, perFile)
	gate := make(chan struct{})
	for id := ids.RMID(1); id <= perFile; id++ { // file 0: stalled
		p := &gateProvider{id: id, rem: units.Mbps(float64(id)), entered: entered, gate: gate}
		p.register(t, mgr, 0)
		dir.Set(id, p)
	}
	for id := ids.RMID(perFile + 1); id <= 2*perFile; id++ { // file 1: prompt
		p := &gateProvider{id: id, rem: units.Mbps(float64(id))}
		p.register(t, mgr, 1)
		dir.Set(id, p)
	}
	c := workerClient(t, mgr, dir, 50*time.Millisecond, Options{})

	stalled := make(chan Outcome, 1)
	go func() {
		out, release := c.AccessHeld(0)
		release()
		stalled <- out
	}()
	for i := 0; i < perFile; i++ {
		<-entered // every worker the client has is now stuck in a CFP
	}

	start := time.Now()
	out, release := c.AccessHeld(1)
	elapsed := time.Since(start)
	release()
	if !out.OK || out.RM != 2*perFile {
		t.Fatalf("second negotiation: %+v, want RM%d (its best bid)", out, 2*perFile)
	}
	for id := ids.RMID(perFile + 1); id <= 2*perFile; id++ {
		if got := gateOf(dir, id).cfps.Load(); got != 1 {
			t.Fatalf("RM%d received %d CFPs, want 1", id, got)
		}
	}
	if elapsed > 2*time.Second {
		t.Fatalf("second negotiation took %v behind a stalled one", elapsed)
	}
	select {
	case out := <-stalled:
		t.Fatalf("the stalled negotiation returned early: %+v", out)
	default:
	}
	if live := c.workers.live.Load(); live <= perFile {
		t.Fatalf("%d workers live: the second negotiation started none beside the %d that are stalled", live, perFile)
	}

	close(gate)
	if out := <-stalled; !out.OK || out.RM != perFile {
		t.Fatalf("first negotiation once released: %+v, want RM%d", out, perFile)
	}
	waitWorkers(t, c, 0)
}

// TestResourceWideFanoutCompletesAndDrains: a broadcast-CNP open and a
// Store each put a CFP to every registered RM — 1 024 here — in flight at
// once. Both complete, and the workers they needed do not outlive them.
func TestResourceWideFanoutCompletesAndDrains(t *testing.T) {
	mgr, dir := mm.New(), new(ecnp.StaticDirectory)
	const rms = 1024
	for id := ids.RMID(1); id <= rms; id++ {
		p := &gateProvider{id: id, rem: units.Mbps(float64(id))}
		p.register(t, mgr, 0)
		dir.Set(id, p)
	}
	c := workerClient(t, mgr, dir, 50*time.Millisecond, Options{BroadcastCNP: true})

	out, release := c.AccessHeld(0)
	if !out.OK || out.RM != rms {
		t.Fatalf("broadcast open: %+v, want RM%d (best of %d bids)", out, rms, rms)
	}
	release()
	if out := c.Store(1); !out.OK || out.RM != rms {
		t.Fatalf("store: %+v, want RM%d", out, rms)
	}
	for id := ids.RMID(1); id <= rms; id++ {
		if got := gateOf(dir, id).cfps.Load(); got != 2 {
			t.Fatalf("RM%d received %d CFPs, want 2 (one per fan-out)", id, got)
		}
	}
	// The open: list, CFPs, open. The store: list, CFPs, store, open,
	// registration.
	if want := int64(2+2*rms+2) + (2 + 2*rms + 2 + 2 + 2); c.Stats().Messages != want {
		t.Fatalf("messages = %d, want %d (the open's and the store's)", c.Stats().Messages, want)
	}
	waitWorkers(t, c, 0)
}
