package dfsc

import (
	"context"
	"sync/atomic"
	"time"

	"dfsqos/internal/ecnp"
	"dfsqos/internal/selection"
)

// bidWorkerIdle is how long a bid worker waits for its next CFP before it
// exits. A client that is negotiating keeps its workers from one open to
// the next; one that has gone quiet gives the goroutines back, so a Client
// needs no Close and an idle process holds none.
const bidWorkerIdle = 5 * time.Second

// bidJob is one CFP of a concurrent fan-out: send cfp to p under ctx and
// deliver the bid, tagged with its slot, on reply. It travels by value.
type bidJob struct {
	ctx   context.Context
	p     ecnp.Provider
	cfp   ecnp.CFP
	slot  int
	reply chan<- bidSlot
}

// bidSlot is one collected bid and the position it belongs at.
type bidSlot struct {
	i   int
	bid selection.Bid
}

// bidWorkers runs the CFPs of a client's concurrent fan-outs on goroutines
// that outlive the negotiation that started them. A goroutine spawned per
// CFP starts on a fresh 2 KB stack and a socket write is fourteen frames
// deep, so each one grew and copied its stack on the way down — sixteen
// times an open, 12 % of open_storm's CPU in runtime.copystack — and
// allocated a closure to be started with. A worker has made that descent
// before: its stack is already as deep as the call needs, and its job
// arrives over a channel by value.
//
// Growth keeps the isolation a goroutine per CFP gave: a job goes to a
// worker that is idle now, and when none is, a new worker starts with it —
// it never queues behind a CFP in flight, so a bidder stalled until the
// negotiation deadline delays nobody else's CFP. Workers that see no job
// for bidWorkerIdle exit.
type bidWorkers struct {
	// jobs is unbuffered on purpose: a send succeeds only while a worker
	// is parked in its receive, which is what "idle now" means.
	jobs chan bidJob
	// idle is bidWorkerIdle; tests shorten it.
	idle time.Duration
	// live counts the workers that have not exited.
	live atomic.Int64
}

func newBidWorkers() *bidWorkers {
	return &bidWorkers{jobs: make(chan bidJob), idle: bidWorkerIdle}
}

// submit hands j to an idle worker, or starts one for it.
func (w *bidWorkers) submit(j bidJob) {
	select {
	case w.jobs <- j:
	default:
		w.live.Add(1)
		go w.run(j)
	}
}

// run serves first, then whatever jobs reach it, and exits once a whole
// idle interval has passed without one. The timer is re-armed when it
// fires, not per job, so a busy worker pays for it every few seconds
// instead of sixteen times an open; the price is that an idle worker may
// live up to two intervals.
func (w *bidWorkers) run(first bidJob) {
	first.serve()
	t := time.NewTimer(w.idle)
	defer t.Stop()
	worked := false
	for {
		select {
		case j := <-w.jobs:
			j.serve()
			worked = true
		case <-t.C:
			if !worked {
				w.live.Add(-1)
				return
			}
			worked = false
			t.Reset(w.idle)
		}
	}
}

// serve sends the CFP and delivers the bid. reply is buffered for every
// job of its fan-out, so the send never blocks, whether or not the
// negotiation is still listening.
func (j bidJob) serve() {
	j.reply <- bidSlot{i: j.slot, bid: handleCFP(j.ctx, j.p, j.cfp)}
}
