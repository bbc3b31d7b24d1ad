// Package live deploys the ECNP components as real TCP daemons: a Metadata
// Manager server, Resource Manager servers fronting throttled virtual disks,
// and client stubs that implement the same ecnp interfaces the simulation
// actors implement — so the policy code in packages rm, dfsc, selection and
// replication runs unchanged over the network.
//
// This is the repo's counterpart of the paper's real-system deployment
// (§III): the wire protocol carries exactly the ECNP message sequence
// (register / query / CFP / bid / open / close / replicate), and disk
// bandwidth is enforced by the blkio token buckets of each RM's vdisk.
package live

import (
	"sync"
	"time"

	"dfsqos/internal/ecnp"
	"dfsqos/internal/simtime"
)

// WallScheduler implements ecnp.Scheduler over the wall clock. Scale maps
// virtual seconds to wall seconds: Scale=1 runs in real time, Scale=100
// runs a 2-hour experiment in 72 wall seconds (used by tests and demos).
type WallScheduler struct {
	start time.Time
	scale float64

	mu sync.Mutex
	// timers holds each pending callback: neither run nor cancelled. The
	// first of the timer's firing, its cancel func, Stop and RunPending
	// to take a timer out of it decides the callback's fate.
	timers map[*time.Timer]func(simtime.Time)
	firing sync.WaitGroup // callbacks their timers are running now
}

// NewWallScheduler returns a scheduler anchored at the current instant.
// scale must be positive; 1 means real time.
func NewWallScheduler(scale float64) *WallScheduler {
	if scale <= 0 {
		panic("live: non-positive time scale")
	}
	return &WallScheduler{
		start:  time.Now(),
		scale:  scale,
		timers: make(map[*time.Timer]func(simtime.Time)),
	}
}

// Now implements ecnp.Scheduler: virtual seconds since construction.
func (w *WallScheduler) Now() simtime.Time {
	return simtime.Time(time.Since(w.start).Seconds() * w.scale)
}

// After implements ecnp.Scheduler.
func (w *WallScheduler) After(d simtime.Duration, fn func(simtime.Time)) func() bool {
	if d < 0 {
		d = 0
	}
	wall := time.Duration(float64(d) / w.scale * float64(time.Second))
	// The callback reads t, so t is assigned and registered under the lock
	// the callback takes first: a zero-delay timer can fire before
	// AfterFunc has returned.
	var t *time.Timer
	w.mu.Lock()
	t = time.AfterFunc(wall, func() {
		w.mu.Lock()
		fire := w.takeLocked(t)
		if fire {
			w.firing.Add(1)
		}
		w.mu.Unlock()
		if fire {
			defer w.firing.Done()
			fn(w.Now())
		}
	})
	w.timers[t] = fn
	w.mu.Unlock()
	return func() bool {
		t.Stop()
		w.mu.Lock()
		defer w.mu.Unlock()
		return w.takeLocked(t)
	}
}

// takeLocked removes t from the pending set and reports whether it was
// still there. w.mu is held.
func (w *WallScheduler) takeLocked(t *time.Timer) bool {
	_, ok := w.timers[t]
	delete(w.timers, t)
	return ok
}

// pending empties the pending set and returns what it held.
func (w *WallScheduler) pending() map[*time.Timer]func(simtime.Time) {
	w.mu.Lock()
	defer w.mu.Unlock()
	p := w.timers
	w.timers = make(map[*time.Timer]func(simtime.Time))
	return p
}

// Stop cancels all outstanding timers (shutdown hygiene): their callbacks
// never run.
func (w *WallScheduler) Stop() {
	for t := range w.pending() {
		t.Stop()
	}
}

// RunPending runs every outstanding callback now instead of at its time,
// and returns once those and any callback already running have finished.
// It is a client's exit: the closes it scheduled release their
// reservations rather than leave them to the RM's lease sweeper.
func (w *WallScheduler) RunPending() {
	for t, fn := range w.pending() {
		t.Stop()
		fn(w.Now())
	}
	w.firing.Wait()
}

var _ ecnp.Scheduler = (*WallScheduler)(nil)
