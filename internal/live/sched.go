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

	mu     sync.Mutex
	timers map[*time.Timer]struct{}
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
		timers: make(map[*time.Timer]struct{}),
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
		delete(w.timers, t)
		w.mu.Unlock()
		fn(w.Now())
	})
	w.timers[t] = struct{}{}
	w.mu.Unlock()
	return func() bool {
		stopped := t.Stop()
		if stopped {
			w.mu.Lock()
			delete(w.timers, t)
			w.mu.Unlock()
		}
		return stopped
	}
}

// Stop cancels all outstanding timers (shutdown hygiene).
func (w *WallScheduler) Stop() {
	w.mu.Lock()
	defer w.mu.Unlock()
	for t := range w.timers {
		t.Stop()
	}
	w.timers = make(map[*time.Timer]struct{})
}

var _ ecnp.Scheduler = (*WallScheduler)(nil)
