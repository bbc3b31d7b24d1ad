package live

import (
	"time"

	"dfsqos/internal/ecnp"
	"dfsqos/internal/mm"
	"dfsqos/internal/rm"
	"dfsqos/internal/transport"
)

// every runs fn every interval on its own goroutine until the returned
// stop function is called; stop returns once the goroutine has exited, so
// no call of fn is in flight after it.
func every(interval time.Duration, fn func()) (stop func()) {
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
				fn()
			}
		}
	}()
	return func() {
		close(quit)
		<-done
	}
}

// StartHeartbeats beacons node's liveness through mmc — to the one MM, or
// to every reachable member of a shard group — every interval until the
// returned stop function is called. A beacon refused as a remote error
// means an MM does not know this RM — typically because it restarted and
// lost its resource list — so the loop re-registers, which also
// reconciles the RM's file list against the replica map. The first
// beacon fires after one interval (registration precedes the loop).
func StartHeartbeats(node *rm.RM, mmc *MMClient, interval time.Duration, logf func(string, ...any)) (stop func()) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return every(interval, func() {
		err := mmc.Heartbeat(node.Info().ID)
		switch {
		case err == nil:
		case transport.IsRemote(err):
			// The MM forgot us: re-register (idempotent; reconciles
			// the file list) and let the next beacon confirm.
			if rerr := node.Register(); rerr != nil {
				logf("live: heartbeat re-register %v: %v", node.Info().ID, rerr)
			}
		default:
			logf("live: heartbeat %v: %v", node.Info().ID, err)
		}
	})
}

// StartLivenessSweeper sweeps m's RM liveness table every interval until
// the returned stop function is called, so an RM that falls silent is
// latched dead — counted and dropped from the live gauge — within one
// interval of its deadline. A shard-group member needs none: its beat
// loop sweeps.
func StartLivenessSweeper(m *mm.Manager, interval time.Duration) (stop func()) {
	return every(interval, m.Sweep)
}

// StartLeaseSweeper expires orphaned reservations on node every period
// until the returned stop function is called, reading the clock from the
// scheduler the RM itself runs on (wall time in live deployments). It is
// a no-op loop when the RM has no lease TTL configured.
func StartLeaseSweeper(node *rm.RM, sched ecnp.Scheduler, period time.Duration, logf func(string, ...any)) (stop func()) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return every(period, func() {
		if n := node.SweepLeases(sched.Now()); n > 0 {
			logf("live: %v: lease sweeper reclaimed %d reservation(s)", node.Info().ID, n)
		}
	})
}
