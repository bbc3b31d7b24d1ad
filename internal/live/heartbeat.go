package live

import (
	"time"

	"dfsqos/internal/ecnp"
	"dfsqos/internal/rm"
	"dfsqos/internal/transport"
)

// StartHeartbeats beacons node's liveness through mm — to the one MM, or
// to every reachable member of a shard group — every interval until the
// returned stop function is called. A beacon refused as a remote error
// means an MM does not know this RM — typically because it restarted and
// lost its resource list — so the loop re-registers, which also
// reconciles the RM's file list against the replica map. The first
// beacon fires after one interval (registration precedes the loop).
func StartHeartbeats(node *rm.RM, mm *MMClient, interval time.Duration, logf func(string, ...any)) (stop func()) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
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
			}
			err := mm.Heartbeat(node.Info().ID)
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
		}
	}()
	return func() {
		close(quit)
		<-done
	}
}

// StartLeaseSweeper expires orphaned reservations on node every period
// until the returned stop function is called, reading the clock from the
// scheduler the RM itself runs on (wall time in live deployments). It is
// a no-op loop when the RM has no lease TTL configured.
func StartLeaseSweeper(node *rm.RM, sched ecnp.Scheduler, period time.Duration, logf func(string, ...any)) (stop func()) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(period)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
			}
			if n := node.SweepLeases(sched.Now()); n > 0 {
				logf("live: %v: lease sweeper reclaimed %d reservation(s)", node.Info().ID, n)
			}
		}
	}()
	return func() {
		close(quit)
		<-done
	}
}
