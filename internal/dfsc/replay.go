package dfsc

import (
	"sync"
	"time"

	"dfsqos/internal/ids"
	"dfsqos/internal/workload"
)

// Replay is the paper's request scheduler (§VI-A) over the wall clock: it
// sends every request of p open-loop at its arrival time, AtSec/scale wall
// seconds after the call, and returns once every request has been sent.
// Each pattern DFSC sends its own requests in arrival order, one at a
// time, as a client does; all DFSCs run at once, so a slow request holds
// back only its own DFSC's later arrivals. send runs one request; due is
// its scheduled arrival, from which a caller measures the request's
// latency so that time queued behind its DFSC's earlier requests counts.
// scale must be positive.
func Replay(p *workload.Pattern, scale float64, send func(req workload.Request, due time.Time)) {
	byDFSC := map[ids.DFSCID][]workload.Request{}
	for _, r := range p.Requests {
		byDFSC[r.DFSC] = append(byDFSC[r.DFSC], r)
	}
	start := time.Now()
	var wg sync.WaitGroup
	for _, reqs := range byDFSC {
		wg.Add(1)
		go func(reqs []workload.Request) {
			defer wg.Done()
			for _, r := range reqs {
				due := start.Add(time.Duration(r.AtSec / scale * float64(time.Second)))
				time.Sleep(time.Until(due))
				send(r, due)
			}
		}(reqs)
	}
	wg.Wait()
}
