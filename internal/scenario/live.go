package scenario

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"dfsqos/internal/catalog"
	"dfsqos/internal/cluster"
	"dfsqos/internal/dfsc"
	"dfsqos/internal/ids"
	"dfsqos/internal/live"
	"dfsqos/internal/qos"
	"dfsqos/internal/rng"
	"dfsqos/internal/selection"
	"dfsqos/internal/trace"
	"dfsqos/internal/workload"
)

// LiveResult is the live-TCP slice's report inside a scenario result.
type LiveResult struct {
	// Users is the slice's resolved population; Requests/Failed/FailRate
	// aggregate the replayed operations.
	Users    int     `json:"users"`
	Requests int64   `json:"requests"`
	Failed   int64   `json:"failed"`
	FailRate float64 `json:"fail_rate"`
	// BytesStreamed totals real file bytes delivered over TCP (only
	// non-zero when the slice streams reads); Failovers counts replica
	// moves inside those reads.
	BytesStreamed int64 `json:"bytes_streamed,omitempty"`
	Failovers     int64 `json:"failovers,omitempty"`
	// TraceSpans is how many spans the attached PR 5 tracer retained.
	TraceSpans int `json:"trace_spans"`
	// ElapsedSec is the slice's wall-clock duration.
	ElapsedSec float64 `json:"elapsed_sec"`
	// Classes breaks latency and failures out per workload class.
	Classes []ClassStats `json:"classes"`
}

// runLive stands up a real loopback-TCP deployment — a live.Local of one
// MM server and the slice's RM servers with throttled virtual disks, and a
// pool of DFSC clients — and replays the scenario's shape open-loop against it under wall-time
// compression. Requests are issued at their (scaled) arrival instants
// regardless of completion; beyond MaxInflight they queue for a free
// client slot and the queueing shows up in the recorded latency, exactly
// like an overloaded front end.
func runLive(spec Spec, opts Options) (*LiveResult, error) {
	ls := *spec.Live
	users := ls.Users
	if opts.Short && ls.ShortUsers > 0 {
		users = ls.ShortUsers
	}
	inflight := ls.MaxInflight
	if inflight <= 0 {
		inflight = 8
	}
	timeScale := ls.TimeScale
	if timeScale <= 0 {
		timeScale = 50
	}

	master := rng.New(opts.Seed).Split("scenario/" + spec.Name + "/live")

	// A small catalog with short durations so reservations turn over
	// within the compressed horizon.
	catCfg := catalog.DefaultConfig()
	catCfg.NumFiles = ls.Files
	catCfg.MeanDurationSec = 5
	catCfg.MinDurationSec = 1
	catCfg.MaxDurationSec = 10
	cat, err := catalog.Generate(catCfg, master.Split("catalog"))
	if err != nil {
		return nil, err
	}

	caps := cluster.ScaledTopology((ls.RMs + 15) / 16)[:ls.RMs]
	rmIDs := make([]ids.RMID, len(caps))
	for i := range caps {
		rmIDs[i] = ids.RMID(i + 1)
	}
	placement, err := catalog.StaticRandom(cat, rmIDs, 2, master.Split("placement"))
	if err != nil {
		return nil, err
	}

	holders := make(map[ids.FileID][]ids.RMID, placement.NumFiles())
	for _, f := range placement.Files() {
		holders[f] = placement.Holders(f)
	}
	lc, err := live.NewLocal(live.LocalSpec{
		Catalog:   cat,
		Caps:      caps,
		Holders:   holders,
		TimeScale: timeScale,
		Rand:      master,
	})
	if err != nil {
		return nil, err
	}
	defer lc.Close()
	tracer := trace.New(trace.Options{Actor: "scenario-live", RingSize: 512, ExemplarK: 4})
	lc.MM.SetTracer(tracer)
	for _, id := range rmIDs {
		lc.Server(id).SetTracer(tracer)
	}

	scen := qos.Soft
	if spec.Firm {
		scen = qos.Firm
	}
	// One client per inflight slot, each with its own MM connection, so
	// concurrently executing requests never share a negotiation path.
	clients := make(chan *dfsc.Client, inflight)
	for i := 0; i < inflight; i++ {
		cli, err := live.DialMM(lc.MM.Addr())
		if err != nil {
			return nil, err
		}
		defer cli.Close()
		c, err := dfsc.New(dfsc.Options{
			ID:        ids.DFSCID(i),
			Mapper:    cli,
			Directory: lc.Dir,
			Scheduler: lc.Sched,
			Catalog:   cat,
			Policy:    selection.RemOnly,
			Scenario:  scen,
			Rand:      master.Split(fmt.Sprintf("dfsc/%d", i)),
			Fanout:    dfsc.Fanout{Concurrent: true, BidTimeout: 2 * time.Second},
			Tracer:    tracer,
		})
		if err != nil {
			return nil, err
		}
		clients <- c
	}

	wl := workload.Config{
		NumUsers:       users,
		NumDFSC:        inflight,
		MeanArrivalSec: ls.MeanArrivalSec,
		HorizonSec:     ls.HorizonSec,
	}
	pattern, err := workload.Generate(wl, cat, master.Split("workload"))
	if err != nil {
		return nil, err
	}
	if err := applyShape(spec, pattern, cat, master.Split("transforms"), ls.HorizonSec, users); err != nil {
		return nil, err
	}

	opts.logf("scenario %s: live slice: %d users, %d requests over %.0fs at 1/%.0f wall scale (%d RMs)",
		spec.Name, users, pattern.Len(), ls.HorizonSec, timeScale, len(caps))

	rec := NewRecorder()
	var bytesStreamed, failovers int64
	var wg sync.WaitGroup
	start := time.Now()
	for _, req := range pattern.Requests {
		at := time.Duration(req.AtSec / timeScale * float64(time.Second))
		if d := at - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(req workload.Request) {
			defer wg.Done()
			cl := <-clients
			defer func() { clients <- cl }()
			t0 := time.Now()
			ok := true
			switch {
			case req.Op == workload.OpWrite:
				ok = cl.Store(req.File).OK
			case req.Op == workload.OpMeta:
				ok = cl.Probe(req.File).OK
			case ls.StreamReads:
				res, err := cl.ReadStriped(lc.Dir, req.File, io.Discard, dfsc.StripeConfig{Width: 1, MaxFailovers: 2})
				atomic.AddInt64(&bytesStreamed, res.Bytes)
				atomic.AddInt64(&failovers, int64(res.Failovers))
				ok = err == nil
			default:
				ok = cl.Access(req.File).OK
			}
			rec.Observe(classOf(req), time.Since(t0), ok)
		}(req)
	}
	wg.Wait()

	count, failed := rec.Totals()
	lr := &LiveResult{
		Users:         users,
		Requests:      count,
		Failed:        failed,
		BytesStreamed: atomic.LoadInt64(&bytesStreamed),
		Failovers:     atomic.LoadInt64(&failovers),
		TraceSpans:    len(tracer.Snapshot()),
		ElapsedSec:    time.Since(start).Seconds(),
		Classes:       rec.Stats(),
	}
	if count > 0 {
		lr.FailRate = float64(failed) / float64(count)
	}
	return lr, nil
}
