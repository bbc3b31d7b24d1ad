package scenario

import (
	"fmt"
	"io"
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

// The live slice's shape, the same for every scenario: liveUsers users
// (liveShortUsers in short mode) over liveDFSCs clients, liveRMs RM
// servers with the paper topology's first capacities, a liveFiles-file
// catalog, and a liveHorizonSec horizon at liveMeanArrivalSec per-user
// inter-arrival, compressed liveTimeScale-fold into wall time (240 s in
// 4.8 s).
const (
	liveUsers, liveShortUsers = 48, 24
	liveDFSCs                 = 16
	liveRMs, liveFiles        = 4, 24
	liveHorizonSec            = 240
	liveMeanArrivalSec        = 40
	liveTimeScale             = 50
)

// runLive stands up a real loopback-TCP deployment — a live.Local of one
// MM server and the slice's RM servers with throttled virtual disks, and
// one DFSC client per pattern DFSC on its mapper and directory — and
// replays the scenario's shape open-loop against it with dfsc.Replay.
// A request's latency runs from its scheduled arrival, so time it queued
// behind its DFSC's earlier requests counts, as behind an overloaded
// front end.
func runLive(spec Spec, opts Options) (*LiveResult, error) {
	users := liveUsers
	if opts.Short {
		users = liveShortUsers
	}
	master := rng.New(opts.Seed).Split("scenario/" + spec.Name + "/live")

	// A small catalog with short durations so reservations turn over
	// within the compressed horizon.
	catCfg := catalog.DefaultConfig()
	catCfg.NumFiles = liveFiles
	catCfg.MeanDurationSec = 5
	catCfg.MinDurationSec = 1
	catCfg.MaxDurationSec = 10
	cat, err := catalog.Generate(catCfg, master.Split("catalog"))
	if err != nil {
		return nil, err
	}

	caps := cluster.PaperTopology()[:liveRMs]
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
	tracer := trace.New(trace.Options{Actor: "scenario-live", RingSize: 512, ExemplarK: 4})
	lc, err := live.NewLocal(live.LocalSpec{
		Catalog:   cat,
		Caps:      caps,
		Holders:   holders,
		TimeScale: liveTimeScale,
		Rand:      master,
		MM:        live.MMSpec{Tracer: tracer},
		RM:        live.RMSpec{Tracer: tracer},
	})
	if err != nil {
		return nil, err
	}
	defer lc.Close()

	scen := qos.Soft
	if spec.Firm {
		scen = qos.Firm
	}
	clients := make([]*dfsc.Client, liveDFSCs)
	for i := range clients {
		clients[i], err = dfsc.New(dfsc.Options{
			ID:        ids.DFSCID(i),
			Mapper:    lc.Mapper,
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
	}

	wl := workload.Config{
		NumUsers:       users,
		NumDFSC:        liveDFSCs,
		MeanArrivalSec: liveMeanArrivalSec,
		HorizonSec:     liveHorizonSec,
	}
	pattern, err := workload.Generate(wl, cat, master.Split("workload"))
	if err != nil {
		return nil, err
	}
	if err := applyShape(spec, pattern, cat, master.Split("transforms"), liveHorizonSec, users); err != nil {
		return nil, err
	}

	opts.logf("scenario %s: live slice: %d users, %d requests over %ds at 1/%d wall scale (%d RMs)",
		spec.Name, users, pattern.Len(), liveHorizonSec, liveTimeScale, len(caps))

	rec := NewRecorder()
	var bytesStreamed, failovers atomic.Int64
	start := time.Now()
	dfsc.Replay(pattern, liveTimeScale, func(req workload.Request, due time.Time) {
		cl := clients[req.DFSC]
		var ok bool
		if spec.Live.StreamReads && req.Op == workload.OpRead {
			res, err := cl.ReadStriped(lc.Dir, req.File, io.Discard, dfsc.StripeConfig{Width: 1, MaxFailovers: 2})
			bytesStreamed.Add(res.Bytes)
			failovers.Add(int64(res.Failovers))
			ok = err == nil
		} else {
			ok = cl.Do(req.Op, req.File).OK
		}
		rec.Observe(classOf(req), time.Since(due), ok)
	})

	count, failed := rec.Totals()
	lr := &LiveResult{
		Users:         users,
		Requests:      count,
		Failed:        failed,
		BytesStreamed: bytesStreamed.Load(),
		Failovers:     failovers.Load(),
		TraceSpans:    len(tracer.Snapshot()),
		ElapsedSec:    time.Since(start).Seconds(),
		Classes:       rec.Stats(),
	}
	if count > 0 {
		lr.FailRate = float64(failed) / float64(count)
	}
	return lr, nil
}
