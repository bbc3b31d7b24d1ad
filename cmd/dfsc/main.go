// Command dfsc runs DFS clients — the Requester role of the ECNP model —
// against a live deployment (mmd + rmd daemons). It is the paper's request
// scheduler (§VI-A, dfsc.Replay): it sends each request of a pattern (a
// workloadgen file with -replay, else -n popularity-drawn reads -gap
// apart) at its arrival time divided by -scale, through one client per
// pattern DFSC. A read runs the three-phase flow (MM query, CFP fan-out
// and bid selection, QoS-assured open) and optionally streams the file; a
// write is the same flow whose open stores the file on the winning RM, and
// a metadata request probes the MM. dfsc prints
// per-request outcomes plus a summary.
//
//	dfsc -mm 127.0.0.1:7000 -policy "(1,0,0)" -scenario firm -n 20 -read
//	dfsc -mm 127.0.0.1:7000 -files 100 -replay pattern.json -scale 10
package main

import (
	crand "crypto/rand"
	"encoding/binary"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"dfsqos/internal/catalog"
	"dfsqos/internal/cluster"
	"dfsqos/internal/dfsc"
	"dfsqos/internal/ecnp"
	"dfsqos/internal/ids"
	"dfsqos/internal/live"
	"dfsqos/internal/monitor"
	"dfsqos/internal/qos"
	"dfsqos/internal/rng"
	"dfsqos/internal/selection"
	"dfsqos/internal/telemetry"
	"dfsqos/internal/trace"
	"dfsqos/internal/transport"
	"dfsqos/internal/wire"
	"dfsqos/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "dfsc: %v\n", err)
		os.Exit(1)
	}
}

// run is dfsc with its arguments: it prints the summary to stdout and
// returns what makes dfsc exit 1. Every exit, that one included, first
// runs the closes its accesses scheduled, so it leaves no reservation held.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("dfsc", flag.ExitOnError)
	var (
		mmAddr   = fs.String("mm", "127.0.0.1:7000", "metadata manager address; comma-separated ring-index-aligned list for a shard group")
		mmRep    = fs.Int("mm-replication", 1, "owner shards per file in the MM shard group (must match mmd -replication)")
		metaTTL  = fs.Duration("meta-ttl", 0, "metadata lease TTL: cached lookup results skip the MM until they expire (0 disables the lease cache)")
		policy   = fs.String("policy", "(1,0,0)", "resource selection policy (α,β,γ) or (α,β,γ,δ) with the weighted-fairness term")
		scenario = fs.String("scenario", "firm", "allocation scenario: soft or firm")
		tenantID = fs.Int("tenant", 0, "tenant identity stamped on every request (0 = untenanted); quota'd RMs charge admissions to it")
		n        = fs.Int("n", 10, "number of reads DFSC 1 sends when there is no -replay, of files drawn from -seed's stream")
		replay   = fs.String("replay", "", "access pattern (JSON from workloadgen) to send instead of -n: each request at its arrival time / -scale, through one client per pattern DFSC")
		read     = fs.Bool("read", false, "stream each admitted file's bytes from the serving RM")
		seed     = fs.Uint64("seed", 1, "deployment master seed (must match rmd)")
		numRMs   = fs.Int("num-rms", 16, "total RMs in the deployment")
		degree   = fs.Int("degree", 3, "static replica degree")
		files    = fs.Int("files", 1000, "catalog size")
		gapMS    = fs.Int("gap", 200, "wall milliseconds between the arrivals of -n's reads")
		scale    = fs.Float64("scale", 1, "virtual seconds per wall second")
		negTO    = fs.Duration("negotiation-timeout", 2*time.Second, "deadline for collecting CFP bids; stalled RMs degrade to last-ranked zero bids")
		maxFO    = fs.Int("max-failovers", 2, "replicas a -read may fail over to after its serving RM dies mid-stream")
		stripeW  = fs.Int("stripe-width", 1, "replicas a -read stripes byte ranges across (1 = sequential single-RM read)")
		hedgeAft = fs.Duration("hedge-after", 0, "re-issue a lagging stripe range to another lane after this long (0 disables hedging)")
		monAddr  = fs.String("monitor", "", "HTTP stats/metrics address (e.g. 127.0.0.1:0); empty disables")
		dbgAddr  = fs.String("debug-addr", "", "standalone debug HTTP address (/traces + pprof); empty serves them on -monitor only")
		traceN   = fs.Int("trace-ring", 4096, "span ring capacity for request tracing (rounded up to a power of two)")
		sample   = fs.Float64("trace-sample", 1, "fraction of requests to trace (0 disables, 1 traces all)")
		tcfg     = transport.RegisterFlags(fs)
	)
	fs.Parse(args)

	pol, err := selection.ParsePolicy(*policy)
	if err != nil {
		return err
	}
	if *tenantID < 0 {
		return fmt.Errorf("negative -tenant %d", *tenantID)
	}
	// The tenant travels twice: in the ECNP control payloads (CFP and
	// open) and stamped on every dialed connection's wire frames, so
	// data-plane chunks are attributable too.
	tcfg.Tenant = ids.TenantID(*tenantID)
	scen, err := qos.Parse(*scenario)
	if err != nil {
		return err
	}
	catCfg := catalog.DefaultConfig()
	catCfg.NumFiles = *files
	cat, _, err := cluster.SeededCorpus(*seed, catCfg, *numRMs, *degree)
	if err != nil {
		return err
	}
	var pattern *workload.Pattern
	if *replay != "" {
		f, err := os.Open(*replay)
		if err == nil {
			pattern, err = workload.Load(f)
			f.Close()
		}
		if err == nil {
			err = checkPatternFiles(pattern, cat.Len())
		}
		if err != nil {
			return err
		}
	} else {
		// -n as a pattern: reads from DFSC 1, -gap wall milliseconds
		// apart, of files drawn by popularity from -seed's stream.
		src := rng.New(*seed).Split("dfsc-cli/n")
		gap := time.Duration(*gapMS) * time.Millisecond
		pattern = &workload.Pattern{Requests: make([]workload.Request, max(*n, 0))}
		for i := range pattern.Requests {
			at := float64(i) * gap.Seconds() * *scale
			pattern.Requests[i] = workload.Request{AtSec: at, DFSC: 1, File: cat.SamplePopular(src)}
		}
	}

	// One registry joins the requester's transport and negotiation
	// telemetry on a single /metrics page.
	reg := telemetry.NewRegistry()
	tcfg.Metrics = transport.NewMetrics(reg)
	wire.RegisterCodecMetrics(reg)
	tracer := trace.New(trace.Options{
		Actor:    "dfsc1",
		RingSize: *traceN,
		Registry: reg,
		// The sampling decision is a stateless hash of the request ID, so
		// it is reproducible across runs and propagates implicitly: an
		// unsampled request writes untraced frames and no daemon opens
		// spans for it. The hash reads only the ID's low 52 bits (the
		// multiply carries upwards, and the fold takes bits 32–51), so the
		// incarnation in bits 52–62 leaves every decision as it was.
		Sampler: func(r ids.RequestID) bool {
			if *sample >= 1 {
				return true
			}
			if *sample <= 0 {
				return false
			}
			x := uint64(r) * 0x9e3779b97f4a7c15
			x ^= x >> 32
			return float64(x%(1<<20))/(1<<20) < *sample
		},
	})

	mapper, err := live.DialMMConfig(strings.Split(*mmAddr, ","), *mmRep, *tcfg)
	if err != nil {
		return err
	}
	mapper.SetMetrics(live.NewMMRouteMetrics(reg))
	defer mapper.Close()
	mapper.SetLogger(log.Printf)
	dir := live.NewDirectoryConfig(mapper, *tcfg)
	defer dir.Close()
	dir.SetLogger(log.Printf)
	sched := live.NewWallScheduler(*scale)
	defer sched.RunPending()

	// One client per pattern DFSC, all sharing the mapper, directory,
	// registry and tracer. They share one incarnation too, drawn afresh
	// for this process, so their request IDs differ from those of any
	// other dfsc process, running or killed, whose reservations an RM may
	// still hold.
	var incarnation [4]byte
	if _, err := crand.Read(incarnation[:]); err != nil {
		return err
	}
	met := dfsc.NewMetrics(reg)
	clients := make(map[ids.DFSCID]*dfsc.Client)
	for _, r := range pattern.Requests {
		clients[r.DFSC] = nil
	}
	for id := range clients {
		clients[id], err = dfsc.New(dfsc.Options{
			ID:          id,
			Mapper:      mapper,
			Directory:   dir,
			Scheduler:   sched,
			Catalog:     cat,
			Policy:      pol,
			Scenario:    scen,
			Tenant:      ids.TenantID(*tenantID),
			Incarnation: binary.BigEndian.Uint32(incarnation[:]),
			Rand:        rng.New(*seed).Split(fmt.Sprintf("dfsc-cli/%d", id)),
			// The live control path fans CFPs out concurrently, bounded by
			// the negotiation deadline: one stalled RM costs at most -negotiation-timeout,
			// not its share of a serial scan.
			Fanout:  dfsc.Fanout{Concurrent: true, BidTimeout: *negTO},
			MetaTTL: *metaTTL,
			Metrics: met,
			Tracer:  tracer,
		})
		if err != nil {
			return err
		}
	}
	if *monAddr != "" {
		monSrv, bound, err := monitor.Serve(*monAddr, monitor.NewHandler(reg, tracer))
		if err != nil {
			return err
		}
		defer monitor.Shutdown(monSrv, 3*time.Second)
		log.Printf("dfsc: metrics at http://%s/metrics, traces at http://%s/traces", bound, bound)
	}
	if *dbgAddr != "" {
		dbgSrv, bound, err := monitor.Serve(*dbgAddr, monitor.NewDebugHandler(tracer))
		if err != nil {
			return err
		}
		defer monitor.Shutdown(dbgSrv, 3*time.Second)
		log.Printf("dfsc: debug at http://%s/traces and http://%s/debug/pprof/", bound, bound)
	}

	// send runs one request through its DFSC's client and logs its
	// outcome. A failure that no RM refused is a fault, and a fault makes
	// dfsc exit 1.
	var ok, failed, faults atomic.Int64
	count := func(admitted bool, refusal ecnp.Refusal) {
		if admitted {
			ok.Add(1)
			return
		}
		failed.Add(1)
		if refusal == 0 {
			faults.Add(1)
		}
	}
	send := func(r workload.Request, _ time.Time) {
		c, meta := clients[r.DFSC], cat.File(r.File)
		if *read && r.Op == workload.OpRead {
			// Streamed access with self-healing: reservations ride the
			// stream (chunks renew their leases), a replica dying mid-range
			// fails over to the next-best bidder — bounded by -max-failovers
			// — and -stripe-width > 1 spreads byte ranges across that many
			// lanes at once, with -hedge-after re-issuing lagging ranges.
			start := time.Now()
			res, err := c.ReadStriped(dir, r.File, io.Discard, dfsc.StripeConfig{
				Width:        *stripeW,
				HedgeAfter:   *hedgeAft,
				MaxFailovers: *maxFO,
			})
			count(err == nil, ecnp.RefusalOf(err))
			if err != nil {
				log.Printf("dfsc: %s (%v, %.1fs) FAILED: %v", meta.Name, meta.Bitrate, meta.DurationSec, err)
				return
			}
			secs := time.Since(start).Seconds()
			log.Printf("dfsc: %s (%v, %.1fs) -> %v: %d bytes in %.2fs (%.2f MB/s, %d segment(s), %d failover(s), %d/%d hedge(s) won, checksum ok)",
				meta.Name, meta.Bitrate, meta.DurationSec, res.RMs, res.Bytes, secs,
				float64(res.Bytes)/secs/1e6, len(res.Segments), res.Failovers, res.HedgesWon, res.Hedges)
			return
		}
		out := c.Do(r.Op, r.File)
		count(out.OK, out.Code)
		if !out.OK {
			log.Printf("dfsc: %v %s (%v, %.1fs) FAILED: %s", r.Op, meta.Name, meta.Bitrate, meta.DurationSec, out.Reason)
			return
		}
		log.Printf("dfsc: %v %s (%v, %.1fs) -> %v", r.Op, meta.Name, meta.Bitrate, meta.DurationSec, out.RM)
	}

	log.Printf("dfsc: sending %d requests", pattern.Len())
	dfsc.Replay(pattern, *scale, send)
	var st dfsc.Stats
	for _, c := range clients {
		st.Requests += c.Stats().Requests
		st.Failed += c.Stats().Failed
	}
	fmt.Fprintf(stdout, "dfsc: %d requests, %d admitted, %d failed (%s %.3f%%)\n",
		st.Requests, ok.Load(), failed.Load(), scen.Criterion(), 100*float64(st.Failed)/float64(max(1, st.Requests)))
	if n := faults.Load(); n > 0 {
		return fmt.Errorf("%d request(s) failed with no RM refusing them", n)
	}
	return nil
}

// checkPatternFiles fails on the first request of p whose file lies
// outside a catalog of files files, before any request is sent: the
// pattern was generated for a larger catalog than -files builds.
func checkPatternFiles(p *workload.Pattern, files int) error {
	for i, r := range p.Requests {
		if r.File < 0 || int(r.File) >= files {
			return fmt.Errorf("pattern request %d names file %d, outside the %d-file catalog: set -files to the pattern's workloadgen -files", i, r.File, files)
		}
	}
	return nil
}
