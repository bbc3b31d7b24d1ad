// Command dfsc runs a DFS client — the Requester role of the ECNP model —
// against a live deployment (mmd + rmd daemons). It issues popularity-drawn
// file accesses through the full three-phase flow (MM query, CFP fan-out
// and bid selection, QoS-assured open), optionally streams the file bytes
// from the serving RM, and prints per-request outcomes plus a summary.
//
//	dfsc -mm 127.0.0.1:7000 -policy "(1,0,0)" -scenario firm -n 20 -read
//
// With -replay it is the paper's request scheduler (§VI-A): it sends each
// request of a workloadgen pattern at its arrival time divided by -scale,
// through one client per pattern DFSC.
//
//	dfsc -mm 127.0.0.1:7000 -files 100 -replay pattern.json -scale 10
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
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
	var (
		mmAddr   = flag.String("mm", "127.0.0.1:7000", "metadata manager address; comma-separated ring-index-aligned list for a shard group")
		mmRep    = flag.Int("mm-replication", 1, "owner shards per file in the MM shard group (must match mmd -replication)")
		metaTTL  = flag.Duration("meta-ttl", 0, "metadata lease TTL: cached lookup results skip the MM until they expire (0 disables the lease cache)")
		policy   = flag.String("policy", "(1,0,0)", "resource selection policy (α,β,γ) or (α,β,γ,δ) with the weighted-fairness term")
		scenario = flag.String("scenario", "firm", "allocation scenario: soft or firm")
		tenantID = flag.Int("tenant", 0, "tenant identity stamped on every request (0 = untenanted); quota'd RMs charge admissions to it")
		n        = flag.Int("n", 10, "number of file accesses to issue")
		replay   = flag.String("replay", "", "access pattern (JSON from workloadgen) to send instead of -n: each request at its arrival time / -scale, through one client per pattern DFSC")
		read     = flag.Bool("read", false, "stream each admitted file's bytes from the serving RM")
		seed     = flag.Uint64("seed", 1, "deployment master seed (must match rmd)")
		numRMs   = flag.Int("num-rms", 16, "total RMs in the deployment")
		degree   = flag.Int("degree", 3, "static replica degree")
		files    = flag.Int("files", 1000, "catalog size")
		gapMS    = flag.Int("gap", 200, "milliseconds between requests")
		scale    = flag.Float64("scale", 1, "virtual seconds per wall second")
		negTO    = flag.Duration("negotiation-timeout", 2*time.Second, "deadline for collecting CFP bids; stalled RMs degrade to last-ranked zero bids")
		maxFO    = flag.Int("max-failovers", 2, "replicas a -read may fail over to after its serving RM dies mid-stream")
		stripeW  = flag.Int("stripe-width", 1, "replicas a -read stripes byte ranges across (1 = sequential single-RM read)")
		hedgeAft = flag.Duration("hedge-after", 0, "re-issue a lagging stripe range to another lane after this long (0 disables hedging)")
		monAddr  = flag.String("monitor", "", "HTTP stats/metrics address (e.g. 127.0.0.1:0); empty disables")
		dbgAddr  = flag.String("debug-addr", "", "standalone debug HTTP address (/traces + pprof); empty serves them on -monitor only")
		traceN   = flag.Int("trace-ring", 4096, "span ring capacity for request tracing (rounded up to a power of two)")
		sample   = flag.Float64("trace-sample", 1, "fraction of requests to trace (0 disables, 1 traces all)")
		tcfg     = transport.RegisterFlags(flag.CommandLine)
	)
	flag.Parse()

	pol, err := selection.ParsePolicy(*policy)
	if err != nil {
		fail(err)
	}
	if *tenantID < 0 {
		fail(fmt.Errorf("negative -tenant %d", *tenantID))
	}
	// The tenant travels twice: in the ECNP control payloads (CFP, open,
	// store) and stamped on every dialed connection's wire frames, so
	// data-plane chunks are attributable too.
	tcfg.Tenant = ids.TenantID(*tenantID)
	scen, err := qos.Parse(*scenario)
	if err != nil {
		fail(err)
	}
	catCfg := catalog.DefaultConfig()
	catCfg.NumFiles = *files
	cat, _, err := cluster.SeededCorpus(*seed, catCfg, *numRMs, *degree)
	if err != nil {
		fail(err)
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
			fail(err)
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
		// spans for it.
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
		fail(err)
	}
	mapper.SetMetrics(live.NewMMRouteMetrics(reg))
	defer mapper.Close()
	mapper.SetLogger(log.Printf)
	dir := live.NewDirectoryConfig(mapper, *tcfg)
	defer dir.Close()
	dir.SetLogger(log.Printf)
	sched := live.NewWallScheduler(*scale)
	defer sched.Stop()

	// Every client shares the mapper, directory, registry and tracer; the
	// -n loop runs client 1, a replay one client per pattern DFSC.
	met := dfsc.NewMetrics(reg)
	newClient := func(id ids.DFSCID) *dfsc.Client {
		c, err := dfsc.New(dfsc.Options{
			ID:        id,
			Mapper:    mapper,
			Directory: dir,
			Scheduler: sched,
			Catalog:   cat,
			Policy:    pol,
			Scenario:  scen,
			Tenant:    ids.TenantID(*tenantID),
			Rand:      rng.New(*seed).Split(fmt.Sprintf("dfsc-cli/%d", id)),
			// The live control path fans CFPs out concurrently, bounded by
			// the negotiation deadline: one stalled RM costs at most -negotiation-timeout,
			// not its share of a serial scan.
			Fanout:  dfsc.Fanout{Concurrent: true, BidTimeout: *negTO},
			MetaTTL: *metaTTL,
			Metrics: met,
			Tracer:  tracer,
		})
		if err != nil {
			fail(err)
		}
		return c
	}
	client := newClient(1)
	clients := map[ids.DFSCID]*dfsc.Client{1: client}
	if *monAddr != "" {
		monSrv, bound, err := monitor.Serve(*monAddr, monitor.NewDFSCHandler(client, reg, tracer))
		if err != nil {
			fail(err)
		}
		defer monitor.Shutdown(monSrv, 3*time.Second)
		log.Printf("dfsc: stats at http://%s/stats, metrics at http://%s/metrics, traces at http://%s/traces", bound, bound, bound)
	}
	if *dbgAddr != "" {
		dbgSrv, bound, err := monitor.Serve(*dbgAddr, monitor.NewDebugHandler(tracer))
		if err != nil {
			fail(err)
		}
		defer monitor.Shutdown(dbgSrv, 3*time.Second)
		log.Printf("dfsc: debug at http://%s/traces and http://%s/debug/pprof/", bound, bound)
	}

	// access sends one request for file through c and logs its outcome. A
	// failure that no RM refused is a fault, and a fault makes dfsc exit 1.
	var ok, failed, faults int
	access := func(c *dfsc.Client, file ids.FileID) {
		meta := cat.File(file)
		if *read {
			// Streamed access with self-healing: reservations ride the
			// stream (chunks renew their leases), a replica dying mid-range
			// fails over to the next-best bidder — bounded by -max-failovers
			// — and -stripe-width > 1 spreads byte ranges across that many
			// lanes at once, with -hedge-after re-issuing lagging ranges.
			start := time.Now()
			res, err := c.ReadStriped(dir, file, io.Discard, dfsc.StripeConfig{
				Width:        *stripeW,
				HedgeAfter:   *hedgeAft,
				MaxFailovers: *maxFO,
			})
			if err != nil {
				failed++
				if ecnp.RefusalOf(err) == 0 {
					faults++
				}
				log.Printf("dfsc: %s (%v, %.1fs) FAILED: %v", meta.Name, meta.Bitrate, meta.DurationSec, err)
			} else {
				ok++
				secs := time.Since(start).Seconds()
				log.Printf("dfsc: %s (%v, %.1fs) -> %v: %d bytes in %.2fs (%.2f MB/s, %d segment(s), %d failover(s), %d/%d hedge(s) won, checksum ok)",
					meta.Name, meta.Bitrate, meta.DurationSec, res.RMs, res.Bytes, secs,
					float64(res.Bytes)/secs/1e6, len(res.Segments), res.Failovers, res.HedgesWon, res.Hedges)
			}
			return
		}
		out := c.Access(file)
		if !out.OK {
			failed++
			if out.Code == 0 {
				faults++
			}
			log.Printf("dfsc: %s (%v, %.1fs) FAILED: %s", meta.Name, meta.Bitrate, meta.DurationSec, out.Reason)
		} else {
			ok++
			log.Printf("dfsc: %s (%v, %.1fs) -> %v", meta.Name, meta.Bitrate, meta.DurationSec, out.RM)
		}
	}

	if pattern == nil {
		picker := rng.New(uint64(time.Now().UnixNano()) | 1)
		for i := 0; i < *n; i++ {
			access(client, cat.SamplePopular(picker))
			time.Sleep(time.Duration(*gapMS) * time.Millisecond)
		}
	} else {
		log.Printf("dfsc: replaying %d requests over %.0f virtual s (%.0f wall s)",
			pattern.Len(), pattern.Config.HorizonSec, pattern.Config.HorizonSec / *scale)
		start := time.Now()
		for _, r := range pattern.Requests {
			c := clients[r.DFSC]
			if c == nil {
				c = newClient(r.DFSC)
				clients[r.DFSC] = c
			}
			time.Sleep(time.Until(start.Add(time.Duration(r.AtSec / *scale * float64(time.Second)))))
			access(c, r.File)
		}
	}
	var st dfsc.Stats
	for _, c := range clients {
		st.Requests += c.Stats().Requests
		st.Failed += c.Stats().Failed
	}
	fmt.Printf("dfsc: %d requests, %d admitted, %d failed (%s %.3f%%)\n",
		st.Requests, ok, failed, scen.Criterion(), 100*float64(st.Failed)/float64(max(1, st.Requests)))
	if faults > 0 {
		fail(fmt.Errorf("%d request(s) failed with no RM refusing them", faults))
	}
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

func fail(err error) {
	fmt.Fprintf(os.Stderr, "dfsc: %v\n", err)
	os.Exit(1)
}
