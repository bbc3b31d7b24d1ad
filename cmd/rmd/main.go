// Command rmd runs one Resource Manager daemon — the Storage Provider role
// of the ECNP model. It registers its resources with the Metadata Manager,
// answers Call-For-Proposals with bids, admits QoS-assured data accesses
// against a blkio-throttled virtual disk, and runs the dynamic-replication
// source and destination endpoints.
//
// The file corpus is derived deterministically from -seed (see
// cluster.SeededCorpus), so every rmd of one deployment provisions exactly
// the replicas the shared placement assigns it:
//
//	rmd -id 1 -mm 127.0.0.1:7000 -capacity 128Mbps -seed 1 -num-rms 16
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dfsqos/internal/blkio"
	"dfsqos/internal/catalog"
	"dfsqos/internal/cluster"
	"dfsqos/internal/ecnp"
	"dfsqos/internal/faults"
	"dfsqos/internal/history"
	"dfsqos/internal/ids"
	"dfsqos/internal/live"
	"dfsqos/internal/monitor"
	"dfsqos/internal/replication"
	"dfsqos/internal/rm"
	"dfsqos/internal/rng"
	"dfsqos/internal/telemetry"
	"dfsqos/internal/tenant"
	"dfsqos/internal/trace"
	"dfsqos/internal/transport"
	"dfsqos/internal/units"
	"dfsqos/internal/vdisk"
	"dfsqos/internal/wire"
)

// shutdownTimeout bounds the monitor drain on SIGTERM.
const shutdownTimeout = 3 * time.Second

func main() {
	var (
		id      = flag.Int("id", 1, "RM identifier (1-based)")
		addr    = flag.String("addr", "127.0.0.1:0", "listen address")
		mmAddr  = flag.String("mm", "127.0.0.1:7000", "metadata manager address; comma-separated ring-index-aligned list for a shard group")
		mmRep   = flag.Int("mm-replication", 1, "owner shards per file in the MM shard group (must match mmd -replication)")
		capStr  = flag.String("capacity", "18Mbps", "disk bandwidth (e.g. 128Mbps)")
		storStr = flag.String("storage", "16GB", "disk size")
		seed    = flag.Uint64("seed", 1, "deployment master seed (shared by all components)")
		numRMs  = flag.Int("num-rms", 16, "total RMs in the deployment")
		degree  = flag.Int("degree", 3, "static replica degree")
		files   = flag.Int("files", 1000, "catalog size")
		repStr  = flag.String("rep", "static", `replication strategy: "static", "baseline" or "Rep(n,m)"`)
		destStr = flag.String("dest", "random", "destination selection: random, lbf, weighted")
		scale   = flag.Float64("scale", 1, "virtual seconds per wall second")
		monAddr = flag.String("monitor", "", "HTTP stats address (e.g. 127.0.0.1:0); empty disables")
		dbgAddr = flag.String("debug-addr", "", "standalone debug HTTP address (/traces + pprof); empty serves them on -monitor only")
		traceN  = flag.Int("trace-ring", 4096, "span ring capacity for request tracing (rounded up to a power of two)")
		verbose = flag.Bool("v", false, "log connection errors")
		hbIv    = flag.Duration("heartbeat-interval", 0, "liveness beacon period to the MM; 0 disables")
		leaseTT = flag.Duration("lease-ttl", 0, "reservation lease TTL (wall time); idle reservations past it are reclaimed; 0 disables")
		oversub = flag.Float64("oversub", 1, "admission oversubscription ratio: bids and firm admission extend to capacity×ratio while assured floors stay enforced (1 = nominal)")
		sqos    = flag.Bool("stream-qos", false, "route each reservation's stream through its own work-conserving blkio group (assured = bitrate)")
		quotasS = flag.String("tenant-quotas", "", `per-tenant quota table "1=4Mbps:1GB:2,2=2Mbps,..." (<tenant>=<bw>:<bytes>:<weight>); empty disables tenancy enforcement`)
		sceil   = flag.Float64("stream-ceil", 1, "per-stream burst ceiling as a fraction of capacity under -stream-qos (0 = flat: ceiling equals the assured floor)")
		faultsS = flag.String("faults", "", "fault-injection spec (chaos testing; see internal/faults)")
		tcfg    = transport.RegisterFlags(flag.CommandLine)
	)
	flag.Parse()

	capacity, err := units.ParseRate(*capStr)
	if err != nil {
		fail(err)
	}
	storage, err := units.ParseSize(*storStr)
	if err != nil {
		fail(err)
	}
	strat, err := replication.ParseStrategy(*repStr)
	if err != nil {
		fail(err)
	}
	dest, err := replication.ParseDestStrategy(*destStr)
	if err != nil {
		fail(err)
	}
	repCfg := replication.DefaultConfig(strat)
	repCfg.Dest = dest
	quotas, err := tenant.ParseQuotas(*quotasS)
	if err != nil {
		fail(err)
	}

	catCfg := catalog.DefaultConfig()
	catCfg.NumFiles = *files
	cat, placement, err := cluster.SeededCorpus(*seed, catCfg, *numRMs, *degree)
	if err != nil {
		fail(err)
	}
	rmID := ids.RMID(*id)

	// One registry aggregates transport, server, RM core, blkio and
	// replication telemetry on this daemon's /metrics page.
	reg := telemetry.NewRegistry()
	tcfg.Metrics = transport.NewMetrics(reg)
	wire.RegisterCodecMetrics(reg)
	tracer := trace.New(trace.Options{Actor: fmt.Sprintf("rm%d", *id), RingSize: *traceN, Registry: reg})

	// Build the throttled virtual disk and provision this RM's replicas:
	// the blkio group caps both read and write at the RM's capacity, as
	// the paper's loop-device/cgroup binding does.
	ctrl := blkio.NewController()
	ctrl.SetMetrics(blkio.NewMetrics(reg))
	disk, err := vdisk.New(storage, ctrl, fmt.Sprintf("vm%d", rmID), capacity, capacity)
	if err != nil {
		fail(err)
	}
	fileMetas := make(map[ids.FileID]rm.FileMeta)
	for _, f := range placement.FilesOn(rmID) {
		meta := cat.File(f)
		fileMetas[f] = rm.FileMeta{Bitrate: meta.Bitrate, Size: meta.Size, DurationSec: meta.DurationSec}
		if err := disk.Provision(live.FileName(f), meta.Size); err != nil {
			fail(fmt.Errorf("provisioning %v: %w", f, err))
		}
	}

	mapper, err := live.DialMMConfig(strings.Split(*mmAddr, ","), *mmRep, *tcfg)
	if err != nil {
		fail(err)
	}
	mapper.SetMetrics(live.NewMMRouteMetrics(reg))
	sched := live.NewWallScheduler(*scale)
	peers := live.NewDirectoryConfig(mapper, *tcfg)
	copier := live.NewCopier(disk, peers, *scale)
	copier.SetMetrics(live.NewCopierMetrics(reg))
	copier.SetTracer(tracer)
	var ledger *tenant.Ledger
	if len(quotas) > 0 {
		ledger = tenant.NewLedger()
		ledger.SetMetrics(tenant.NewMetrics(reg))
		for t, q := range quotas {
			ledger.Set(t, q)
		}
		log.Printf("rmd: %v enforcing quotas for %d tenant(s)", rmID, len(quotas))
	}
	node, err := rm.New(rm.Options{
		Info:        ecnp.RMInfo{ID: rmID, Capacity: capacity, StorageBytes: storage},
		Scheduler:   sched,
		Mapper:      mapper,
		History:     history.DefaultConfig(),
		Replication: repCfg,
		Rand:        rng.New(*seed).Split(fmt.Sprintf("rmd/%d", rmID)),
		Files:       fileMetas,
		// Replication moves real bytes between daemons, paced at the
		// replication rate scaled to wall time.
		Copier:  copier,
		Metrics: rm.NewMetrics(reg),
		Oversub: *oversub,
		Tenants: ledger,
		// The lease TTL is specified in wall time; the RM's scheduler
		// runs virtual seconds at -scale× wall, so convert.
		LeaseTTLSec: leaseTT.Seconds() * *scale,
	})
	if err != nil {
		fail(err)
	}
	srv, err := live.NewRMServer(node, disk, *addr)
	if err != nil {
		fail(err)
	}
	if *sqos {
		if err := srv.EnableStreamQoS(*sceil); err != nil {
			fail(err)
		}
		log.Printf("rmd: %v stream QoS on (ceiling %.2f× capacity)", rmID, *sceil)
	}
	srv.SetReplyTimeout(tcfg.CallTimeout)
	srv.SetMetrics(live.NewServerMetrics(reg, "rm"))
	srv.SetTracer(tracer)
	if script, err := faults.Parse(*faultsS); err != nil {
		fail(err)
	} else if script != nil {
		script.SetMetrics(faults.NewMetrics(reg))
		srv.SetFaults(script)
		log.Printf("rmd: %v fault injection armed: %s", rmID, *faultsS)
	}
	if *verbose {
		srv.SetLogger(log.Printf)
		mapper.SetLogger(log.Printf)
		peers.SetLogger(log.Printf)
	}

	// Register with the dialable address, then wire the peer directory
	// for replication. The address is stamped onto the node itself so the
	// heartbeat loop's self-heal re-registration advertises it too.
	node.SetAddr(srv.Addr())
	if err := node.Register(); err != nil {
		fail(err)
	}
	node.SetDirectory(peers)
	log.Printf("rmd: %v (%v, %d files, %v) listening on %s, registered at %s",
		rmID, capacity, len(fileMetas), strat, srv.Addr(), *mmAddr)

	// Self-healing layer: periodic liveness beacons to the MM (with
	// automatic re-registration when the MM forgot us) and the lease
	// sweeper that reclaims orphaned reservations.
	var stopBeat, stopSweep func()
	if *hbIv > 0 {
		stopBeat = live.StartHeartbeats(node, mapper, *hbIv, log.Printf)
		log.Printf("rmd: %v heartbeating every %v", rmID, *hbIv)
	}
	if *leaseTT > 0 {
		period := *leaseTT / 2
		if period < 10*time.Millisecond {
			period = 10 * time.Millisecond
		}
		stopSweep = live.StartLeaseSweeper(node, sched, period, log.Printf)
		log.Printf("rmd: %v lease TTL %v (sweep every %v)", rmID, *leaseTT, period)
	}
	var monSrv *http.Server
	if *monAddr != "" {
		var bound string
		monSrv, bound, err = monitor.Serve(*monAddr, monitor.NewRMHandler(node, disk, sched, reg, tracer))
		if err != nil {
			fail(err)
		}
		log.Printf("rmd: %v stats at http://%s/stats, metrics at http://%s/metrics, traces at http://%s/traces", rmID, bound, bound, bound)
	}
	var dbgSrv *http.Server
	if *dbgAddr != "" {
		var bound string
		dbgSrv, bound, err = monitor.Serve(*dbgAddr, monitor.NewDebugHandler(tracer))
		if err != nil {
			fail(err)
		}
		log.Printf("rmd: %v debug at http://%s/traces and http://%s/debug/pprof/", rmID, bound, bound)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Printf("rmd: %v shutting down", rmID)
	if stopBeat != nil {
		stopBeat()
	}
	if stopSweep != nil {
		stopSweep()
	}
	if err := monitor.Shutdown(monSrv, shutdownTimeout); err != nil {
		log.Printf("rmd: monitor shutdown: %v", err)
	}
	if err := monitor.Shutdown(dbgSrv, shutdownTimeout); err != nil {
		log.Printf("rmd: debug shutdown: %v", err)
	}
	srv.Close()
	sched.Stop()
	mapper.Close()
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "rmd: %v\n", err)
	os.Exit(1)
}
