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
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"dfsqos/internal/catalog"
	"dfsqos/internal/cluster"
	"dfsqos/internal/ids"
	"dfsqos/internal/live"
	"dfsqos/internal/monitor"
	"dfsqos/internal/replication"
	"dfsqos/internal/rng"
	"dfsqos/internal/telemetry"
	"dfsqos/internal/tenant"
	"dfsqos/internal/trace"
	"dfsqos/internal/transport"
	"dfsqos/internal/units"
	"dfsqos/internal/wire"
)

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
		monAddr = flag.String("monitor", "", "HTTP monitor address serving /healthz, /metrics, /traces and pprof (e.g. 127.0.0.1:0); empty disables")
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

	capacity, err1 := units.ParseRate(*capStr)
	storage, err2 := units.ParseSize(*storStr)
	strat, err3 := replication.ParseStrategy(*repStr)
	dest, err4 := replication.ParseDestStrategy(*destStr)
	quotas, err5 := tenant.ParseQuotas(*quotasS)
	if err := errors.Join(err1, err2, err3, err4, err5); err != nil {
		fail(err)
	}
	repCfg := replication.DefaultConfig(strat)
	repCfg.Dest = dest

	catCfg := catalog.DefaultConfig()
	catCfg.NumFiles = *files
	cat, placement, err := cluster.SeededCorpus(*seed, catCfg, *numRMs, *degree)
	if err != nil {
		fail(err)
	}
	rmID := ids.RMID(*id)
	held := placement.FilesOn(rmID)

	// One registry aggregates transport, server, RM core, blkio and
	// replication telemetry on this daemon's /metrics page.
	reg := telemetry.NewRegistry()
	wire.RegisterCodecMetrics(reg)
	tracer := trace.New(trace.Options{Actor: fmt.Sprintf("rm%d", *id), RingSize: *traceN, Registry: reg})
	sched := live.NewWallScheduler(*scale)
	node, err := live.StartRM(live.RMSpec{
		ID:                rmID,
		Addr:              *addr,
		MM:                strings.Split(*mmAddr, ","),
		MMRep:             *mmRep,
		Capacity:          capacity,
		Storage:           storage,
		Catalog:           cat,
		Files:             held,
		Replication:       repCfg,
		Rand:              rng.New(*seed).Split(fmt.Sprintf("rmd/%d", rmID)),
		Sched:             sched,
		HeartbeatInterval: *hbIv,
		LeaseTTL:          *leaseTT,
		Oversub:           *oversub,
		Tenants:           quotas,
		StreamQoS:         *sqos,
		StreamCeil:        *sceil,
		Faults:            *faultsS,
		Transport:         *tcfg,
		Registry:          reg,
		Tracer:            tracer,
		Logf:              log.Printf,
		Verbose:           *verbose,
	})
	if err != nil {
		fail(err)
	}
	defer sched.Stop()
	log.Printf("rmd: %v (%v, %d files, %v) listening on %s, registered at %s; heartbeat %v, lease TTL %v, stream QoS %v (ceiling %.2f× capacity), %d tenant quota(s), faults %q",
		rmID, capacity, len(held), strat, node.Server.Addr(), *mmAddr, *hbIv, *leaseTT, *sqos, *sceil, len(quotas), *faultsS)
	stopMonitor, err := monitor.Start(fmt.Sprintf("rmd: %v", rmID), *monAddr, *dbgAddr, reg, tracer)
	if err != nil {
		fail(err)
	}
	defer stopMonitor()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Printf("rmd: %v shutting down", rmID)
	node.Close()
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "rmd: %v\n", err)
	os.Exit(1)
}
