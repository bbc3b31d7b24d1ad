// Command mmd runs the Metadata Manager daemon — the Mapper role of the
// ECNP model. It maintains the global resource list and the file → replica
// map; RMs register with it and DFS clients query it.
//
// Per the paper's initialization order (Fig. 2) the MM starts first, then
// the RMs register, and the DFSCs launch last:
//
//	mmd -addr 127.0.0.1:7000
//	rmd -id 1 -mm 127.0.0.1:7000 -capacity 128Mbps ...
//	dfsc -mm 127.0.0.1:7000 -policy "(1,0,0)" ...
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dfsqos/internal/live"
	"dfsqos/internal/monitor"
	"dfsqos/internal/telemetry"
	"dfsqos/internal/trace"
	"dfsqos/internal/transport"
	"dfsqos/internal/wire"
)

func main() {
	var (
		addr    = flag.String("addr", "127.0.0.1:7000", "listen address")
		rep     = flag.Int("replication", 1, "owner shards per file mapping in a shard group (with -peers; successor-list replication, 1 = unreplicated)")
		shardIx = flag.Int("shard-index", 0, "this daemon's ring index within a shard group (with -peers)")
		peersS  = flag.String("peers", "", "comma-separated addresses of every shard-group member, ring-index aligned (enables shard-group mode)")
		beatIv  = flag.Duration("shard-beat-interval", time.Second, "shard-to-shard heartbeat period in shard-group mode")
		monAddr = flag.String("monitor", "", "HTTP monitor address serving /healthz, /metrics, /traces and pprof; empty disables")
		dbgAddr = flag.String("debug-addr", "", "standalone debug HTTP address (/traces + pprof); empty serves them on -monitor only")
		traceN  = flag.Int("trace-ring", 4096, "span ring capacity for request tracing (rounded up to a power of two)")
		verbose = flag.Bool("v", false, "log every connection error")
		hbIv    = flag.Duration("heartbeat-interval", 0, "expected RM heartbeat period; 0 disables liveness tracking")
		misses  = flag.Int("liveness-misses", 3, "consecutive missed heartbeats before an RM is considered dead")
		faultsS = flag.String("faults", "", "fault-injection spec (chaos testing; see internal/faults)")
		// -call-timeout bounds each reply write (a client that stops
		// reading cannot wedge a handler); -dial-timeout and -pool-size
		// are accepted for deployment-script symmetry and apply to any
		// outbound control connections the daemon opens.
		tcfg = transport.RegisterFlags(flag.CommandLine)
	)
	flag.Parse()

	reg := telemetry.NewRegistry()
	wire.RegisterCodecMetrics(reg)
	tracer := trace.New(trace.Options{Actor: "mm", RingSize: *traceN, Registry: reg})
	// Two deployment shapes: a shard-group member (-peers) serving one
	// slice of the keyspace and mirroring to successors over TCP, or the
	// paper's single MM. Either reports its liveness tables on /metrics.
	var peers []string
	if *peersS != "" {
		peers = strings.Split(*peersS, ",")
	}
	node, err := live.StartMM(live.MMSpec{
		Addr:              *addr,
		Peers:             peers,
		Index:             *shardIx,
		Replication:       *rep,
		ShardBeatInterval: *beatIv,
		HeartbeatInterval: *hbIv,
		LivenessMisses:    *misses,
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
	log.Printf("mmd: listening on %s; group %v (index %d, replication %d, shard beat %v); RM heartbeat %v (0: liveness off), dead after %d misses; faults %q",
		node.Server.Addr(), peers, *shardIx, *rep, *beatIv, *hbIv, *misses, *faultsS)
	stopMonitor, err := monitor.Start("mmd:", *monAddr, *dbgAddr, reg, tracer)
	if err != nil {
		fail(err)
	}
	defer stopMonitor()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Printf("mmd: shutting down")
	node.Close()
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "mmd: %v\n", err)
	os.Exit(1)
}
