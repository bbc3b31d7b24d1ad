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
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dfsqos/internal/ecnp"
	"dfsqos/internal/faults"
	"dfsqos/internal/live"
	"dfsqos/internal/mm"
	"dfsqos/internal/monitor"
	"dfsqos/internal/telemetry"
	"dfsqos/internal/trace"
	"dfsqos/internal/transport"
	"dfsqos/internal/wire"
)

// shutdownTimeout bounds the monitor drain on SIGTERM.
const shutdownTimeout = 3 * time.Second

func main() {
	var (
		addr    = flag.String("addr", "127.0.0.1:7000", "listen address")
		rep     = flag.Int("replication", 1, "owner shards per file mapping in a shard group (with -peers; successor-list replication, 1 = unreplicated)")
		shardIx = flag.Int("shard-index", 0, "this daemon's ring index within a shard group (with -peers)")
		peersS  = flag.String("peers", "", "comma-separated addresses of every shard-group member, ring-index aligned (enables shard-group mode)")
		beatIv  = flag.Duration("shard-beat-interval", time.Second, "shard-to-shard heartbeat period in shard-group mode")
		monAddr = flag.String("monitor", "", "HTTP stats address; empty disables")
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
	lcfg := mm.LivenessConfig{HeartbeatInterval: *hbIv, MissThreshold: *misses}
	script, err := faults.Parse(*faultsS)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mmd: %v\n", err)
		os.Exit(1)
	}
	if script != nil {
		script.SetMetrics(faults.NewMetrics(reg))
	}
	// Two deployment shapes: a shard-group member (-peers) serving one
	// slice of the keyspace and mirroring to successors over TCP, or the
	// paper's single MM. Either answers /stats with liveness.
	var mapper interface {
		ecnp.Mapper
		monitor.MMLiveness
	}
	var shard *live.MMShard
	var peerList []string
	// One ticker latches silent RMs: a group member's beat loop, or the
	// single MM's sweeper when liveness is armed.
	var stopBeats func()
	if *peersS != "" {
		peerList = strings.Split(*peersS, ",")
		s, err := live.NewMMShard(*shardIx, len(peerList), *rep, mm.LivenessConfig{HeartbeatInterval: *beatIv, MissThreshold: *misses})
		if err != nil {
			fmt.Fprintf(os.Stderr, "mmd: %v\n", err)
			os.Exit(1)
		}
		s.SetLiveness(lcfg)
		s.SetMetrics(mm.NewMetrics(reg))
		if script != nil {
			s.SetFaults(script)
		}
		shard = s
		mapper = s
	} else {
		m := mm.New()
		m.SetLiveness(lcfg)
		m.SetMetrics(mm.NewMetrics(reg))
		if lcfg.Enabled() {
			stopBeats = live.StartLivenessSweeper(m, *hbIv)
		}
		mapper = m
	}
	srv, err := live.NewMMServer(mapper, *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mmd: %v\n", err)
		os.Exit(1)
	}
	srv.SetReplyTimeout(tcfg.CallTimeout)
	srv.SetMetrics(live.NewServerMetrics(reg, "mm"))
	srv.SetTracer(tracer)
	if script != nil {
		srv.SetFaults(script)
		log.Printf("mmd: fault injection armed: %s", *faultsS)
	}
	if lcfg.Enabled() {
		log.Printf("mmd: liveness armed: %v heartbeat, dead after %d misses", *hbIv, *misses)
	}
	if *verbose {
		srv.SetLogger(log.Printf)
	}
	if shard != nil {
		if *verbose {
			shard.SetLogger(log.Printf)
		}
		// Peers dial lazily per call, so member start order does not
		// matter: a not-yet-listening successor just fails its first
		// mirrors and reconverges through the heal handoff.
		if err := shard.DialPeers(peerList, *tcfg); err != nil {
			fmt.Fprintf(os.Stderr, "mmd: %v\n", err)
			os.Exit(1)
		}
		stopBeats = shard.StartShardBeats(*beatIv)
		log.Printf("mmd: shard %d/%d listening on %s (replication %d, shard beat %v)",
			*shardIx, len(peerList), srv.Addr(), *rep, *beatIv)
	} else {
		log.Printf("mmd: metadata manager listening on %s", srv.Addr())
	}
	var monSrv *http.Server
	if *monAddr != "" {
		var bound string
		monSrv, bound, err = monitor.Serve(*monAddr, monitor.NewMMHandler(mapper, reg, tracer))
		if err != nil {
			fmt.Fprintf(os.Stderr, "mmd: %v\n", err)
			os.Exit(1)
		}
		log.Printf("mmd: stats at http://%s/stats, metrics at http://%s/metrics, traces at http://%s/traces", bound, bound, bound)
	}
	var dbgSrv *http.Server
	if *dbgAddr != "" {
		var bound string
		dbgSrv, bound, err = monitor.Serve(*dbgAddr, monitor.NewDebugHandler(tracer))
		if err != nil {
			fmt.Fprintf(os.Stderr, "mmd: %v\n", err)
			os.Exit(1)
		}
		log.Printf("mmd: debug at http://%s/traces and http://%s/debug/pprof/", bound, bound)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Printf("mmd: shutting down")
	if stopBeats != nil {
		stopBeats()
	}
	if err := monitor.Shutdown(monSrv, shutdownTimeout); err != nil {
		log.Printf("mmd: monitor shutdown: %v", err)
	}
	if err := monitor.Shutdown(dbgSrv, shutdownTimeout); err != nil {
		log.Printf("mmd: debug shutdown: %v", err)
	}
	srv.Close()
	if shard != nil {
		shard.ClosePeers() // after the server: no beat can start a heal
	}
}
