package live

import (
	"context"
	"fmt"
	"sync"
	"time"

	"dfsqos/internal/blkio"
	"dfsqos/internal/catalog"
	"dfsqos/internal/ecnp"
	"dfsqos/internal/faults"
	"dfsqos/internal/history"
	"dfsqos/internal/ids"
	"dfsqos/internal/mm"
	"dfsqos/internal/replication"
	"dfsqos/internal/rm"
	"dfsqos/internal/rng"
	"dfsqos/internal/telemetry"
	"dfsqos/internal/tenant"
	"dfsqos/internal/trace"
	"dfsqos/internal/transport"
	"dfsqos/internal/units"
	"dfsqos/internal/vdisk"
)

// A node is one process of a deployment: an RM (rmd) or a metadata-plane
// member (mmd). rmd, mmd and Local start and stop every node through
// StartRM and StartMM. A node's death — Close, or a fault script's kill —
// stops everything it started: its loops as well as its sockets.

// RMSpec is one RM process; each field is the value of an rmd flag.
type RMSpec struct {
	ID                ids.RMID                      // -id
	Addr              string                        // -addr
	MM                []string                      // -mm: one MM, or a shard group ring-index aligned
	MMRep             int                           // -mm-replication
	Capacity          units.BytesPerSec             // -capacity
	Storage           units.Size                    // -storage
	Catalog           *catalog.Catalog              // -seed, -files: the corpus
	Files             []ids.FileID                  // -num-rms, -degree: the static replicas held
	Replication       replication.Config            // -rep, -dest
	Rand              *rng.Source                   // -seed: the RM's own stream
	Sched             *WallScheduler                // -scale; the caller owns and stops it
	HeartbeatInterval time.Duration                 // -heartbeat-interval (zero: no beacons)
	LeaseTTL          time.Duration                 // -lease-ttl, wall time (zero: no leases)
	Oversub           float64                       // -oversub
	Tenants           map[ids.TenantID]tenant.Quota // -tenant-quotas
	StreamQoS         bool                          // -stream-qos
	StreamCeil        float64                       // -stream-ceil
	Faults            string                        // -faults
	Transport         transport.Config              // -dial-timeout, -call-timeout, -pool-size
	Registry          *telemetry.Registry           // /metrics (nil: no telemetry)
	Tracer            *trace.Tracer                 // -trace-ring (nil: no spans)
	Logf              func(string, ...any)          // the loops' notices (nil: discarded)
	Verbose           bool                          // -v: connection errors to Logf too
	// Disk is the disk an earlier start of this RM left, taken as it is;
	// nil provisions a fresh one with Files.
	Disk *vdisk.Disk
}

// RMNode is a running RM: its disk and server, its mapper and peer
// directory, its heartbeats and its lease sweeper.
type RMNode struct {
	Disk   *vdisk.Disk
	Server *RMServer

	mapper *MMClient
	peers  *Directory
	loops  *loops
	once   sync.Once
	bound  telemetry.Bindings // its RM's, disk's and tenants' series
}

// StartRM starts the RM spec describes in the paper's order: provision
// its disk, dial the metadata plane, build the RM and serve it, register
// it at the address it serves, then start its loops. On error everything
// already started is stopped.
func StartRM(spec RMSpec) (*RMNode, error) {
	n := &RMNode{Disk: spec.Disk, loops: newLoops()}
	if err := n.start(spec); err != nil {
		n.Close()
		return nil, fmt.Errorf("live: start %v: %w", spec.ID, err)
	}
	return n, nil
}

func (n *RMNode) start(spec RMSpec) error {
	reg, logf := spec.Registry, discardNil(spec.Logf)
	cfg := nodeTransport(spec.Transport, reg)
	script, err := parseFaults(spec.Faults, reg)
	if err != nil {
		return err
	}
	files := make(map[ids.FileID]rm.FileMeta, len(spec.Files))
	for _, f := range spec.Files {
		meta := spec.Catalog.File(f)
		files[f] = rm.FileMeta{Bitrate: meta.Bitrate, Size: meta.Size, DurationSec: meta.DurationSec}
	}
	if n.Disk == nil {
		// The blkio group caps both read and write at the RM's capacity,
		// as the paper's loop-device/cgroup binding does.
		if n.Disk, err = vdisk.New(spec.Storage, blkio.NewController(), fmt.Sprintf("vm%d", spec.ID), spec.Capacity, spec.Capacity); err != nil {
			return err
		}
		for f, meta := range files {
			if err := n.Disk.Provision(FileName(f), meta.Size); err != nil {
				return fmt.Errorf("provisioning %v: %w", f, err)
			}
		}
	}

	if reg != nil {
		// A disk this RM inherited reports to the node that serves it now.
		blkMet := blkio.NewMetrics(reg)
		n.Disk.Controller().SetMetrics(blkMet)
		n.bound.Add(blkMet.Unbind)
	}

	if n.mapper, err = DialMMConfig(spec.MM, spec.MMRep, cfg); err != nil {
		return err
	}
	n.mapper.SetMetrics(NewMMRouteMetrics(reg))
	n.peers = NewDirectoryConfig(n.mapper, cfg)

	var ledger *tenant.Ledger
	if len(spec.Tenants) > 0 {
		ledger = tenant.NewLedger()
		tenMet := tenant.NewMetrics(reg)
		ledger.SetMetrics(tenMet)
		n.bound.Add(tenMet.Unbind)
		for t, q := range spec.Tenants {
			ledger.Set(t, q)
		}
	}
	rmMet := rm.NewMetrics(reg)
	n.bound.Add(rmMet.Unbind)
	node, err := rm.New(rm.Options{
		Info:        ecnp.RMInfo{ID: spec.ID, Capacity: spec.Capacity, StorageBytes: spec.Storage},
		Scheduler:   spec.Sched,
		Mapper:      n.mapper,
		History:     history.DefaultConfig(),
		Replication: spec.Replication,
		Rand:        spec.Rand,
		Files:       files,
		// Replication moves real bytes between RMs, paced at the
		// replication rate scaled to wall time.
		Copier: &Copier{disk: n.Disk, dir: n.peers, scale: spec.Sched.scale,
			metrics: NewCopierMetrics(reg), tracer: spec.Tracer},
		Metrics: rmMet,
		Oversub: spec.Oversub,
		Tenants: ledger,
		// The TTL is wall time; the RM's clock runs Sched's virtual seconds.
		LeaseTTLSec: spec.LeaseTTL.Seconds() * spec.Sched.scale,
	})
	if err != nil {
		return err
	}
	if n.Server, err = NewRMServer(node, n.Disk, spec.Addr); err != nil {
		return err
	}
	if spec.StreamQoS {
		if err := n.Server.EnableStreamQoS(spec.StreamCeil); err != nil {
			return err
		}
	}
	var connLog func(string, ...any)
	if spec.Verbose {
		connLog = logf
		n.mapper.SetLogger(logf)
		n.peers.SetLogger(logf)
	}
	n.Server.arm(cfg.CallTimeout, NewServerMetrics(reg, "rm"), spec.Tracer, connLog, script, n.loops.stop)

	// Register with the dialable address, then wire the peer directory
	// for replication. The address is stamped onto the RM itself so a
	// heartbeat's re-registration advertises it too.
	node.SetAddr(n.Server.Addr())
	if err := node.Register(); err != nil {
		return err
	}
	node.SetDirectory(n.peers)

	if spec.HeartbeatInterval > 0 {
		// A beacon refused as a remote error means an MM lost this RM
		// (it restarted): re-register, which reconciles the file list.
		n.loops.every(spec.HeartbeatInterval, func() {
			switch err := n.mapper.Heartbeat(spec.ID); {
			case err == nil:
			case transport.IsRemote(err):
				if err := node.Register(); err != nil {
					logf("live: heartbeat re-register %v: %v", spec.ID, err)
				}
			default:
				logf("live: heartbeat %v: %v", spec.ID, err)
			}
		})
	}
	if spec.LeaseTTL > 0 {
		n.loops.every(max(spec.LeaseTTL/2, 10*time.Millisecond), func() {
			if k := node.SweepLeases(spec.Sched.Now()); k > 0 {
				logf("live: %v: lease sweeper reclaimed %d reservation(s)", spec.ID, k)
			}
		})
	}
	return nil
}

// Close stops the RM's loops, then its server, then its peer directory
// and mapper, and takes its state out of the registry's series. It is
// idempotent, and may follow a kill.
func (n *RMNode) Close() {
	n.once.Do(func() {
		n.loops.stop()
		if n.Server != nil {
			n.Server.Close()
		}
		if n.peers != nil {
			n.peers.Close()
		}
		if n.mapper != nil {
			n.mapper.Close()
		}
		n.bound.Unbind()
	})
}

// MMSpec is one metadata-plane process; each field is the value of an mmd
// flag. With Peers empty it is the paper's single MM, otherwise member
// Index of the shard group Peers lists (an empty slot: a member not yet
// bound).
type MMSpec struct {
	Addr              string               // -addr
	Peers             []string             // -peers
	Index             int                  // -shard-index
	Replication       int                  // -replication
	ShardBeatInterval time.Duration        // -shard-beat-interval
	HeartbeatInterval time.Duration        // -heartbeat-interval (zero: no RM liveness)
	LivenessMisses    int                  // -liveness-misses, of RMs and of members
	Faults            string               // -faults
	Transport         transport.Config     // -dial-timeout, -call-timeout, -pool-size
	Registry          *telemetry.Registry  // /metrics (nil: no telemetry)
	Tracer            *trace.Tracer        // -trace-ring (nil: no spans)
	Logf              func(string, ...any) // with Verbose, connection errors
	Verbose           bool                 // -v
}

// MMNode is a running metadata-plane process: its mapper, its server, and
// the loop that latches silent RMs and, in a group, silent members.
type MMNode struct {
	// Manager holds the RM liveness table and replica map: the single
	// MM, or the group member's own.
	Manager *mm.Manager
	// Shard is the group member; nil on the single MM.
	Shard  *MMShard
	Server *MMServer

	loops *loops
	once  sync.Once
}

// StartMM starts the metadata-plane process spec describes: the mapper,
// its server, then its loop — a group member's beats, or the single MM's
// liveness sweep when RM liveness is armed. On error everything already
// started is stopped.
func StartMM(spec MMSpec) (*MMNode, error) {
	n := &MMNode{loops: newLoops()}
	if err := n.start(spec); err != nil {
		n.Close()
		return nil, fmt.Errorf("live: start mm: %w", err)
	}
	return n, nil
}

func (n *MMNode) start(spec MMSpec) error {
	reg, logf := spec.Registry, discardNil(spec.Logf)
	cfg := nodeTransport(spec.Transport, reg)
	script, err := parseFaults(spec.Faults, reg)
	if err != nil {
		return err
	}
	var mapper ecnp.Mapper
	if len(spec.Peers) > 0 {
		s, err := NewMMShard(spec.Index, len(spec.Peers), spec.Replication,
			mm.LivenessConfig{HeartbeatInterval: spec.ShardBeatInterval, MissThreshold: spec.LivenessMisses})
		if err != nil {
			return err
		}
		if script != nil {
			s.inj = script // before any peer call can read it
		}
		if spec.Verbose {
			s.SetLogger(logf)
		}
		s.SetMetrics(mm.NewMetrics(reg))
		n.Shard, n.Manager, mapper = s, s.Manager, s
	} else {
		n.Manager = mm.New()
		n.Manager.SetMetrics(mm.NewMetrics(reg))
		mapper = n.Manager
	}
	rmLive := mm.LivenessConfig{HeartbeatInterval: spec.HeartbeatInterval, MissThreshold: spec.LivenessMisses}
	n.Manager.SetLiveness(rmLive)
	if n.Server, err = NewMMServer(mapper, spec.Addr); err != nil {
		return err
	}
	var connLog func(string, ...any)
	if spec.Verbose {
		connLog = logf
	}
	n.Server.arm(cfg.CallTimeout, NewServerMetrics(reg, "mm"), spec.Tracer, connLog, script, n.loops.stop)
	switch {
	case n.Shard != nil:
		// Peers dial lazily per call, so member start order does not
		// matter: a not-yet-listening successor just fails its first
		// mirrors and reconverges through the heal handoff.
		n.Shard.DialPeers(spec.Peers, cfg)
		n.Shard.beats(n.loops, spec.ShardBeatInterval)
	case rmLive.Enabled():
		// The single MM latches a silent RM dead — counted, and out of
		// the live gauge — within one interval of its deadline. A group
		// member's beat loop sweeps its RM table as well.
		n.loops.every(spec.HeartbeatInterval, n.Manager.Sweep)
	}
	return nil
}

// Close stops the node's loop, then its server, then — in a group — its
// peer stubs and the heals its beats started: with the server and loop
// down, no beat can start another. It is idempotent, and may follow a
// kill.
func (n *MMNode) Close() {
	n.once.Do(func() {
		n.loops.stop()
		if n.Server != nil {
			n.Server.Close()
		}
		if n.Shard != nil {
			n.Shard.ClosePeers()
		}
	})
}

// parseFaults parses a node's fault script (nil for an empty spec),
// counting what it injects onto reg.
func parseFaults(spec string, reg *telemetry.Registry) (*faults.Script, error) {
	script, err := faults.Parse(spec)
	if script != nil {
		script.SetMetrics(faults.NewMetrics(reg))
	}
	return script, err
}

// nodeTransport is a node's outbound transport: cfg (zero: the stock
// tuning), reporting onto reg.
func nodeTransport(cfg transport.Config, reg *telemetry.Registry) transport.Config {
	if cfg == (transport.Config{}) {
		cfg = transport.DefaultConfig()
	}
	if reg != nil && cfg.Metrics == nil {
		cfg.Metrics = transport.NewMetrics(reg)
	}
	return cfg
}

func discardNil(logf func(string, ...any)) func(string, ...any) {
	if logf == nil {
		return func(string, ...any) {}
	}
	return logf
}

// loops are a node's periodic work: each ticker, and each goroutine a
// tick starts, runs until stop, which returns once none is running. stop
// may run more than once, and work started after it never runs, so a
// node killed mid-start runs none.
type loops struct {
	mu     sync.Mutex
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

func newLoops() *loops {
	ctx, cancel := context.WithCancel(context.Background())
	return &loops{ctx: ctx, cancel: cancel}
}

// every runs fn every interval until stop.
func (l *loops) every(interval time.Duration, fn func()) {
	l.spawn(func() {
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-l.ctx.Done():
				return
			case <-tick.C:
				fn()
			}
		}
	})
}

// spawn runs fn on its own goroutine unless the loops are stopped.
func (l *loops) spawn(fn func()) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.ctx.Err() != nil {
		return
	}
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		fn()
	}()
}

func (l *loops) stop() {
	l.mu.Lock()
	l.cancel()
	l.mu.Unlock()
	l.wg.Wait()
}
