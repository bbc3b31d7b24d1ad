package live

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"dfsqos/internal/blkio"
	"dfsqos/internal/catalog"
	"dfsqos/internal/dfsc"
	"dfsqos/internal/ecnp"
	"dfsqos/internal/faults"
	"dfsqos/internal/history"
	"dfsqos/internal/ids"
	"dfsqos/internal/mm"
	"dfsqos/internal/qos"
	"dfsqos/internal/replication"
	"dfsqos/internal/rm"
	"dfsqos/internal/rng"
	"dfsqos/internal/selection"
	"dfsqos/internal/telemetry"
	"dfsqos/internal/tenant"
	"dfsqos/internal/trace"
	"dfsqos/internal/units"
	"dfsqos/internal/vdisk"
	"dfsqos/internal/wire"
)

// chaosOpts configures one chaos deployment: per-RM fault scripts armed on
// real TCP servers, reservation lease TTLs, and MM liveness tracking.
type chaosOpts struct {
	caps    []units.BytesPerSec
	holders map[ids.FileID][]ids.RMID
	// rmFaults maps 1-based RM id to a fault-injection spec.
	rmFaults map[ids.RMID]string
	// leaseTTLSec arms reservation leases on every RM (virtual seconds).
	leaseTTLSec float64
	// liveness arms heartbeat-based failure detection at the MM.
	liveness mm.LivenessConfig
	// timeScale is virtual seconds per wall second (default 100).
	timeScale float64
	// faultSeed seeds every RM's fault script (default 1).
	faultSeed uint64
	// tenancy installs a tenant ledger (with telemetry) on every RM.
	// Quotas start unlimited; tests tighten them per tenant via
	// chaosCluster.ledgers once catalog bitrates are known.
	tenancy bool
}

// chaosCluster is a live deployment with handles deep enough for crash
// surgery: the in-process MM manager, the RM nodes and their disks (so a
// killed RM can be restarted on a fresh socket).
type chaosCluster struct {
	mgr     *mm.Manager
	mmSrv   *MMServer
	mmCli   *MMClient
	dir     *Directory
	sched   *WallScheduler
	cat     *catalog.Catalog
	reg     *telemetry.Registry
	tracer  *trace.Tracer
	rmSrvs  map[ids.RMID]*RMServer
	nodes   map[ids.RMID]*rm.RM
	disks   map[ids.RMID]*vdisk.Disk
	ledgers map[ids.RMID]*tenant.Ledger
	stops   []func()
}

func (lc *chaosCluster) shutdown() {
	for _, stop := range lc.stops {
		stop()
	}
	lc.dir.Close()
	lc.mmCli.Close()
	for _, s := range lc.rmSrvs {
		s.Close()
	}
	lc.mmSrv.Close()
	lc.sched.Stop()
}

func startChaosCluster(t *testing.T, opts chaosOpts) *chaosCluster {
	t.Helper()
	if opts.timeScale == 0 {
		opts.timeScale = 100
	}
	if opts.faultSeed == 0 {
		opts.faultSeed = 1
	}
	// Fixed 10-second durations keep every file past two stream chunks
	// (>=256 KiB) so a mid-stream kill always leaves a resumable tail.
	cfg := catalog.DefaultConfig()
	cfg.NumFiles = 4
	cfg.MeanDurationSec = 10
	cfg.MinDurationSec = 10
	cfg.MaxDurationSec = 10
	cat, err := catalog.Generate(cfg, rng.New(21))
	if err != nil {
		t.Fatal(err)
	}

	reg := telemetry.NewRegistry()
	// One tracer shared by every in-process role: all spans of a request
	// land in a single ring, so tests can assert whole-cluster span trees
	// the way an operator would by merging per-daemon /traces dumps.
	tracer := trace.New(trace.Options{Actor: "cluster", Registry: reg})
	mgr := mm.New()
	mgr.SetLiveness(opts.liveness)
	mgr.SetMetrics(mm.NewMetrics(reg))
	mmSrv, err := NewMMServer(mgr, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	mmSrv.SetTracer(tracer)
	sched := NewWallScheduler(opts.timeScale)
	master := rng.New(31)

	lc := &chaosCluster{
		mgr:     mgr,
		mmSrv:   mmSrv,
		sched:   sched,
		cat:     cat,
		reg:     reg,
		tracer:  tracer,
		rmSrvs:  make(map[ids.RMID]*RMServer),
		nodes:   make(map[ids.RMID]*rm.RM),
		disks:   make(map[ids.RMID]*vdisk.Disk),
		ledgers: make(map[ids.RMID]*tenant.Ledger),
	}
	for i, capBW := range opts.caps {
		id := ids.RMID(i + 1)
		disk, err := vdisk.New(units.GB, blkio.NewController(), fmt.Sprintf("vm%d", id), capBW, capBW)
		if err != nil {
			t.Fatal(err)
		}
		files := make(map[ids.FileID]rm.FileMeta)
		for f, hs := range opts.holders {
			for _, h := range hs {
				if h == id {
					meta := cat.File(f)
					files[f] = rm.FileMeta{Bitrate: meta.Bitrate, Size: meta.Size, DurationSec: meta.DurationSec}
					if err := disk.Provision(FileName(f), meta.Size); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		mapperCli, err := DialMM(mmSrv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		var ledger *tenant.Ledger
		if opts.tenancy {
			ledger = tenant.NewLedger()
			ledger.SetMetrics(tenant.NewMetrics(reg))
			lc.ledgers[id] = ledger
		}
		node, err := rm.New(rm.Options{
			Info:        ecnp.RMInfo{ID: id, Capacity: capBW, StorageBytes: units.GB},
			Scheduler:   sched,
			Mapper:      mapperCli,
			History:     history.DefaultConfig(),
			Replication: replication.DefaultConfig(replication.Static()),
			Tenants:     ledger,
			Rand:        master.Split(id.String()),
			Files:       files,
			LeaseTTLSec: opts.leaseTTLSec,
			Metrics:     rm.NewMetrics(reg),
		})
		if err != nil {
			t.Fatal(err)
		}
		srv := lc.serveRM(t, node, disk, opts.rmFaults[id], opts.faultSeed)
		node.SetDirectory(NewDirectory(mapperCli))
		lc.rmSrvs[id] = srv
		lc.nodes[id] = node
		lc.disks[id] = disk
	}

	mmCli, err := DialMM(mmSrv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	lc.mmCli = mmCli
	lc.dir = NewDirectory(mmCli)
	return lc
}

// serveRM binds node to a fresh socket (arming spec when non-empty),
// stamps the address onto the node and registers it — the same path a
// restarted rmd takes, so crash-restart tests exercise it verbatim.
func (lc *chaosCluster) serveRM(t *testing.T, node *rm.RM, disk *vdisk.Disk, spec string, seed uint64) *RMServer {
	t.Helper()
	srv, err := NewRMServer(node, disk, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv.SetTracer(lc.tracer)
	if spec != "" {
		script, err := faults.Parse(spec + fmt.Sprintf(":seed=%d", seed))
		if err != nil {
			t.Fatal(err)
		}
		script.SetMetrics(faults.NewMetrics(lc.reg))
		srv.SetFaults(script)
	}
	node.SetAddr(srv.Addr())
	if err := node.Register(); err != nil {
		t.Fatal(err)
	}
	return srv
}

func (lc *chaosCluster) client(t *testing.T, scen qos.Scenario) *dfsc.Client {
	t.Helper()
	c, err := dfsc.New(dfsc.Options{
		ID:        1,
		Mapper:    lc.mmCli,
		Directory: lc.dir,
		Scheduler: lc.sched,
		Catalog:   lc.cat,
		Policy:    selection.RemOnly,
		Scenario:  scen,
		Rand:      rng.New(3),
		Metrics:   dfsc.NewMetrics(lc.reg),
		Tracer:    lc.tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func (lc *chaosCluster) exposition(t *testing.T) string {
	t.Helper()
	var sb strings.Builder
	if err := lc.reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// waitFor polls cond up to 5s; chaos tests assert on converging state
// (liveness deadlines, sweeper periods) that needs real wall time.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestChaosKillMidStreamFailoverResumes is the headline crash drill over
// real TCP: a scripted fault kills the serving RM after the first streamed
// chunk; the one-lane read must fail over to the surviving replica, which
// re-fetches the segments the corpse left unfinished, and the delivered
// bytes must still pass the whole-file checksum. The orphaned reservation
// on the corpse is then reclaimed by one lease sweep, returning its
// bandwidth to the ledger.
func TestChaosKillMidStreamFailoverResumes(t *testing.T) {
	lc := startChaosCluster(t, chaosOpts{
		// RemOnly ranks by remaining bandwidth, so the doomed big RM
		// deterministically wins the first negotiation.
		caps:        []units.BytesPerSec{units.Mbps(200), units.Mbps(100)},
		holders:     map[ids.FileID][]ids.RMID{0: {1, 2}},
		rmFaults:    map[ids.RMID]string{1: "rm.stream.chunk:after=1:action=kill"},
		leaseTTLSec: 5,
	})
	defer lc.shutdown()
	client := lc.client(t, qos.Firm)

	var got bytes.Buffer
	res, err := client.ReadStriped(lc.dir, 0, &got, dfsc.StripeConfig{
		Width:        1,
		MaxFailovers: 2,
		Backoff:      time.Millisecond,
	})
	if err != nil {
		t.Fatalf("failover read: %v", err)
	}
	size := int64(lc.cat.File(0).Size)
	if res.Bytes != size || int64(got.Len()) != size {
		t.Fatalf("delivered %d/%d bytes (result %d)", got.Len(), size, res.Bytes)
	}
	if res.Failovers != 1 {
		t.Fatalf("failovers = %d, want 1", res.Failovers)
	}
	if len(res.RMs) != 2 || res.RMs[0] != 1 || res.RMs[1] != 2 {
		t.Fatalf("serving RMs = %v, want [1 2]", res.RMs)
	}
	want, err := lc.disks[2].Checksum(FileName(0))
	if err != nil {
		t.Fatal(err)
	}
	if sum := wire.ChecksumUpdate(wire.ChecksumBasis, got.Bytes()); sum != want {
		t.Fatalf("delivered bytes checksum %x, replica %x", sum, want)
	}

	// The kill arrived between Open and Close: RM 1's reservation is
	// orphaned with its bandwidth still allocated. One sweep past the TTL
	// reclaims it.
	if n := lc.nodes[1].ActiveReservations(); n != 1 {
		t.Fatalf("orphaned reservations on RM1 = %d, want 1", n)
	}
	if lc.nodes[1].Allocated() == 0 {
		t.Fatal("orphan left no allocation to reclaim")
	}
	if n := lc.nodes[1].SweepLeases(lc.sched.Now().Add(6)); n != 1 {
		t.Fatalf("sweep reclaimed %d, want 1", n)
	}
	if got := lc.nodes[1].Allocated(); got != 0 {
		t.Fatalf("RM1 still has %v allocated after sweep", got)
	}
	// The survivor's reservation was released by the normal close path.
	if got := lc.nodes[2].Allocated(); got != 0 {
		t.Fatalf("RM2 still has %v allocated", got)
	}

	// The shared registry saw the whole incident: the injected kill, the
	// failover, and the expired lease.
	text := lc.exposition(t)
	for _, want := range []string{
		`action="kill"`,
		`dfsqos_dfsc_failovers_total 1`,
		`dfsqos_rm_leases_expired_total 1`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
	if st := lc.nodes[1].Stats(); st.LeaseExpiries != 1 {
		t.Fatalf("RM1 LeaseExpiries = %d, want 1", st.LeaseExpiries)
	}
}

// TestChaosCrashRestartLiveness drives the full death-and-rebirth cycle
// through heartbeats over real TCP: a killed RM drops out of the MM's
// routing surfaces within the miss threshold, and a restart on a fresh
// socket re-registers, revives, and bumps the liveness epoch.
func TestChaosCrashRestartLiveness(t *testing.T) {
	lc := startChaosCluster(t, chaosOpts{
		caps:    []units.BytesPerSec{units.Mbps(100), units.Mbps(100)},
		holders: map[ids.FileID][]ids.RMID{0: {1, 2}},
		liveness: mm.LivenessConfig{
			HeartbeatInterval: 20 * time.Millisecond,
			MissThreshold:     3,
		},
	})
	defer lc.shutdown()

	beatCli, err := DialMM(lc.mmSrv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer beatCli.Close()
	stop1 := StartHeartbeats(lc.nodes[1], beatCli, 10*time.Millisecond, t.Logf)
	lc.stops = append(lc.stops, stop1)
	stop2 := StartHeartbeats(lc.nodes[2], beatCli, 10*time.Millisecond, t.Logf)
	waitFor(t, "both RMs live", func() bool { return lc.mgr.LiveCount() == 2 })

	// Crash RM 2: heartbeats stop, server socket closes.
	stop2()
	lc.rmSrvs[2].Close()
	waitFor(t, "RM2 declared dead", func() bool { return !lc.mgr.Alive(2) })

	// The corpse is gone from every routing answer — over the wire too.
	if rms := lc.mmCli.RMs(); len(rms) != 1 || rms[0].ID != 1 {
		t.Fatalf("RMs() over TCP = %v, want [1]", rms)
	}
	if hs := lc.mmCli.Lookup(0); len(hs) != 1 || hs[0] != 1 {
		t.Fatalf("Lookup(0) = %v, want [1]", hs)
	}
	// A negotiated access routes around the corpse without burning its
	// deadline on a dead CFP.
	out := lc.client(t, qos.Firm).Access(0)
	if !out.OK || out.RM != 1 {
		t.Fatalf("access during outage: ok=%v rm=%v", out.OK, out.RM)
	}

	// Restart RM 2 on a fresh socket (new port: the same shape as a
	// daemon restart) and resume its heartbeats.
	srv := lc.serveRM(t, lc.nodes[2], lc.disks[2], "", 1)
	lc.rmSrvs[2] = srv
	stop2 = StartHeartbeats(lc.nodes[2], beatCli, 10*time.Millisecond, t.Logf)
	lc.stops = append(lc.stops, stop2)
	waitFor(t, "RM2 revived", func() bool { return lc.mgr.Alive(2) })
	if got := lc.mgr.Epoch(2); got != 1 {
		t.Fatalf("epoch after crash-restart = %d, want 1", got)
	}
	if got := lc.mgr.Epoch(1); got != 0 {
		t.Fatalf("survivor's epoch = %d, want 0", got)
	}
	waitFor(t, "Lookup heals", func() bool { return len(lc.mmCli.Lookup(0)) == 2 })
}

// TestChaosScriptedOpenErrorFallsBack asserts deterministic scripted
// degradation: one injected Open error makes the ranked winner refuse, the
// client falls back to the runner-up, and the very next access — the
// script's budget exhausted — lands on the healed winner again. Same seed,
// same script, same outcome on every run.
func TestChaosScriptedOpenErrorFallsBack(t *testing.T) {
	lc := startChaosCluster(t, chaosOpts{
		caps:     []units.BytesPerSec{units.Mbps(200), units.Mbps(100)},
		holders:  map[ids.FileID][]ids.RMID{0: {1, 2}},
		rmFaults: map[ids.RMID]string{1: "rm.handle:match=Open:count=1:action=error"},
	})
	defer lc.shutdown()
	// Firm: a refused open falls through to the next-ranked bidder.
	client := lc.client(t, qos.Firm)

	out := client.Access(0)
	if !out.OK || out.RM != 2 {
		t.Fatalf("faulted access: ok=%v rm=%v, want fallback to RM2", out.OK, out.RM)
	}
	out = client.Access(0)
	if !out.OK || out.RM != 1 {
		t.Fatalf("post-fault access: ok=%v rm=%v, want healed RM1", out.OK, out.RM)
	}
	if !strings.Contains(lc.exposition(t), `dfsqos_faults_injected_total{action="error",point="rm.handle"} 1`) &&
		!strings.Contains(lc.exposition(t), `dfsqos_faults_injected_total{point="rm.handle",action="error"} 1`) {
		t.Fatalf("exposition missing injected-error counter:\n%s", lc.exposition(t))
	}
}

// TestChaosKeepaliveBeatsLeaseSweeper holds a reservation open with no
// stream activity and renews it over the wire: the sweeper must spare the
// renewed lease and reclaim an unrenewed sibling.
func TestChaosKeepaliveBeatsLeaseSweeper(t *testing.T) {
	lc := startChaosCluster(t, chaosOpts{
		caps:        []units.BytesPerSec{units.Mbps(100)},
		holders:     map[ids.FileID][]ids.RMID{0: {1}},
		leaseTTLSec: 5, // virtual seconds; 50ms of wall time at scale 100
	})
	defer lc.shutdown()
	node := lc.nodes[1]
	stopSweep := StartLeaseSweeper(node, lc.sched, 10*time.Millisecond, t.Logf)
	lc.stops = append(lc.stops, stopSweep)

	cli, ok := lc.dir.RMClient(1)
	if !ok {
		t.Fatal("RM1 unreachable")
	}
	meta := lc.cat.File(0)
	for req := ids.RequestID(1); req <= 2; req++ {
		res := cli.Open(ecnp.OpenRequest{Request: req, File: 0, Bitrate: meta.Bitrate, DurationSec: meta.DurationSec})
		if !res.OK {
			t.Fatalf("open %v refused: %s", req, res.Reason)
		}
	}
	// Renew only request 1 for ~4 TTLs of wall time; request 2 idles.
	renewUntil := time.Now().Add(200 * time.Millisecond)
	for time.Now().Before(renewUntil) {
		if err := cli.Keepalive(1); err != nil {
			t.Fatalf("keepalive: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	waitFor(t, "idle lease reclaimed", func() bool { return node.ActiveReservations() == 1 })
	if err := cli.Keepalive(1); err != nil {
		t.Fatalf("renewed lease was reclaimed: %v", err)
	}
	// The reaped sibling's keepalive reports the expiry so the client
	// knows to re-negotiate.
	if err := cli.Keepalive(2); err == nil {
		t.Fatal("keepalive on reclaimed lease succeeded")
	}
	if got := node.Allocated(); got != meta.Bitrate {
		t.Fatalf("allocated %v, want exactly one bitrate %v", got, meta.Bitrate)
	}
}
