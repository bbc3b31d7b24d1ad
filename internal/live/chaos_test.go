package live

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"dfsqos/internal/dfsc"
	"dfsqos/internal/ecnp"
	"dfsqos/internal/faults"
	"dfsqos/internal/ids"
	"dfsqos/internal/mm"
	"dfsqos/internal/qos"
	"dfsqos/internal/rm"
	"dfsqos/internal/rng"
	"dfsqos/internal/selection"
	"dfsqos/internal/telemetry"
	"dfsqos/internal/trace"
	"dfsqos/internal/units"
	"dfsqos/internal/vdisk"
	"dfsqos/internal/wire"
)

// chaosCluster is a Local instrumented for incidents: the MM, every RM
// and every client report onto one registry and one tracer, and each RM's
// server can carry a fault script.
type chaosCluster struct {
	*Local
	reg    *telemetry.Registry
	tracer *trace.Tracer
}

// startChaosCluster starts spec over a four-file catalog of 10-second
// clips (every file spans more than two stream chunks, so a mid-stream
// kill always leaves a resumable tail) and arms rmFaults, a fault-script
// spec per RM, on the RMs' servers. The MM metrics and tracers attach
// after start-up, so they miss the RMs' registrations.
func startChaosCluster(t *testing.T, spec LocalSpec, rmFaults map[ids.RMID]string) *chaosCluster {
	t.Helper()
	spec.Catalog = testCatalog(t, 21, 4, 10, 10, 10)
	reg := telemetry.NewRegistry()
	// One tracer shared by every in-process role: all spans of a request
	// land in a single ring, so tests can assert whole-cluster span trees
	// the way an operator would by merging per-daemon /traces dumps.
	tracer := trace.New(trace.Options{Actor: "cluster", Registry: reg})
	hook := spec.RM
	spec.RM = func(opt *rm.Options, disk *vdisk.Disk, peers *Directory) {
		opt.Metrics = rm.NewMetrics(reg)
		if hook != nil {
			hook(opt, disk, peers)
		}
	}
	lc := &chaosCluster{Local: startLocal(t, spec), reg: reg, tracer: tracer}
	lc.Manager.SetMetrics(mm.NewMetrics(reg))
	lc.MM.SetTracer(tracer)
	for i := range spec.Caps {
		id := ids.RMID(i + 1)
		lc.Server(id).SetTracer(tracer)
		if rmFaults[id] == "" {
			continue
		}
		script, err := faults.Parse(rmFaults[id] + ":seed=1")
		if err != nil {
			t.Fatal(err)
		}
		script.SetMetrics(faults.NewMetrics(reg))
		lc.Server(id).SetFaults(script)
	}
	return lc
}

// leaseTTL arms reservation leases of sec virtual seconds on every RM.
func leaseTTL(sec float64) func(*rm.Options, *vdisk.Disk, *Directory) {
	return func(opt *rm.Options, _ *vdisk.Disk, _ *Directory) { opt.LeaseTTLSec = sec }
}

func (lc *chaosCluster) client(t *testing.T, scen qos.Scenario) *dfsc.Client {
	t.Helper()
	c, err := dfsc.New(dfsc.Options{
		ID:        1,
		Mapper:    lc.Mapper,
		Directory: lc.Dir,
		Scheduler: lc.Sched,
		Catalog:   lc.Catalog,
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
	lc := startChaosCluster(t, LocalSpec{
		// RemOnly ranks by remaining bandwidth, so the doomed big RM
		// deterministically wins the first negotiation.
		Caps:    []units.BytesPerSec{units.Mbps(200), units.Mbps(100)},
		Holders: map[ids.FileID][]ids.RMID{0: {1, 2}},
		RM:      leaseTTL(5),
	}, map[ids.RMID]string{1: "rm.stream.chunk:after=1:action=kill"})
	client := lc.client(t, qos.Firm)

	var got bytes.Buffer
	res, err := client.ReadStriped(lc.Dir, 0, &got, dfsc.StripeConfig{
		Width:        1,
		MaxFailovers: 2,
		Backoff:      time.Millisecond,
	})
	if err != nil {
		t.Fatalf("failover read: %v", err)
	}
	size := int64(lc.Catalog.File(0).Size)
	if res.Bytes != size || int64(got.Len()) != size {
		t.Fatalf("delivered %d/%d bytes (result %d)", got.Len(), size, res.Bytes)
	}
	if res.Failovers != 1 {
		t.Fatalf("failovers = %d, want 1", res.Failovers)
	}
	if len(res.RMs) != 2 || res.RMs[0] != 1 || res.RMs[1] != 2 {
		t.Fatalf("serving RMs = %v, want [1 2]", res.RMs)
	}
	want, err := lc.Disk(2).Checksum(FileName(0))
	if err != nil {
		t.Fatal(err)
	}
	if sum := wire.ChecksumUpdate(wire.ChecksumBasis, got.Bytes()); sum != want {
		t.Fatalf("delivered bytes checksum %x, replica %x", sum, want)
	}

	// The kill arrived between Open and Close: RM 1's reservation is
	// orphaned with its bandwidth still allocated. One sweep past the TTL
	// reclaims it.
	if n := lc.Node(1).ActiveReservations(); n != 1 {
		t.Fatalf("orphaned reservations on RM1 = %d, want 1", n)
	}
	if lc.Node(1).Allocated() == 0 {
		t.Fatal("orphan left no allocation to reclaim")
	}
	if n := lc.Node(1).SweepLeases(lc.Sched.Now().Add(6)); n != 1 {
		t.Fatalf("sweep reclaimed %d, want 1", n)
	}
	if got := lc.Node(1).Allocated(); got != 0 {
		t.Fatalf("RM1 still has %v allocated after sweep", got)
	}
	// The survivor's reservation was released by the normal close path.
	if got := lc.Node(2).Allocated(); got != 0 {
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
	if st := lc.Node(1).Stats(); st.LeaseExpiries != 1 {
		t.Fatalf("RM1 LeaseExpiries = %d, want 1", st.LeaseExpiries)
	}
}

// TestChaosCrashRestartLiveness drives the full death-and-rebirth cycle
// through heartbeats over real TCP: a killed RM drops out of the MM's
// routing surfaces within the miss threshold, and a restart on a fresh
// socket re-registers, revives, and bumps the liveness epoch.
func TestChaosCrashRestartLiveness(t *testing.T) {
	lc := startChaosCluster(t, LocalSpec{
		Caps:    []units.BytesPerSec{units.Mbps(100), units.Mbps(100)},
		Holders: map[ids.FileID][]ids.RMID{0: {1, 2}},
	}, nil)
	lc.Manager.SetLiveness(mm.LivenessConfig{HeartbeatInterval: 20 * time.Millisecond, MissThreshold: 3})

	beatCli, err := DialMM(lc.MM.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer beatCli.Close()
	t.Cleanup(StartHeartbeats(lc.Node(1), beatCli, 10*time.Millisecond, t.Logf))
	stop2 := StartHeartbeats(lc.Node(2), beatCli, 10*time.Millisecond, t.Logf)
	waitFor(t, "both RMs live", func() bool { return lc.Manager.LiveCount() == 2 })

	// Crash RM 2: heartbeats stop, server socket closes.
	stop2()
	lc.Server(2).Close()
	waitFor(t, "RM2 declared dead", func() bool { return !lc.Manager.Alive(2) })

	// The corpse is gone from every routing answer — over the wire too.
	if rms := lc.Mapper.RMs(); len(rms) != 1 || rms[0].ID != 1 {
		t.Fatalf("RMs() over TCP = %v, want [1]", rms)
	}
	if hs := lc.Mapper.Lookup(0); len(hs) != 1 || hs[0] != 1 {
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
	srv, err := lc.Restart(2, "")
	if err != nil {
		t.Fatal(err)
	}
	srv.SetTracer(lc.tracer)
	t.Cleanup(StartHeartbeats(lc.Node(2), beatCli, 10*time.Millisecond, t.Logf))
	waitFor(t, "RM2 revived", func() bool { return lc.Manager.Alive(2) })
	if got := lc.Manager.Epoch(2); got != 1 {
		t.Fatalf("epoch after crash-restart = %d, want 1", got)
	}
	if got := lc.Manager.Epoch(1); got != 0 {
		t.Fatalf("survivor's epoch = %d, want 0", got)
	}
	waitFor(t, "Lookup heals", func() bool { return len(lc.Mapper.Lookup(0)) == 2 })
}

// TestChaosScriptedOpenErrorFallsBack asserts deterministic scripted
// degradation: one injected Open error makes the ranked winner refuse, the
// client falls back to the runner-up, and the very next access — the
// script's budget exhausted — lands on the healed winner again. Same seed,
// same script, same outcome on every run.
func TestChaosScriptedOpenErrorFallsBack(t *testing.T) {
	lc := startChaosCluster(t, LocalSpec{
		Caps:    []units.BytesPerSec{units.Mbps(200), units.Mbps(100)},
		Holders: map[ids.FileID][]ids.RMID{0: {1, 2}},
	}, map[ids.RMID]string{1: "rm.handle:match=Open:count=1:action=error"})
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
	lc := startChaosCluster(t, LocalSpec{
		Caps:    []units.BytesPerSec{units.Mbps(100)},
		Holders: map[ids.FileID][]ids.RMID{0: {1}},
		RM:      leaseTTL(5), // virtual seconds; 50ms of wall time at scale 100
	}, nil)
	node := lc.Node(1)
	t.Cleanup(StartLeaseSweeper(node, lc.Sched, 10*time.Millisecond, t.Logf))

	cli, ok := lc.Dir.RMClient(1)
	if !ok {
		t.Fatal("RM1 unreachable")
	}
	meta := lc.Catalog.File(0)
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
	cli.Close(1)
}
