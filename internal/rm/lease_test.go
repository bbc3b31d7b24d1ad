package rm

import (
	"testing"

	"dfsqos/internal/ecnp"
	"dfsqos/internal/history"
	"dfsqos/internal/ids"
	"dfsqos/internal/mm"
	"dfsqos/internal/rng"
	"dfsqos/internal/simtime"
	"dfsqos/internal/units"
)

// leaseRM builds one registered RM with a lease TTL over its own scheduler.
func leaseRM(t *testing.T, ttlSec float64) (*RM, *simtime.Scheduler) {
	t.Helper()
	sched := simtime.NewScheduler()
	node, err := New(Options{
		Info:        ecnp.RMInfo{ID: 1, Capacity: units.Mbps(18), StorageBytes: 16 * units.GB},
		Scheduler:   ecnp.SimScheduler{S: sched},
		Mapper:      mm.New(),
		History:     history.DefaultConfig(),
		Replication: staticCfg(),
		Rand:        rng.New(7).Split("lease"),
		LeaseTTLSec: ttlSec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := node.Register(); err != nil {
		t.Fatal(err)
	}
	return node, sched
}

func open(t *testing.T, r *RM, req ids.RequestID, rate units.BytesPerSec) {
	t.Helper()
	if res := r.Open(ecnp.OpenRequest{Request: req, Bitrate: rate, DurationSec: 100}); !res.OK {
		t.Fatalf("open %v refused: %s", req, res.Reason)
	}
}

func TestSweepExpiresIdleLeaseAndReturnsBandwidth(t *testing.T) {
	r, sched := leaseRM(t, 5)
	open(t, r, 1, units.Mbps(4))
	if got := r.Allocated(); got != units.Mbps(4) {
		t.Fatalf("allocated %v, want 4 Mbps", got)
	}
	// Within the TTL nothing expires.
	if n := r.SweepLeases(sched.Now().Add(4)); n != 0 {
		t.Fatalf("in-window sweep expired %d", n)
	}
	// Past the TTL the orphan is reclaimed and its bandwidth returned.
	if n := r.SweepLeases(sched.Now().Add(6)); n != 1 {
		t.Fatalf("post-TTL sweep expired %d, want 1", n)
	}
	if got := r.Allocated(); got != 0 {
		t.Fatalf("allocated %v after expiry, want 0", got)
	}
	if got := r.ActiveReservations(); got != 0 {
		t.Fatalf("ActiveReservations = %d, want 0", got)
	}
	if st := r.Stats(); st.LeaseExpiries != 1 {
		t.Fatalf("LeaseExpiries = %d, want 1", st.LeaseExpiries)
	}
	// The client's late Close finds nothing: expiry and Close are
	// idempotent in either order, and the ledger is not double-released.
	r.Close(1)
	if got := r.Allocated(); got != 0 {
		t.Fatalf("allocated %v after late close, want 0", got)
	}
}

func TestTouchAndRenewBeatTheTTL(t *testing.T) {
	r, sched := leaseRM(t, 5)
	open(t, r, 1, units.Mbps(2)) // lastActivity = 0
	open(t, r, 2, units.Mbps(2)) // lastActivity = 0

	// Advance virtual time to 4s and renew only request 1 — the chunk
	// path uses Touch, the idle-keepalive path uses Renew; both stamp.
	sched.RunUntil(4)
	r.Touch(1)
	if err := r.Renew(1); err != nil {
		t.Fatal(err)
	}
	// At t=6 request 2 is 6s idle (dead), request 1 only 2s (alive).
	sched.RunUntil(6)
	if n := r.SweepLeases(sched.Now()); n != 1 {
		t.Fatalf("sweep expired %d, want 1", n)
	}
	if got := r.ActiveReservations(); got != 1 {
		t.Fatalf("ActiveReservations = %d, want 1", got)
	}
	if got := r.Allocated(); got != units.Mbps(2) {
		t.Fatalf("allocated %v, want 2 Mbps", got)
	}
	// Renew on the reaped reservation reports the expiry; Touch stays a
	// silent no-op (the stream's own error path surfaces it).
	if err := r.Renew(2); err == nil {
		t.Fatal("Renew on expired reservation succeeded")
	}
	r.Touch(2)
}

func TestSweepEpochCheckSparesReadmission(t *testing.T) {
	r, sched := leaseRM(t, 5)
	open(t, r, 1, units.Mbps(4))
	// The reservation dies and the same request ID is re-admitted (a
	// retry reusing its ID) with a fresh lease before the next sweep: the
	// sweep must spare the newcomer.
	if n := r.SweepLeases(sched.Now().Add(6)); n != 1 {
		t.Fatalf("first sweep expired %d, want 1", n)
	}
	sched.RunUntil(6)
	open(t, r, 1, units.Mbps(4)) // a fresh reservation, lastActivity = 6
	if n := r.SweepLeases(sched.Now().Add(4)); n != 0 {
		t.Fatalf("sweep reaped the re-admitted reservation (%d)", n)
	}
	if got := r.ActiveReservations(); got != 1 {
		t.Fatalf("ActiveReservations = %d, want 1", got)
	}
}

func TestSweepDisabledWithoutTTL(t *testing.T) {
	r, sched := leaseRM(t, 0)
	open(t, r, 1, units.Mbps(4))
	if n := r.SweepLeases(sched.Now().Add(1e9)); n != 0 {
		t.Fatalf("TTL-less sweep expired %d", n)
	}
	if got := r.Allocated(); got != units.Mbps(4) {
		t.Fatalf("allocated %v, want 4 Mbps", got)
	}
	if r.LeaseTTL() != 0 {
		t.Fatalf("LeaseTTL = %v, want 0", r.LeaseTTL())
	}
}
