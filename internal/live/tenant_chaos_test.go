package live

import (
	"context"
	"io"
	"sort"
	"strings"
	"testing"
	"time"

	"dfsqos/internal/ecnp"
	"dfsqos/internal/ids"
	"dfsqos/internal/tenant"
	"dfsqos/internal/trace"
	"dfsqos/internal/units"
)

// TestChaosAbusiveTenantKilledQuotaReclaimed is the multi-tenant crash
// drill over real TCP: an abusive tenant storms an RM until its
// bandwidth quota refuses further admissions, a victim tenant keeps
// streaming through the storm within its latency SLO, and when the
// abuser is killed mid-storm (its connections vanish without Close) the
// lease sweeper must hand the orphaned reservations' bandwidth back to
// the tenant ledger — after which the same tenant admits again. The
// refusals and the reclaim are both asserted through the exported
// dfsqos_tenant_* telemetry, the way an operator would see the incident.
func TestChaosAbusiveTenantKilledQuotaReclaimed(t *testing.T) {
	const abuser, victim = ids.TenantID(1), ids.TenantID(2)
	storm := chaosCatalog(t).File(0)
	lc := startChaosCluster(t, LocalSpec{
		Caps:    []units.BytesPerSec{units.Mbps(100)},
		Holders: map[ids.FileID][]ids.RMID{0: {1}, 1: {1}},
		RM: RMSpec{
			LeaseTTL: leaseTTL,
			// The abuser's per-RM quota fits exactly two concurrent
			// streams of the storm file; the victim tenant stays
			// unlimited.
			Tenants: map[ids.TenantID]tenant.Quota{abuser: {Bandwidth: 2 * storm.Bitrate, Bytes: tenant.NoLimit}},
		},
	})

	cli, ok := lc.Dir.RMClient(1)
	if !ok {
		t.Fatal("RM1 unreachable")
	}
	open := func(req ids.RequestID, f ids.FileID, tn ids.TenantID) ecnp.OpenResult {
		meta := lc.Catalog.File(f)
		return cli.Open(ecnp.OpenRequest{
			Request: req, File: f, Tenant: tn,
			Bitrate: meta.Bitrate, DurationSec: meta.DurationSec,
		})
	}

	// The storm: the abuser opens until the ledger refuses. Exactly two
	// reservations fit its quota; the third must be refused for the
	// tenant's bandwidth even though the RM itself has ~100 Mbps of
	// headroom left.
	for req := ids.RequestID(1); req <= 2; req++ {
		if res := open(req, 0, abuser); !res.OK {
			t.Fatalf("abuser open %v refused under quota: %s", req, res.Reason)
		}
	}
	// It is traced: the RM's rm.open span records the reason too.
	root := lc.tracer.StartRoot(3, "test.open")
	refused := cli.OpenContext(trace.NewContext(context.Background(), root.Context()), ecnp.OpenRequest{
		Request: 3, File: 0, Tenant: abuser, Bitrate: storm.Bitrate, DurationSec: storm.DurationSec,
	})
	root.End()
	if refused.OK || refused.Code != ecnp.ErrTenantBandwidth {
		t.Fatalf("third abuser stream past a two-stream quota: %+v, want refused with ErrTenantBandwidth", refused)
	}
	// The RM ends its rm.open span only after it has written the reply,
	// so the span may land after OpenContext returns.
	var outcomes []string
	waitFor(t, "the rm.open span", func() bool {
		outcomes = outcomes[:0]
		for _, rec := range lc.tracer.Snapshot() {
			if rec.Name == "rm.open" {
				outcomes = append(outcomes, rec.Outcome)
			}
		}
		return len(outcomes) > 0
	})
	if len(outcomes) != 1 || outcomes[0] != "tenant_bandwidth" {
		t.Fatalf("rm.open span outcomes %q, want the refusal's label", outcomes)
	}

	// The victim streams through the storm: open, read, close, eight
	// times, recording wall latency. Every read must complete and the
	// victims' p99 stays within the (generous) live SLO.
	var lat []time.Duration
	for i := 0; i < 8; i++ {
		req := ids.RequestID(100 + i)
		if res := open(req, 1, victim); !res.OK {
			t.Fatalf("victim open %v refused during the storm: %s", req, res.Reason)
		}
		t0 := time.Now()
		n, err := cli.ReadRange(context.Background(), 1, req, 0, 0, io.Discard, nil)
		if err != nil {
			t.Fatalf("victim read %v: %v", req, err)
		}
		if n != int64(lc.Catalog.File(1).Size) {
			t.Fatalf("victim read %v streamed %d bytes, want %d", req, n, int64(lc.Catalog.File(1).Size))
		}
		lat = append(lat, time.Since(t0))
		cli.Close(req)
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	if p99 := lat[len(lat)-1]; p99 > 5*time.Second {
		t.Fatalf("victim p99 %v during the storm violates the 5s SLO", p99)
	}

	// Kill the abuser mid-storm: its reservations are simply abandoned —
	// no Close, no keepalives — so both leases go stale and the sweeper
	// must reclaim exactly the two orphans.
	waitFor(t, "the abuser's orphans reclaimed", func() bool { return lc.Node(1).ActiveReservations() == 0 })
	if n := lc.Node(1).Stats().LeaseExpiries; n != 2 {
		t.Fatalf("sweeper reclaimed %d reservations, want the abuser's 2", n)
	}

	// The sweep returned the bandwidth to the ledger: the same tenant
	// admits again immediately, and the ledger shows no residue.
	if res := open(4, 0, abuser); !res.OK {
		t.Fatalf("abuser open after sweep refused — quota not released: %s", res.Reason)
	}
	for _, u := range lc.Node(1).TenantUsage() {
		if u.Tenant != abuser {
			continue
		}
		if u.Streams != 1 || u.Bandwidth != storm.Bitrate {
			t.Fatalf("abuser ledger after sweep + one open: %d streams at %v, want 1 at %v",
				u.Streams, u.Bandwidth, storm.Bitrate)
		}
	}

	// The incident is visible on /metrics: the one refusal, counted by
	// its reason on the RM and by its tenant on the ledger, and live
	// per-tenant gauges.
	exp := lc.exposition(t)
	for _, want := range []string{
		`dfsqos_rm_refusals_total{reason="tenant_bandwidth"} 1`,
		`dfsqos_tenant_rejections_total{tenant="tenant1"} 1`,
	} {
		if !strings.Contains(exp, want+"\n") {
			t.Fatalf("exposition missing %q:\n%s", want, exp)
		}
	}
	if !strings.Contains(exp, `dfsqos_tenant_reserved_bandwidth_bytes_per_second{tenant="tenant1"}`) {
		t.Fatalf("tenant bandwidth gauge missing from exposition:\n%s", exp)
	}
	cli.Close(4)
}
