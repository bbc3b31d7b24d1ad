package live

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"testing"

	"dfsqos/internal/dfsc"
	"dfsqos/internal/ecnp"
	"dfsqos/internal/ids"
	"dfsqos/internal/qos"
	"dfsqos/internal/rng"
	"dfsqos/internal/selection"
	"dfsqos/internal/telemetry"
	"dfsqos/internal/tenant"
	"dfsqos/internal/units"
)

// scrapeNodes renders reg and returns its dfsqos_rm_*, dfsqos_tenant_* and
// dfsqos_blkio_* counter and gauge series, keyed by name and labels as the
// exposition spells them.
func scrapeNodes(t *testing.T, reg *telemetry.Registry) map[string]float64 {
	t.Helper()
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(b.String(), "\n") {
		if !strings.HasPrefix(line, "dfsqos_rm_") && !strings.HasPrefix(line, "dfsqos_tenant_") &&
			!strings.HasPrefix(line, "dfsqos_blkio_") || strings.HasPrefix(line, "dfsqos_blkio_throttle_wait_seconds") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("series %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// liveNodeSeries is what those series must read for the RMs l serves now:
// the sum of their Stats, reservations, ledgers, storage, file tables,
// tenant rows and disks. Every open in the test runs under tenant1 and
// none is refused, so the tenant's admissions are the RMs' opens; nothing
// is released, so its charged bytes are its stored ones; and each disk
// holds one throttle group, its default.
func liveNodeSeries(l *Local) map[string]float64 {
	want := make(map[string]float64)
	for _, n := range l.rms {
		if n == nil || n.Server.isClosed() {
			continue
		}
		r := n.Server.Node()
		st := r.Stats()
		for name, v := range map[string]float64{
			"dfsqos_rm_cfps_total":                                float64(st.CFPs),
			"dfsqos_rm_bids_total":                                float64(st.CFPs),
			"dfsqos_rm_admissions_total":                          float64(st.Opens),
			`dfsqos_rm_replica_offers_total{decision="accepted"}`: float64(st.OffersAccepted),
			`dfsqos_rm_replica_offers_total{decision="rejected"}`: float64(st.OffersRejected),
			"dfsqos_rm_replication_triggers_total":                float64(st.RepTriggers),
			"dfsqos_rm_replication_transfers_total":               float64(st.RepTransfers),
			"dfsqos_rm_replication_migrations_total":              float64(st.RepMigrations),
			"dfsqos_rm_gc_evictions_total":                        float64(st.GCEvictions),
			"dfsqos_rm_leases_expired_total":                      float64(st.LeaseExpiries),
			"dfsqos_rm_remaining_bandwidth_bytes_per_second":      float64(r.Info().Capacity - r.Allocated()),
			"dfsqos_rm_active_streams":                            float64(r.ActiveReservations()),
			"dfsqos_rm_storage_used_bytes":                        float64(r.StorageUsed()),
			"dfsqos_rm_files":                                     float64(r.NumFiles()),
			"dfsqos_rm_oversub_ratio":                             1,
		} {
			want[name] += v
		}
		for why := ecnp.ErrDuplicateRequest; why < ecnp.NumRefusals; why++ {
			want[fmt.Sprintf("dfsqos_rm_refusals_total{reason=%q}", why.Label())] += float64(st.Refusals[why])
		}
		for _, u := range r.TenantUsage() {
			label := fmt.Sprintf("{tenant=%q}", u.Tenant.String())
			want["dfsqos_tenant_reserved_bandwidth_bytes_per_second"+label] += float64(u.Bandwidth)
			want["dfsqos_tenant_streams"+label] += float64(u.Streams)
			want["dfsqos_tenant_stored_bytes"+label] += float64(u.Bytes)
			want["dfsqos_tenant_admissions_total"+label] += float64(st.Opens)
			want["dfsqos_tenant_rejections_total"+label] += 0
			want["dfsqos_tenant_bid_clamps_total"+label] += 0
			want["dfsqos_tenant_charged_bytes_total"+label] += float64(u.Bytes)
		}
		bst := n.Disk.Controller().Stats()
		want[`dfsqos_blkio_bytes_total{source="assured"}`] += float64(bst.AssuredBytes)
		want[`dfsqos_blkio_bytes_total{source="borrowed"}`] += float64(bst.BorrowedBytes)
		want["dfsqos_blkio_borrows_total"] += float64(bst.Borrows)
		want["dfsqos_blkio_reclaims_total"] += float64(bst.Reclaims)
		want["dfsqos_blkio_groups"]++
	}
	return want
}

// A restarted RM's series read its new node alone: the stopped node's
// RM, tenant ledger and disk throttle leave the registry's sums, and the
// disk the new node inherited reports through it. Were they left bound,
// the files, remaining bandwidth, tenant rows and the rest would count
// both nodes.
func TestRestartLeavesOnlyLiveNodesInTheSeries(t *testing.T) {
	reg := telemetry.NewRegistry()
	lc := startLocal(t, LocalSpec{
		Catalog: testCatalog(t, 11, 4, 1, 5, 10),
		Caps:    []units.BytesPerSec{units.Mbps(50), units.Mbps(50)},
		Holders: map[ids.FileID][]ids.RMID{0: {1, 2}, 1: {1}, 2: {2}},
		Rand:    rng.New(13),
		RM: RMSpec{Registry: reg, Tenants: map[ids.TenantID]tenant.Quota{
			1: {Bandwidth: units.Mbps(45), Bytes: tenant.NoLimit}}}, // far below: no clamp counted
	})
	client, err := dfsc.New(dfsc.Options{ID: 1, Mapper: lc.Mapper, Directory: lc.Dir, Scheduler: lc.Sched,
		Catalog: lc.Catalog, Policy: selection.RemOnly, Scenario: qos.Firm, Rand: rng.New(7), Tenant: 1})
	if err != nil {
		t.Fatal(err)
	}
	traffic := func() {
		t.Helper()
		for _, f := range []ids.FileID{0, 1, 2} {
			out, release := client.AccessHeld(f)
			if !out.OK {
				t.Fatalf("access %v refused: %s", f, out.Reason)
			}
			defer release() // held across the check below
		}
		for _, f := range []ids.FileID{1, 2} { // one read on each disk
			if _, err := client.ReadStriped(lc.Dir, f, io.Discard, dfsc.StripeConfig{Width: 1}); err != nil {
				t.Fatal(err)
			}
		}
		checkLiveSeries(t, lc, reg)
	}
	traffic()
	if err := lc.Restart(1, ""); err != nil {
		t.Fatal(err)
	}
	checkLiveSeries(t, lc, reg)
	traffic()
	if out := client.Store(3); !out.OK {
		t.Fatalf("store refused: %s", out.Reason)
	}
	checkLiveSeries(t, lc, reg)
	lc.KillRM(1)
	checkLiveSeries(t, lc, reg)
}

// checkLiveSeries fails unless every series of reg reads the live nodes' state.
func checkLiveSeries(t *testing.T, l *Local, reg *telemetry.Registry) {
	t.Helper()
	got, want := scrapeNodes(t, reg), liveNodeSeries(l)
	for name, w := range want {
		if g, ok := got[name]; !ok {
			t.Errorf("%s missing from the exposition", name)
		} else if g != w {
			t.Errorf("%s = %v, want %v", name, g, w)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s exposed but not checked", name)
		}
	}
}
