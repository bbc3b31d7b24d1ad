package rm

import (
	"strings"
	"testing"

	"dfsqos/internal/ecnp"
	"dfsqos/internal/ids"
	"dfsqos/internal/replication"
	"dfsqos/internal/tenant"
	"dfsqos/internal/units"
)

// wantCheck fails t unless r.Check(firm) reports a violation containing
// each of want, or, with no want, reports none.
func wantCheck(t *testing.T, r *RM, firm bool, want ...string) {
	t.Helper()
	err := r.Check(firm)
	if len(want) == 0 {
		if err != nil {
			t.Fatalf("Check: %v, want none", err)
		}
		return
	}
	if err == nil {
		t.Fatalf("Check passed, want %q", want)
	}
	for _, w := range want {
		if !strings.Contains(err.Error(), w) {
			t.Fatalf("Check: %v, want %q", err, w)
		}
	}
}

// TestCheckLedgerMatchesReservations: the check holds through admissions
// and releases, and names an allocation or a stream the reservations do
// not account for.
func TestCheckLedgerMatchesReservations(t *testing.T) {
	r, sched := leaseRM(t, 0)
	open(t, r, 1, units.Mbps(4))
	open(t, r, 2, units.Mbps(3))
	r.Close(1)
	wantCheck(t, r, true)
	r.led.Allocate(sched.Now(), units.Mbps(1)) // what a Close that forgets its release leaves
	wantCheck(t, r, true, "RM1: ledger counts 2 stream(s), 1 are live", "ledger allocates 4.00 Mbit/s, live streams hold 3.00 Mbit/s")
}

// TestCheckFirmBoundUsesOversub: firm reservations may fill capacity ×
// the ledger's oversubscription ratio and no more; a soft check has no
// bound.
func TestCheckFirmBoundUsesOversub(t *testing.T) {
	r, _ := leaseRM(t, 0)
	if err := r.led.SetOversub(1.5); err != nil {
		t.Fatal(err)
	}
	open(t, r, 1, units.Mbps(27)) // 18 Mbit/s × 1.5
	wantCheck(t, r, true)
	open(t, r, 2, units.Mbps(1))
	wantCheck(t, r, false)
	wantCheck(t, r, true, "reservations hold 28.00 Mbit/s in firm mode, above capacity × oversub 27.00 Mbit/s")
}

// TestCheckStorage: storage used is the committed files plus the inbound
// replicas, and fits the disk.
func TestCheckStorage(t *testing.T) {
	h := newHarness(t, replication.DefaultConfig(replication.Rep(1, 3)), map[ids.RMID]units.BytesPerSec{1: units.Mbps(18)},
		map[ids.RMID]map[ids.FileID]FileMeta{1: {0: fm(units.Mbps(1), 100)}})
	r := h.rms[1]
	if !r.OfferReplica(ecnp.ReplicaOffer{Replication: 1, File: 1, SizeBytes: units.MB, Bitrate: units.Mbps(1), Rate: units.Mbps(2)}) {
		t.Fatal("offer refused")
	}
	wantCheck(t, r, true)
	r.storageUsed++
	wantCheck(t, r, true, "storage used reads")
	r.storageUsed--
	r.info.StorageBytes = units.MB
	wantCheck(t, r, true, "exceeds disk")
}

// TestCheckChargedTransfers: with transfers charged, the ledger holds the
// source's and the destination's transfer rates besides the reservations.
func TestCheckChargedTransfers(t *testing.T) {
	cfg := replication.DefaultConfig(replication.Rep(1, 3))
	cfg.ChargeTransfers = true
	h := newHarness(t, cfg, map[ids.RMID]units.BytesPerSec{1: units.Mbps(18), 2: units.Mbps(18)},
		map[ids.RMID]map[ids.FileID]FileMeta{1: {0: fm(units.Mbps(1), 100)}})
	src, dst := h.rms[1], h.rms[2]
	if !dst.OfferReplica(ecnp.ReplicaOffer{Replication: 1, File: 0, SizeBytes: units.MB, Bitrate: units.Mbps(1), Rate: cfg.Speed}) {
		t.Fatal("offer refused")
	}
	src.mu.Lock()
	src.srcActive++
	src.led.Allocate(h.sched.Now(), cfg.Speed)
	src.mu.Unlock()
	wantCheck(t, src, true)
	wantCheck(t, dst, true)
	dst.FinishReplica(1, false)
	wantCheck(t, dst, true)
	src.mu.Lock()
	src.srcActive--
	src.mu.Unlock()
	wantCheck(t, src, true, "ledger counts 1 stream(s), 0 are live")
}

// TestCheckTenantRows: each tenant's ledger row is that tenant's live
// reservations.
func TestCheckTenantRows(t *testing.T) {
	r, sched := leaseRM(t, 5)
	r.tenants = tenant.NewLedger()
	if res := r.Open(ecnp.OpenRequest{Request: 1, Bitrate: units.Mbps(2), DurationSec: 10, Tenant: 1}); !res.OK {
		t.Fatal(res.Reason)
	}
	wantCheck(t, r, true)
	if err := r.tenants.ReserveBandwidth(1, units.Mbps(1)); err != nil {
		t.Fatal(err)
	}
	wantCheck(t, r, true, "tenant1's ledger row holds 3.00 Mbit/s in 2 stream(s), its live reservations 2.00 Mbit/s in 1")
	r.tenants.ReleaseBandwidth(1, units.Mbps(1))
	sched.RunUntil(6)
	r.SweepLeases(sched.Now())
	wantCheck(t, r, true)
	r.tenants = tenant.NewLedger()
	open(t, r, 2, units.Mbps(1))
	r.active[2].tenant = 2
	wantCheck(t, r, true, "tenant2 holds 1 live reservation(s) and no ledger row")
}
