package rm

import (
	"errors"
	"fmt"
	"math"

	"dfsqos/internal/ids"
	"dfsqos/internal/units"
)

// Check verifies the identities only this RM can see. Each side is
// recomputed from the live reservations, the committed files and the
// inbound transfers, never read from the counter it must equal:
//   - the ledger's allocation and stream count are the live reservations
//     plus, when transfers are charged, the replication transfers in
//     flight (srcActive at Speed each, and every incoming at its rate);
//   - under firm admission (firm), the reservations fit capacity × the
//     ledger's own oversubscription ratio;
//   - storage used is the committed replicas plus the inbound ones, and
//     fits the disk;
//   - each tenant's ledger row is that tenant's live reservations.
//
// Counts and bytes must be equal. Bandwidths are float sums taken in a
// different order from the running totals they check, so they must agree
// to within rounding (sameRate). Check returns every violation, or nil;
// it holds r.mu and reads nothing the request path keeps for it.
func (r *RM) Check(firm bool) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	var errs []error
	bad := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf("%v: %s", r.info.ID, fmt.Sprintf(format, args...)))
	}

	type use struct {
		bw      units.BytesPerSec
		streams int
	}
	var reserved units.BytesPerSec
	tenants := make(map[ids.TenantID]use)
	for _, res := range r.active {
		reserved += res.rate
		if r.tenants != nil && res.tenant.Valid() {
			u := tenants[res.tenant]
			u.bw += res.rate
			u.streams++
			tenants[res.tenant] = u
		}
	}
	alloc, streams := reserved, len(r.active)
	if r.repCfg.ChargeTransfers {
		alloc += units.BytesPerSec(r.srcActive) * r.repCfg.Speed
		streams += r.srcActive + len(r.incomings)
		for _, in := range r.incomings {
			alloc += in.rate
		}
	}
	if got := r.led.Streams(); got != streams {
		bad("ledger counts %d stream(s), %d are live", got, streams)
	}
	if got := r.led.Allocated(); !sameRate(got, alloc, r.info.Capacity) {
		bad("ledger allocates %v, live streams hold %v", got, alloc)
	}
	if limit := units.BytesPerSec(float64(r.info.Capacity) * r.led.Oversub()); firm && reserved > limit && !sameRate(reserved, limit, r.info.Capacity) {
		bad("reservations hold %v in firm mode, above capacity × oversub %v", reserved, limit)
	}

	var stored units.Size
	for _, meta := range r.files {
		stored += meta.Size
	}
	for _, in := range r.incomings {
		stored += in.meta.Size
	}
	if stored != r.storageUsed {
		bad("storage used reads %v, replicas hold %v", r.storageUsed, stored)
	}
	if r.info.StorageBytes > 0 && r.storageUsed > r.info.StorageBytes {
		bad("storage %v exceeds disk %v", r.storageUsed, r.info.StorageBytes)
	}

	for _, row := range r.tenants.Snapshot() {
		want := tenants[row.Tenant]
		delete(tenants, row.Tenant)
		if row.Streams != want.streams || !sameRate(row.Bandwidth, want.bw, r.info.Capacity) {
			bad("%v's ledger row holds %v in %d stream(s), its live reservations %v in %d",
				row.Tenant, row.Bandwidth, row.Streams, want.bw, want.streams)
		}
	}
	for t, u := range tenants {
		bad("%v holds %d live reservation(s) and no ledger row", t, u.streams)
	}
	return errors.Join(errs...)
}

// sameRate reports whether two bandwidth totals agree to within float
// rounding: 1e-9 of the larger of them and the disk's capacity. A sum of
// doubles drifts by about 1e-16 of its magnitude per term, so the bound
// holds for billions of admissions, and it is far below any stream's
// rate, so one leaked or doubled reservation always shows.
func sameRate(a, b, capacity units.BytesPerSec) bool {
	scale := max(math.Abs(float64(a)), math.Abs(float64(b)), float64(capacity))
	return math.Abs(float64(a-b)) <= 1e-9*scale
}
