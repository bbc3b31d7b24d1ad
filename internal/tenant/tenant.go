// Package tenant is the multi-tenant quota ledger: per-tenant bandwidth
// and byte caps, fair-share weights, and the usage accounting every RM
// admission decision consults. It closes the gap the ROADMAP names —
// "any client can drain any RM" — by making tenant identity a
// first-class admission input, following dCache's quota model (per-VO
// byte quotas enforced in the storage layer) and the software-defined
// QoS framework's argument that isolation policy belongs in the control
// plane.
//
// A Ledger is RM-local: the ECNP admission decision it feeds is made
// independently by each Resource Manager, with no global coordinator, so
// a Quota expresses what one RM will grant the tenant. Cluster-wide
// ceilings are the per-RM cap × RM count in the worst case; operators
// provisioning an aggregate budget divide it by the RM count (see
// docs/TENANCY.md).
//
// Concurrency: every method is safe for concurrent use. Reservation is
// atomic check-then-commit under the ledger lock, so two admissions
// racing one remaining quota unit serialize — exactly one wins.
package tenant

import (
	"fmt"
	"sort"
	"sync"

	"dfsqos/internal/ecnp"
	"dfsqos/internal/ids"
	"dfsqos/internal/units"
)

// NoLimit disables one quota dimension: a Quota field set to NoLimit
// means the tenant is uncapped on that axis. Note the asymmetry with
// zero — a zero cap is a real quota that admits nothing.
const NoLimit = -1

// DefaultWeight is the fair-share weight assumed when a quota declares
// none (Weight <= 0).
const DefaultWeight = 1.0

// Quota is one tenant's entitlement on one RM: a bandwidth cap for
// concurrent QoS reservations, a byte cap for stored replica bytes, and
// a fair-share weight consumed by the bid-scoring fairness term.
type Quota struct {
	// Bandwidth caps the tenant's aggregate reserved bandwidth
	// (bytes/sec) across its concurrently open accesses on this RM.
	// NoLimit (negative) means uncapped; zero admits nothing.
	Bandwidth units.BytesPerSec
	// Bytes caps the tenant's stored bytes on this RM. NoLimit
	// (negative) means uncapped; zero admits nothing.
	Bytes int64
	// Weight is the tenant's fair-share weight: a tenant holding more
	// than Weight/ΣWeight of an RM's allocated bandwidth is penalised by
	// the selection policy's δ term. Non-positive means DefaultWeight.
	Weight float64
}

// Unlimited is the quota unregistered tenants fall back to: uncapped on
// both axes at the default weight, preserving pre-tenancy behaviour.
var Unlimited = Quota{Bandwidth: NoLimit, Bytes: NoLimit, Weight: DefaultWeight}

// weight returns the effective fair-share weight.
func (q Quota) weight() float64 {
	if q.Weight <= 0 {
		return DefaultWeight
	}
	return q.Weight
}

// OverQuotaError is the typed admission refusal: which tenant, which
// dimension, and the arithmetic that failed. It unwraps to the ecnp code
// of its dimension, which tells it from capacity exhaustion.
type OverQuotaError struct {
	// Tenant is the over-quota tenant.
	Tenant ids.TenantID
	// Dim names the exhausted dimension: "bandwidth" or "bytes".
	Dim string
	// Requested is the amount the reservation asked for, Used the
	// tenant's usage at decision time, Limit the quota cap — all in the
	// dimension's unit (bytes/sec or bytes).
	Requested, Used, Limit float64
}

// Error renders the refusal with the full arithmetic.
func (e *OverQuotaError) Error() string {
	return fmt.Sprintf("%v over %s quota: requested %g with %g/%g used",
		e.Tenant, e.Dim, e.Requested, e.Used, e.Limit)
}

// Unwrap returns the refusal code of the exhausted dimension.
func (e *OverQuotaError) Unwrap() error {
	if e.Dim == "bytes" {
		return ecnp.ErrTenantBytes
	}
	return ecnp.ErrTenantBandwidth
}

// acct is one tenant's ledger row: the declared quota plus live usage.
type acct struct {
	quota     Quota
	bandwidth units.BytesPerSec // reserved bandwidth in flight
	bytes     int64             // stored bytes charged
	streams   int               // open reservations
}

// Ledger tracks per-tenant quota and usage for one RM. The zero value
// is not usable; construct with NewLedger. A nil *Ledger is a valid
// no-op: every reserve succeeds and nothing is recorded, which is how
// untenanted deployments pay nothing.
type Ledger struct {
	mu    sync.Mutex
	accts map[ids.TenantID]*acct
	met   *Metrics
}

// NewLedger returns an empty ledger; tenants not registered with Set
// fall back to Unlimited.
func NewLedger() *Ledger {
	return &Ledger{accts: make(map[ids.TenantID]*acct)}
}

// SetMetrics attaches the per-tenant telemetry sink (nil detaches).
func (l *Ledger) SetMetrics(m *Metrics) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.met = m
	l.mu.Unlock()
}

// Set declares or replaces one tenant's quota. Usage already accrued is
// kept: tightening a quota below current usage blocks new admissions
// without revoking live streams.
func (l *Ledger) Set(t ids.TenantID, q Quota) {
	if l == nil || !t.Valid() {
		return
	}
	l.mu.Lock()
	a := l.acct(t)
	a.quota = q
	l.mu.Unlock()
}

// acct returns (creating if needed) the row for t. Caller holds l.mu.
func (l *Ledger) acct(t ids.TenantID) *acct {
	a := l.accts[t]
	if a == nil {
		a = &acct{quota: Unlimited}
		l.accts[t] = a
	}
	return a
}

// ReserveBandwidth atomically charges rate against the tenant's
// bandwidth quota, refusing with *OverQuotaError when the reservation
// would exceed the cap. Untenanted requests (invalid t) and nil ledgers
// always succeed. Exact fits are admitted: a tenant with exactly rate
// remaining gets it.
func (l *Ledger) ReserveBandwidth(t ids.TenantID, rate units.BytesPerSec) error {
	if l == nil || !t.Valid() {
		return nil
	}
	l.mu.Lock()
	a := l.acct(t)
	if lim := a.quota.Bandwidth; lim >= 0 && a.bandwidth+rate > lim {
		err := &OverQuotaError{Tenant: t, Dim: "bandwidth",
			Requested: float64(rate), Used: float64(a.bandwidth), Limit: float64(lim)}
		met := l.met
		l.mu.Unlock()
		met.rejected(t)
		return err
	}
	a.bandwidth += rate
	a.streams++
	bw, streams := a.bandwidth, a.streams
	met := l.met
	l.mu.Unlock()
	met.admitted(t, bw, streams)
	return nil
}

// ReleaseBandwidth returns a reservation's rate to the tenant's budget —
// the Close-path and lease-sweeper counterpart of ReserveBandwidth.
func (l *Ledger) ReleaseBandwidth(t ids.TenantID, rate units.BytesPerSec) {
	if l == nil || !t.Valid() {
		return
	}
	l.mu.Lock()
	a := l.acct(t)
	a.bandwidth -= rate
	if a.bandwidth < 0 {
		a.bandwidth = 0
	}
	if a.streams > 0 {
		a.streams--
	}
	bw, streams := a.bandwidth, a.streams
	met := l.met
	l.mu.Unlock()
	met.released(t, bw, streams)
}

// ChargeBytes atomically charges n stored bytes against the tenant's
// byte quota, refusing with *OverQuotaError when it would exceed the
// cap.
func (l *Ledger) ChargeBytes(t ids.TenantID, n int64) error {
	if l == nil || !t.Valid() {
		return nil
	}
	l.mu.Lock()
	a := l.acct(t)
	if lim := a.quota.Bytes; lim >= 0 && a.bytes+n > lim {
		err := &OverQuotaError{Tenant: t, Dim: "bytes",
			Requested: float64(n), Used: float64(a.bytes), Limit: float64(lim)}
		met := l.met
		l.mu.Unlock()
		met.rejected(t)
		return err
	}
	a.bytes += n
	total := a.bytes
	met := l.met
	l.mu.Unlock()
	met.bytesCharged(t, n, total)
	return nil
}

// ReleaseBytes returns n stored bytes to the tenant's byte budget
// (replica deleted or a refused store rolled back).
func (l *Ledger) ReleaseBytes(t ids.TenantID, n int64) {
	if l == nil || !t.Valid() {
		return
	}
	l.mu.Lock()
	a := l.acct(t)
	a.bytes -= n
	if a.bytes < 0 {
		a.bytes = 0
	}
	total := a.bytes
	met := l.met
	l.mu.Unlock()
	met.bytesReleased(t, total)
}

// RemainingBandwidth reports how much more bandwidth the tenant may
// reserve. The second result is false when the tenant is uncapped (the
// first is then meaningless).
func (l *Ledger) RemainingBandwidth(t ids.TenantID) (units.BytesPerSec, bool) {
	if l == nil || !t.Valid() {
		return 0, false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	a := l.accts[t]
	if a == nil || a.quota.Bandwidth < 0 {
		return 0, false
	}
	rem := a.quota.Bandwidth - a.bandwidth
	if rem < 0 {
		rem = 0
	}
	return rem, true
}

// Share returns the tenant's weight-normalised occupation of an RM with
// the given capacity: (reserved bandwidth / capacity) / weight. The
// selection policy's δ term multiplies this by the requested bitrate, so
// a tenant already holding more than its weighted share of the RM bids
// worse against itself than against its neighbours. Zero for unknown
// tenants, nil ledgers, or non-positive capacity.
func (l *Ledger) Share(t ids.TenantID, capacity units.BytesPerSec) float64 {
	if l == nil || !t.Valid() || capacity <= 0 {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	a := l.accts[t]
	if a == nil || a.bandwidth <= 0 {
		return 0
	}
	return (float64(a.bandwidth) / float64(capacity)) / a.quota.weight()
}

// Clamped records that a CFP bid was clamped down to the tenant's
// remaining bandwidth quota (telemetry only; no ledger state changes).
func (l *Ledger) Clamped(t ids.TenantID) {
	if l == nil || !t.Valid() {
		return
	}
	l.mu.Lock()
	met := l.met
	l.mu.Unlock()
	met.Clamped(t)
}

// Usage is one tenant's ledger snapshot.
type Usage struct {
	// Tenant identifies the row.
	Tenant ids.TenantID
	// Quota is the declared entitlement.
	Quota Quota
	// Bandwidth is the reserved bandwidth in flight, Bytes the stored
	// bytes charged, Streams the open reservations.
	Bandwidth units.BytesPerSec
	Bytes     int64
	Streams   int
}

// Snapshot returns every known tenant's usage, sorted by tenant ID —
// the monitor page and tests consume this.
func (l *Ledger) Snapshot() []Usage {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	out := make([]Usage, 0, len(l.accts))
	for t, a := range l.accts {
		out = append(out, Usage{Tenant: t, Quota: a.quota,
			Bandwidth: a.bandwidth, Bytes: a.bytes, Streams: a.streams})
	}
	l.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}
