// Package ecnp defines the Extended Contract Net Protocol layer of the
// distributed file system: the message vocabulary exchanged between the
// three ECNP roles and the Go interfaces each role implements.
//
// The paper maps its components onto ECNP roles one-to-one: the DFS Client
// is the Requester, the Resource Manager is the Storage Provider, and the
// Metadata Manager is the Mapper (matchmaker). Two deviations from the
// original ECNP model are kept deliberately (paper §III-B): every provider
// always returns a bid in response to a CFP (never a refusal), and the
// bid-accept/bid-reject round is eliminated — selection is unilateral at
// the requester, which simply opens the data access on the winner.
//
// The same interfaces are implemented twice: by the in-process simulation
// actors (packages mm, rm, dfsc driven by the DES in internal/cluster) and
// by the TCP stack in internal/live, which transports exactly these message
// structs with the internal/wire codec.
package ecnp

import (
	"context"
	"errors"
	"fmt"

	"dfsqos/internal/ids"
	"dfsqos/internal/selection"
	"dfsqos/internal/simtime"
	"dfsqos/internal/units"
)

// RMInfo is the registration record a Resource Manager submits to the
// Metadata Manager and that the MM hands back to requesters.
type RMInfo struct {
	ID ids.RMID
	// Capacity is the maximum sustained disk bandwidth of the RM, as
	// enforced by the blkio throttle on its virtual block device.
	Capacity units.BytesPerSec
	// StorageBytes is the RM's disk capacity for replica placement.
	StorageBytes units.Size
	// Addr is the RM's network address ("host:port"); empty in-process.
	Addr string
}

// Validate reports the first problem with the registration, or nil.
func (r RMInfo) Validate() error {
	if !r.ID.Valid() {
		return fmt.Errorf("ecnp: invalid RM id %d", r.ID)
	}
	if r.Capacity <= 0 {
		return fmt.Errorf("ecnp: %v has non-positive capacity", r.ID)
	}
	if r.StorageBytes < 0 {
		return fmt.Errorf("ecnp: %v has negative storage", r.ID)
	}
	return nil
}

// CFP is the Call-For-Proposal a requester fans out to every RM holding a
// replica of the requested file.
type CFP struct {
	Request ids.RequestID
	File    ids.FileID
	// Bitrate is B_req: the bandwidth the access must reserve.
	Bitrate units.BytesPerSec
	// DurationSec is T_ocp: how long the access occupies the provider.
	DurationSec float64
	// Tenant identifies the requesting tenant for quota accounting and
	// weighted-fair bid scoring; NoneTenant requests bypass both.
	Tenant ids.TenantID
}

// OpenRequest asks the selected provider to admit a data access and
// reserve bandwidth for it. An open with a size is a write: the provider
// stores the new file, charges its bytes, reserves the ingest's bitrate
// and registers the replica with the Mapper, all or nothing.
type OpenRequest struct {
	Request     ids.RequestID
	File        ids.FileID
	Bitrate     units.BytesPerSec
	DurationSec float64
	// SizeBytes is the size of the file a write stores; zero means a read.
	SizeBytes units.Size
	// Firm selects the admission scenario: a firm request is refused when
	// the reservation does not fit in the remaining bandwidth; a soft
	// request is always admitted (possibly over-allocating the disk).
	Firm bool
	// Tenant identifies the requesting tenant. A provider with a tenant
	// ledger charges the reservation against the tenant's bandwidth quota,
	// and a write's SizeBytes against its byte quota, and refuses the open
	// when either is exhausted — even in the soft scenario, where
	// untenanted admission is unconditional.
	Tenant ids.TenantID
}

// OpenResult reports the provider's admission decision.
type OpenResult struct {
	OK bool
	// Code is why the open was refused; zero for a transport failure.
	Code Refusal
	// Reason is a short diagnostic when OK is false.
	Reason string
}

// ReplicaOffer is sent by a replication source endpoint to a candidate
// destination endpoint.
type ReplicaOffer struct {
	Replication ids.ReplicationID
	File        ids.FileID
	SizeBytes   units.Size
	// Bitrate of the file; the destination derives B_REV from it.
	Bitrate units.BytesPerSec
	// DurationSec is the file's occupation time, needed by the destination
	// to maintain its occupation-time statistics once it owns the replica.
	DurationSec float64
	// Rate is the replication transfer speed (paper: 1.8 Mbit/s).
	Rate   units.BytesPerSec
	Source ids.RMID
}

// Refusal is why an ECNP role refused a call: one byte that means the
// same in process and across a socket, where the wire carries it ahead of
// the text of an Error frame and of an OpenResult. Each value is a
// sentinel error, matched with errors.Is, whose text and metric label are
// declared once, in refusals. A refusal formats and allocates nothing;
// whoever logs it adds the file, RM or request it was about. Zero is no
// refusal.
type Refusal uint8

// The refusals, in wire order: the Mapper's (BeginReplication's four, then
// EndReplication's), then the Provider's. A new one goes last.
const (
	ErrReplicaCap Refusal = iota + 1 // a fact about the file, not the destination
	ErrAlreadyHolds
	ErrAlreadyReceiving
	ErrUnregisteredRM
	ErrNoPendingReplication
	ErrDuplicateRequest
	ErrFirmCapacity
	ErrTenantBandwidth
	ErrTenantBytes
	ErrDiskFull
	ErrAlreadyStored
	ErrNotReserved
	// NumRefusals is one past the last code: the length of an array
	// indexed by Refusal.
	NumRefusals
)

// refusals holds each code's text (its Error) and metric label.
var refusals = [NumRefusals]struct{ text, label string }{
	ErrReplicaCap:           {"mm: file already at its replica cap", "cap"},
	ErrAlreadyHolds:         {"mm: destination already holds the file", "holds"},
	ErrAlreadyReceiving:     {"mm: destination already receiving the file", "receiving"},
	ErrUnregisteredRM:       {"mm: replication destination is not a registered RM", "unregistered"},
	ErrNoPendingReplication: {"mm: no pending replication of the file on the RM", "no_pending"},
	ErrDuplicateRequest:     {"duplicate request id", "duplicate"},
	ErrFirmCapacity:         {"insufficient bandwidth", "firm_capacity"},
	ErrTenantBandwidth:      {"tenant over its bandwidth quota", "tenant_bandwidth"},
	ErrTenantBytes:          {"tenant over its byte quota", "tenant_bytes"},
	ErrDiskFull:             {"disk full", "disk_full"},
	ErrAlreadyStored:        {"file already stored", "already_stored"},
	ErrNotReserved:          {"no active reservation (lease expired or never admitted)", "not_reserved"},
}

// Error implements error.
func (r Refusal) Error() string { return refusals[r].text }

// Label is the code's reason label on the refusal counters.
func (r Refusal) Label() string { return refusals[r].label }

// RefusalOf returns the refusal err is or wraps, or zero.
func RefusalOf(err error) Refusal {
	var r Refusal
	errors.As(err, &r)
	return r
}

// Mapper is the Metadata Manager API: the global resource list and the
// file → replica map ("the union of the resource information provided by
// all of the registered RMs").
type Mapper interface {
	// RegisterRM adds or refreshes an RM in the global resource list.
	RegisterRM(info RMInfo, files []ids.FileID) error
	// Lookup returns the RMs holding a replica of file, the "list of
	// eligible RMs" answered to a requester's query.
	Lookup(file ids.FileID) []ids.RMID
	// RMsWithout returns registered RMs holding no replica of file — the
	// candidate destination list for dynamic replication.
	RMsWithout(file ids.FileID) []ids.RMID
	// AddReplica records that rm now holds file: an RM registering the
	// file a write-open stored on it.
	AddReplica(file ids.FileID, rm ids.RMID) error
	// RemoveReplica records that rm dropped its replica of file.
	RemoveReplica(file ids.FileID, rm ids.RMID) error
	// BeginReplication reserves a pending replica of file on rm before
	// the transfer starts. The reservation counts toward ReplicaCount and
	// is refused when rm already holds or is already receiving the file,
	// or when maxTotal > 0 and the count (committed + pending) has reached
	// maxTotal — the atomic check that keeps concurrent replication
	// sources within N_MAXR. The refusal is ErrUnregisteredRM,
	// ErrAlreadyHolds, ErrAlreadyReceiving or ErrReplicaCap.
	BeginReplication(file ids.FileID, rm ids.RMID, maxTotal int) error
	// EndReplication resolves a reservation: commit turns it into a real
	// replica, abort drops it. Without a reservation it returns
	// ErrNoPendingReplication.
	EndReplication(file ids.FileID, rm ids.RMID, commit bool) error
	// ReplicaCount returns committed plus pending replicas of file.
	ReplicaCount(file ids.FileID) int
	// RMs returns the full resource list in RM-ID order.
	RMs() []RMInfo
}

// Provider is the Resource Manager API seen by requesters and by peer RMs
// during replication.
type Provider interface {
	// Info returns the provider's registration record.
	Info() RMInfo
	// HandleCFP evaluates a CFP and always returns a bid (paper deviation
	// #1). Side effects: the provider records the request arrival in its
	// access history and may trigger its dynamic-replication agent.
	HandleCFP(cfp CFP) selection.Bid
	// Open admits (or, in the firm scenario, possibly refuses) a data
	// access, reserving req.Bitrate until Close is called. A write (a
	// SizeBytes above zero) also stores the file and registers it with the
	// Mapper, and a refusal leaves nothing of it behind.
	Open(req OpenRequest) OpenResult
	// Close releases the reservation of a previously admitted request.
	Close(request ids.RequestID)
	// OfferReplica is the destination endpoint of dynamic replication; it
	// applies the paper's three rejection rules and, on acceptance,
	// reserves the transfer bandwidth until the source completes the copy.
	OfferReplica(offer ReplicaOffer) bool
	// FinishReplica finalizes a previously accepted offer on the
	// destination: the transfer bandwidth is released and, when committed,
	// the destination owns the replica. committed=false aborts the copy.
	FinishReplica(rep ids.ReplicationID, committed bool)
}

// CtxBidder is optionally implemented by Providers whose HandleCFP
// crosses a network. HandleCFPContext must honor the context's deadline
// and cancellation, degrading to the zero bid (RM set, Req set, everything
// else zero) on overrun — the paper's always-bid deviation preserved: a
// silent or stalled provider ranks last instead of blocking the
// negotiation. Requesters running a deadline-bounded concurrent CFP
// fan-out type-assert for this interface and fall back to the plain
// HandleCFP for in-process (simulation) providers, so the simulated and
// live Provider implementations stay on one contract.
type CtxBidder interface {
	HandleCFPContext(ctx context.Context, cfp CFP) selection.Bid
}

// ZeroBid is the bid a requester synthesizes for a provider that could not
// answer a CFP in time (transport failure or negotiation-deadline
// overrun). Its score is 0 under every policy, ranking it last among live
// bidders without aborting the negotiation.
func ZeroBid(rm ids.RMID, cfp CFP) selection.Bid {
	return selection.Bid{RM: rm, Req: cfp.Bitrate}
}

// Directory resolves provider IDs to live endpoints. The simulation binds
// it to in-process actors; live mode binds it to TCP client stubs.
type Directory interface {
	Provider(id ids.RMID) (Provider, bool)
}

// Scheduler abstracts time and deferred execution so the same RM/DFSC
// logic runs under the DES (virtual time) and in live mode (wall time).
type Scheduler interface {
	// Now returns the current time.
	Now() simtime.Time
	// After schedules fn to run d seconds from now. A scheduled fn cannot
	// be withdrawn; it runs once.
	After(d simtime.Duration, fn func(simtime.Time))
}

// SimScheduler adapts a *simtime.Scheduler to the Scheduler interface.
type SimScheduler struct {
	S *simtime.Scheduler
}

// Now implements Scheduler.
func (a SimScheduler) Now() simtime.Time { return a.S.Now() }

// After implements Scheduler.
func (a SimScheduler) After(d simtime.Duration, fn func(simtime.Time)) { a.S.After(d, fn) }

// StaticDirectory is a fixed RMID → Provider table, dense in the id: RM
// id's provider sits at index id, so a lookup is a bounds check and a
// load. RM ids are small and 1-based (ids.RMID), which keeps the table
// the size of the cluster. The zero value is an empty table.
//
// A *StaticDirectory is shared, not copied: a Set made after the pointer
// was handed out is seen by every holder, as a map's insertions were.
// Set is not synchronized with Provider, so a harness fills the table
// before the nodes that read it start.
type StaticDirectory struct {
	slots []Provider
}

// Set makes p the provider of RM id, growing the table as needed; a nil p
// empties the slot. It panics on a negative id.
func (d *StaticDirectory) Set(id ids.RMID, p Provider) {
	if n := int(id) + 1; n > len(d.slots) {
		d.slots = append(d.slots, make([]Provider, n-len(d.slots))...)
	}
	d.slots[id] = p
}

// Provider implements Directory. An id outside the table, negative ones
// included, and an empty slot report absent.
func (d *StaticDirectory) Provider(id ids.RMID) (Provider, bool) {
	if uint(id) >= uint(len(d.slots)) {
		return nil, false
	}
	p := d.slots[id]
	return p, p != nil
}
