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
// reserve bandwidth for it.
type OpenRequest struct {
	Request     ids.RequestID
	File        ids.FileID
	Bitrate     units.BytesPerSec
	DurationSec float64
	// Firm selects the admission scenario: a firm request is refused when
	// the reservation does not fit in the remaining bandwidth; a soft
	// request is always admitted (possibly over-allocating the disk).
	Firm bool
	// Tenant identifies the requesting tenant. A provider with a tenant
	// ledger charges the reservation against the tenant's bandwidth quota
	// and refuses the open when the quota is exhausted — even in the soft
	// scenario, where untenanted admission is unconditional.
	Tenant ids.TenantID
}

// OpenResult reports the provider's admission decision.
type OpenResult struct {
	OK bool
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

// StoreRequest asks a provider to admit a brand-new file — the write half
// of the data communication phase. The provider adds the file to its local
// table and storage accounting; the data bytes travel on the data plane
// (live mode) or are implicit (simulation).
type StoreRequest struct {
	File        ids.FileID
	Bitrate     units.BytesPerSec
	SizeBytes   units.Size
	DurationSec float64
	// Tenant owns the stored bytes: a provider with a tenant ledger
	// charges SizeBytes against the tenant's byte quota and refuses the
	// store when it is exhausted.
	Tenant ids.TenantID
}

// Requester is the DFSC-side identity passed to providers (diagnostics).
type Requester struct {
	DFSC ids.DFSCID
	User ids.UserID
}

// The reasons a Mapper refuses BeginReplication or EndReplication. They
// are values, not sentences: an in-process Mapper returns one of them,
// possibly wrapped, so a caller matches with errors.Is and a refusal
// formats and allocates nothing. The file, the RM and the cap are the
// caller's own arguments; whoever logs the refusal adds them.
var (
	// ErrReplicaCap: the file's committed plus pending replicas have
	// reached maxTotal. It is a fact about the file, not the destination.
	ErrReplicaCap = errors.New("mm: file already at its replica cap")
	// ErrAlreadyHolds: the destination holds a committed replica.
	ErrAlreadyHolds = errors.New("mm: destination already holds the file")
	// ErrAlreadyReceiving: the destination has a pending replica.
	ErrAlreadyReceiving = errors.New("mm: destination already receiving the file")
	// ErrUnregisteredRM: the destination is not in the resource list.
	ErrUnregisteredRM = errors.New("mm: replication destination is not a registered RM")
	// ErrNoPendingReplication: EndReplication found no reservation to
	// resolve.
	ErrNoPendingReplication = errors.New("mm: no pending replication of the file on the RM")
)

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
	// AddReplica records that rm now holds file (bulk import or upload).
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
	// access, reserving cfp.Bitrate until Close is called.
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
	// StoreFile admits a brand-new file (the write path); it fails when
	// the provider already holds the file or its disk is full.
	StoreFile(req StoreRequest) error
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
	// After schedules fn to run d seconds from now and returns a cancel
	// function (idempotent; returns false once fired or canceled).
	After(d simtime.Duration, fn func(simtime.Time)) (cancel func() bool)
}

// SimScheduler adapts a *simtime.Scheduler to the Scheduler interface.
type SimScheduler struct {
	S *simtime.Scheduler
}

// Now implements Scheduler.
func (a SimScheduler) Now() simtime.Time { return a.S.Now() }

// After implements Scheduler.
func (a SimScheduler) After(d simtime.Duration, fn func(simtime.Time)) func() bool {
	ev := a.S.After(d, fn)
	return func() bool { return a.S.Cancel(ev) }
}

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
