// Package rm implements the Resource Manager — the Storage Provider role of
// the ECNP model. Each RM owns one throttled disk (modelled by a bandwidth
// ledger), answers Call-For-Proposals with bids built from its remaining
// bandwidth, two-queue usage history and occupation-time statistics, admits
// or refuses data accesses depending on the QoS scenario, and runs the
// source and destination endpoints of the dynamic replication mechanism.
//
// The RM is driven through an abstract scheduler (ecnp.Scheduler), so the
// identical code executes under the discrete-event simulation and in live
// TCP mode; a mutex guards all state for the latter, and the source-side
// replication agent — which runs on the request path, outside that mutex —
// is one run at a time (RM.agentBusy).
package rm

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"dfsqos/internal/ecnp"
	"dfsqos/internal/history"
	"dfsqos/internal/ids"
	"dfsqos/internal/ledger"
	"dfsqos/internal/replication"
	"dfsqos/internal/rng"
	"dfsqos/internal/selection"
	"dfsqos/internal/simtime"
	"dfsqos/internal/tenant"
	"dfsqos/internal/units"
)

// FileMeta is what an RM knows about a file it stores.
type FileMeta struct {
	Bitrate     units.BytesPerSec
	Size        units.Size
	DurationSec float64
	// Tenant is the byte-quota owner of a file a write-open stored on a
	// tenanted RM: deleting the file (GC, migration) returns its bytes to
	// that tenant's budget. Zero for untenanted writes and for
	// replication-created copies, which are system-initiated and never
	// charged.
	Tenant ids.TenantID
}

// heldFile is one entry of an RM's file table: the file's metadata, the
// CFPs the RM has received for it, and its occupation bias, kept with the
// mean occupation time avg it was computed at. The bias is a pure function
// of the file's fixed duration and that mean, so HandleCFP recomputes it
// only when the mean has moved. The table holds entries by pointer, so a
// CFP edits its file's entry in place with one map lookup.
type heldFile struct {
	meta  FileMeta
	count int64   // CFPs for the file, those before it was held included
	avg   float64 // NaN until the first CFP computes bias
	bias  float64
}

// Stats counts notable RM events for metrics and experiments.
type Stats struct {
	CFPs           int64                   // CFPs received
	Opens          int64                   // accesses admitted
	RepTriggers    int64                   // replication triggers that produced ≥1 transfer
	RepCapped      int64                   // replication attempts on a file whose replica count is at its cap
	RepTransfers   int64                   // replica copies completed (as source)
	RepMigrations  int64                   // own-replica deletions after exceeding N_MAXR
	OffersAccepted int64                   // incoming offers accepted (as destination)
	OffersRejected int64                   // incoming offers rejected (as destination)
	GCEvictions    int64                   // cold replicas deleted by the storage collector
	LeaseExpiries  int64                   // orphaned reservations reclaimed by the sweeper
	Refusals       [ecnp.NumRefusals]int64 // refused opens (reads and writes) and keepalives by code
}

// incoming tracks one accepted inbound replication transfer.
type incoming struct {
	file ids.FileID
	meta FileMeta
	rate units.BytesPerSec
}

// reservation is one admitted QoS access and its lease state, held by
// value in RM.active.
type reservation struct {
	rate         units.BytesPerSec
	lastActivity simtime.Time
	// tenant owns the reservation's quota charge; released on Close and by
	// the lease sweeper alike, so a crashed tenant's quota always returns.
	tenant ids.TenantID
	// serial numbers the RM's admissions, so a request ID recycled after
	// its reservation ended names a reservation with another serial.
	serial uint64
}

// DataCopier moves real replica bytes during dynamic replication. The DES
// leaves it nil (the transfer is pure timing: size/speed seconds); live
// mode plugs a copier that streams the file from the local virtual disk to
// the destination RM over TCP, paced at the replication rate. CopyReplica
// blocks until the copy completes and returns nil only when the
// destination durably holds the bytes.
type DataCopier interface {
	CopyReplica(dst ids.RMID, rep ids.ReplicationID, file ids.FileID, meta FileMeta, rate units.BytesPerSec) error
}

// RM is one Resource Manager.
type RM struct {
	mu sync.Mutex

	info    ecnp.RMInfo
	sched   ecnp.Scheduler
	mapper  ecnp.Mapper
	dir     ecnp.Directory
	led     *ledger.Ledger
	tenants *tenant.Ledger // nil: tenancy disabled
	hist    *history.TwoQueue
	src     *rng.Source
	repCfg  replication.Config
	copier  DataCopier

	files       map[ids.FileID]*heldFile
	sumDur      float64    // Σ DurationSec over files (occupation-time aggregate)
	storageUsed units.Size // Σ Size over files + in-flight incoming replicas
	// counts holds the CFP counts of files not in the table; a held file's
	// count is in its entry, and moves with it in and out (holdLocked,
	// dropFileLocked).
	counts map[ids.FileID]int64
	// requests is Σ count over files, and top the held file with the
	// highest count, the lowest ID among equal counts: the running
	// busiest-file ranking.
	requests int64
	top      replication.FileCount

	active     map[ids.RequestID]reservation
	admissions uint64  // the last reservation's serial
	leaseTTL   float64 // seconds; <=0 disables lease expiry

	// Admission hooks (see SetAdmissionHooks). Invoked outside r.mu.
	onAdmit   func(ids.RequestID, ids.TenantID, units.BytesPerSec)
	onRelease func(ids.RequestID, ids.TenantID, units.BytesPerSec)
	// Disk hooks (see SetDiskHooks); nil in the DES.
	provision func(ids.FileID, units.Size) error
	remove    func(ids.FileID)

	// Replication state.
	incomings     map[ids.ReplicationID]incoming
	incomingFiles map[ids.FileID]int
	outgoingFiles map[ids.FileID]int
	srcActive     int
	dstActive     int
	lastRep       simtime.Time
	hasRepped     bool
	repSeq        int64

	stats Stats

	// agentBusy marks a source-agent run in progress. It is taken under mu
	// in the same critical section as the trigger test and dropped when
	// the run returns, so of any number of concurrent CFPs one runs the
	// agent and the rest answer their bids without it — two can no longer
	// both read srcActive == 0 after the lock is released and both become
	// sources. The DES never calls HandleCFP concurrently on one RM and so
	// never finds it set. The run that holds it owns the buffers below,
	// which is what lets an attempt that starts nothing allocate nothing
	// when its mapper is a candidateLister.
	agentBusy   bool
	fileCounts  []replication.FileCount
	busiest     []ids.FileID
	candidates  []ids.RMID
	destScratch replication.Scratch

	// gcCfg is read only by the collector, so it sits last: the fields a
	// CFP and an Open touch (counts, the ranking, active, admissions)
	// then share one cache line, and a request, which finds its RM's
	// struct cold when there are many RMs, misses once for them.
	gcCfg replication.GCConfig

	// agentRuns counts the agent's triggered runs, however each ended: an
	// attempt's stream is split from src by its run and its file, and src
	// itself is never drawn from. Only the agent touches it, so it sits
	// after gcCfg and leaves the offsets of the fields a request touches
	// as they were.
	agentRuns uint64
}

// Options configures a new RM.
type Options struct {
	Info        ecnp.RMInfo
	Scheduler   ecnp.Scheduler
	Mapper      ecnp.Mapper
	History     history.Config
	Replication replication.Config
	// GC configures cold-replica deletion (zero value: disabled).
	GC replication.GCConfig
	// Rand is this RM's private random stream: the parent each replication
	// attempt splits its destination draws from. Nothing draws from it.
	Rand *rng.Source
	// Copier optionally moves real bytes during replication (live mode).
	Copier DataCopier
	// Files seeds the RM's local file table with its static replicas.
	Files map[ids.FileID]FileMeta
	// Metrics receives live telemetry (nil: no-op — the DES stays
	// untouched). See NewMetrics.
	Metrics *Metrics
	// LeaseTTLSec bounds how long an admitted reservation may sit with no
	// stream activity and no keepalive before the sweeper reclaims its
	// bandwidth. Zero (the default) disables leases entirely, so the DES
	// and existing deployments are untouched.
	LeaseTTLSec float64
	// Oversub is the admission oversubscription ratio (≥ 1): firm
	// admission accepts reservations up to capacity×Oversub while the
	// blkio enforcement tree keeps guaranteeing previously-admitted
	// assured floors. Zero means 1.0 (nominal, no oversubscription).
	Oversub float64
	// Tenants is the RM's tenant quota ledger. Nil (the default) disables
	// tenancy entirely: every request is admitted exactly as before
	// tenants existed. With a ledger installed, Open charges a reservation
	// against the tenant's bandwidth quota and a write's bytes against its
	// byte quota, and HandleCFP clamps bids to the tenant's remaining
	// allowance and reports the tenant's weighted share for the selection
	// policy's δ term.
	Tenants *tenant.Ledger
}

// New constructs an RM. The Directory is injected later via SetDirectory
// because providers and the directory reference each other.
func New(opt Options) (*RM, error) {
	if err := opt.Info.Validate(); err != nil {
		return nil, err
	}
	if opt.Scheduler == nil || opt.Mapper == nil || opt.Rand == nil {
		return nil, fmt.Errorf("rm: %v: Scheduler, Mapper and Rand are required", opt.Info.ID)
	}
	if err := opt.Replication.Validate(); err != nil {
		return nil, err
	}
	if err := opt.GC.Validate(); err != nil {
		return nil, err
	}
	hist, err := history.New(opt.History)
	if err != nil {
		return nil, err
	}
	r := &RM{
		info:          opt.Info,
		sched:         opt.Scheduler,
		mapper:        opt.Mapper,
		led:           ledger.New(opt.Info.Capacity, opt.Scheduler.Now()),
		tenants:       opt.Tenants,
		hist:          hist,
		src:           opt.Rand,
		repCfg:        opt.Replication,
		gcCfg:         opt.GC,
		copier:        opt.Copier,
		files:         make(map[ids.FileID]*heldFile, len(opt.Files)),
		counts:        make(map[ids.FileID]int64),
		active:        make(map[ids.RequestID]reservation),
		leaseTTL:      opt.LeaseTTLSec,
		incomings:     make(map[ids.ReplicationID]incoming),
		incomingFiles: make(map[ids.FileID]int),
		outgoingFiles: make(map[ids.FileID]int),
	}
	if opt.Oversub != 0 {
		if err := r.led.SetOversub(opt.Oversub); err != nil {
			return nil, fmt.Errorf("rm: %v: %w", opt.Info.ID, err)
		}
	}
	for f, meta := range opt.Files {
		r.holdLocked(f, meta)
		r.storageUsed += meta.Size
	}
	if opt.Info.StorageBytes > 0 && r.storageUsed > opt.Info.StorageBytes {
		return nil, fmt.Errorf("rm: %v seeded with %v of replicas exceeding %v disk",
			opt.Info.ID, r.storageUsed, opt.Info.StorageBytes)
	}
	if opt.Metrics != nil {
		opt.Metrics.bind(r)
	}
	return r, nil
}

// SetAdmissionHooks installs callbacks fired after a reservation is
// admitted (onAdmit, with the owning tenant and the admitted bitrate)
// and after it is released — by the client's Close or by the lease
// sweeper (onRelease, with the same tenant and rate so per-tenant
// enforcement state can be unwound exactly). Live mode uses them to
// create and tear down blkio throttle groups — per-reservation for
// untenanted streams, shared per-tenant for tenanted ones — so an
// expired lease hands its borrowed-bandwidth claim back to the disk's
// lending pool. Both hooks run outside the RM's lock; either may be
// nil. Install them before traffic flows.
func (r *RM) SetAdmissionHooks(onAdmit func(ids.RequestID, ids.TenantID, units.BytesPerSec), onRelease func(ids.RequestID, ids.TenantID, units.BytesPerSec)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.onAdmit = onAdmit
	r.onRelease = onRelease
}

// SetDiskHooks installs the disk step of a write-open and of an accepted
// replica offer: provision puts the file on the RM's disk, its failure
// undoing the write or the offer, and remove takes a file's bytes off the
// disk whenever the RM stops holding a file it provisioned: a written
// file the MM then refuses to register, an aborted incoming copy, a cold
// replica the collector deletes, and a replica migrated away. remove is
// never called for a file the RM holds. Both run outside the RM's lock;
// install them before traffic flows.
func (r *RM) SetDiskHooks(provision func(ids.FileID, units.Size) error, remove func(ids.FileID)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.provision = provision
	r.remove = remove
}

// SetDirectory wires the RM to its peers; it must be called before any
// replication can run.
func (r *RM) SetDirectory(dir ecnp.Directory) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.dir = dir
}

// Register submits the RM's resources and file list to the Metadata
// Manager — the first step of system initialization (paper Fig. 2).
func (r *RM) Register() error {
	r.mu.Lock()
	files := make([]ids.FileID, 0, len(r.files))
	for f := range r.files {
		files = append(files, f)
	}
	info := r.info
	r.mu.Unlock()
	return r.mapper.RegisterRM(info, files)
}

// Info implements ecnp.Provider.
func (r *RM) Info() ecnp.RMInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.info
}

// SetAddr records the RM's dialable network address so self-initiated
// (re-)registrations — Register called directly or from the heartbeat
// loop's self-heal path — advertise it. Live deployments call it once the
// server socket is bound, before the first registration; without it a
// heartbeat-triggered re-register would wipe the MM's record of where to
// dial this RM.
func (r *RM) SetAddr(addr string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.info.Addr = addr
}

// Stats returns a copy of the RM's event counters.
func (r *RM) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// Snapshot freezes the ledger integrals at now (see ledger.Snapshot).
func (r *RM) Snapshot(now simtime.Time) ledger.Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.led.Snapshot(now)
}

// Allocated returns the currently reserved bandwidth.
func (r *RM) Allocated() units.BytesPerSec {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.led.Allocated()
}

// TenantUsage snapshots the RM's tenant ledger (nil when tenancy is
// disabled) — the monitor page and scenario gates consume this.
func (r *RM) TenantUsage() []tenant.Usage {
	return r.tenants.Snapshot()
}

// HasFile reports whether the RM holds a committed replica of file.
func (r *RM) HasFile(f ids.FileID) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.holdsLocked(f)
}

// holdsLocked reports whether f is in the file table. Caller holds r.mu.
func (r *RM) holdsLocked(f ids.FileID) bool {
	_, ok := r.files[f]
	return ok
}

// NumFiles returns the number of committed replicas on this RM.
func (r *RM) NumFiles() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.files)
}

// HandleCFP implements ecnp.Provider. Per the paper's first deviation from
// textbook ECNP, the RM always returns a bid rather than refusing. The CFP
// arrival is recorded in the access history (it is a request for the file,
// whether or not this RM wins) and may trigger the dynamic-replication
// source agent. The bid and the trigger test share one critical section;
// only a triggered agent runs outside it, since it talks to the mapper and
// to peer RMs.
func (r *RM) HandleCFP(cfp ecnp.CFP) selection.Bid {
	r.mu.Lock()
	r.stats.CFPs++
	now := r.sched.Now()

	tOcpAvg := 0.0
	if n := len(r.files); n > 0 {
		tOcpAvg = r.sumDur / float64(n)
	}
	// The request frequency feeds the replication agent's busiest-file
	// ranking; the utilization history is recorded at Open time, when the
	// file is actually accessed on this RM. A held file's count is in its
	// entry; its bias is recomputed only when T_ocp_avg has moved since the
	// entry last computed it. A file the RM does not hold (a write, a
	// plain-CNP broadcast) is counted in counts and scored at the CFP's
	// duration.
	var bias float64
	e, known := r.files[cfp.File]
	if known {
		e.count++
		r.requests++
		r.rankLocked(cfp.File, e.count)
		if e.avg != tOcpAvg {
			e.avg, e.bias = tOcpAvg, selection.OccupationBias(e.meta.DurationSec, tOcpAvg)
		}
		bias = e.bias
	} else {
		r.counts[cfp.File]++
		bias = selection.OccupationBias(cfp.DurationSec, tOcpAvg)
	}
	assured := r.led.Remaining()
	if assured < 0 {
		assured = 0
	}
	bid := selection.Bid{
		RM:          r.info.ID,
		Rem:         r.led.Remaining(),
		Trend:       r.hist.Trend(now, r.led.Allocated()),
		OccBias:     bias,
		Req:         cfp.Bitrate,
		HasReplica:  known,
		Assured:     assured,
		Ceil:        r.led.AdmitRemaining(),
		TenantShare: r.tenants.Share(cfp.Tenant, r.info.Capacity),
	}
	// A quota-capped tenant cannot be promised more than its remaining
	// allowance: clamp the floors the bid advertises so the requester's
	// admission math never plans on bandwidth Open would refuse. The clamp
	// is counted only once the allowance is below the request's bitrate,
	// when the quota, not the disk, bounds what the tenant can open.
	if rem, capped := r.tenants.RemainingBandwidth(cfp.Tenant); capped {
		if bid.Assured > rem {
			bid.Assured = rem
		}
		if bid.Ceil > rem {
			bid.Ceil = rem
		}
		if rem < cfp.Bitrate {
			r.tenants.Clamped(cfp.Tenant)
		}
	}
	if !r.replicationDueLocked(now) {
		r.mu.Unlock()
		return bid
	}
	self := r.info.ID
	r.mu.Unlock()

	var capped int64
	for _, f := range r.busiest {
		a := r.tryReplicateFile(now, f, self)
		if a == attemptCapped {
			capped++
		}
		if a == attemptStarted {
			break
		}
	}
	r.mu.Lock()
	r.agentBusy = false
	r.stats.RepCapped += capped
	r.mu.Unlock()
	return bid
}

// Open implements ecnp.Provider. A write (SizeBytes above zero) stores its
// file all or nothing: every check first; then, under r.mu, the file, its
// storage, byte charge and reservation; outside the lock, the disk step
// (SetDiskHooks); last, the RM's own MM registration, since the MM refuses
// to drop a last replica. A refusal or failure at any step leaves nothing.
func (r *RM) Open(req ecnp.OpenRequest) ecnp.OpenResult {
	write := req.SizeBytes > 0
	r.mu.Lock()
	if res := r.admitLocked(req, write); res.Code != 0 {
		r.refuseLocked(res.Code)
		r.mu.Unlock()
		return res
	}
	now := r.sched.Now()
	r.led.Allocate(now, req.Bitrate)
	r.admissions++
	held := reservation{rate: req.Bitrate, lastActivity: now, tenant: req.Tenant, serial: r.admissions}
	r.active[req.Request] = held
	if write {
		r.holdLocked(req.File, FileMeta{Bitrate: req.Bitrate, Size: req.SizeBytes, DurationSec: req.DurationSec, Tenant: req.Tenant})
		r.storageUsed += req.SizeBytes
	} else {
		r.admittedLocked(req, now)
	}
	onAdmit, provision, remove := r.onAdmit, r.provision, r.remove
	r.mu.Unlock()
	if write {
		var err error
		why := ecnp.ErrDiskFull
		if provision != nil {
			err = provision(req.File, req.SizeBytes)
		}
		if err == nil {
			if err = r.mapper.AddReplica(req.File, r.info.ID); err != nil && remove != nil {
				remove(req.File)
			}
			why = ecnp.RefusalOf(err)
		}
		r.mu.Lock()
		if err != nil {
			// Undo the commit, and count the failure as a refusal when it
			// carries a code. The reservation is undone only if it is still
			// this write's own: a Close during the disk step may have ended
			// it, and a new admission may have reused the request ID.
			r.dropFileLocked(req.File)
			if cur, ok := r.active[req.Request]; ok && cur.serial == held.serial {
				r.releaseLocked(req.Request, held, r.sched.Now())
			}
			if why != 0 {
				r.refuseLocked(why)
			}
		} else {
			r.admittedLocked(req, now)
		}
		r.mu.Unlock()
		if err != nil {
			return ecnp.OpenResult{Code: why, Reason: err.Error()}
		}
	}
	// The hook runs before the admission is reported, so by the time the
	// client can stream, its throttle group exists.
	if onAdmit != nil {
		onAdmit(req.Request, req.Tenant, req.Bitrate)
	}
	return ecnp.OpenResult{OK: true}
}

// admitLocked returns the first refusal of an open, or the zero result:
// a duplicate request ID; for a write, a file already stored or incoming
// and a full disk; firm capacity; the tenant's bandwidth; for a write, its
// bytes. The tenant checks charge as they pass, so a write refused its
// bytes has its bandwidth charge returned. Caller holds r.mu.
func (r *RM) admitLocked(req ecnp.OpenRequest, write bool) ecnp.OpenResult {
	var why ecnp.Refusal
	_, dup := r.active[req.Request]
	switch {
	case dup:
		why = ecnp.ErrDuplicateRequest
	case write && (r.holdsLocked(req.File) || r.incomingFiles[req.File] > 0):
		why = ecnp.ErrAlreadyStored
	case write && r.info.StorageBytes > 0 && r.storageUsed+req.SizeBytes > r.info.StorageBytes:
		why = ecnp.ErrDiskFull
	case req.Firm && !r.led.Fits(req.Bitrate):
		why = ecnp.ErrFirmCapacity
	}
	if why != 0 {
		return ecnp.OpenResult{Code: why, Reason: why.Error()}
	}
	// Tenant quota is checked after capacity: a firm-refused request
	// never touches the tenant ledger, and an over-quota refusal holds
	// even in the soft scenario, where untenanted admission is free.
	if err := r.tenants.ReserveBandwidth(req.Tenant, req.Bitrate); err != nil {
		return ecnp.OpenResult{Code: ecnp.ErrTenantBandwidth, Reason: err.Error()}
	}
	if !write {
		return ecnp.OpenResult{}
	}
	if err := r.tenants.ChargeBytes(req.Tenant, int64(req.SizeBytes)); err != nil {
		r.tenants.ReleaseBandwidth(req.Tenant, req.Bitrate)
		return ecnp.OpenResult{Code: ecnp.ErrTenantBytes, Reason: err.Error()}
	}
	return ecnp.OpenResult{}
}

// admittedLocked counts an open that stands, a write only once the MM has
// registered it, so an undone write counts nothing. Caller holds r.mu.
func (r *RM) admittedLocked(req ecnp.OpenRequest, now simtime.Time) {
	size := units.Size(float64(req.Bitrate) * req.DurationSec)
	// The two-queue history accumulates "the cumulative amount of
	// bandwidth utilization": the sizes of files being accessed on this
	// RM during the recording window.
	r.hist.Record(now, size)
	r.led.AddAssignedBytes(size)
	r.stats.Opens++
}

// releaseLocked ends reservation res of request, returning its bandwidth
// to the ledger and its tenant. Caller holds r.mu.
func (r *RM) releaseLocked(request ids.RequestID, res reservation, now simtime.Time) {
	delete(r.active, request)
	r.led.Release(now, res.rate)
	r.tenants.ReleaseBandwidth(res.tenant, res.rate)
}

// holdLocked enters f, which the table does not hold, with meta, and adds
// it to the table's aggregates: its duration to sumDur, and the count it
// gathered while not held to requests and the ranking. Storage is the
// caller's: an incoming replica reserved it when it was offered. Caller
// holds r.mu.
func (r *RM) holdLocked(f ids.FileID, meta FileMeta) {
	e := &heldFile{meta: meta, count: r.counts[f], avg: math.NaN()}
	if e.count > 0 {
		delete(r.counts, f)
	}
	r.files[f] = e
	r.sumDur += meta.DurationSec
	r.requests += e.count
	r.rankLocked(f, e.count)
}

// dropFileLocked deletes f from the table, returning its storage and its
// tenant's byte charge, its count to counts, and reports whether f was
// held. Dropping the top file ranks the table again. Caller holds r.mu.
func (r *RM) dropFileLocked(f ids.FileID) bool {
	e, ok := r.files[f]
	if ok {
		delete(r.files, f)
		if e.count > 0 {
			r.counts[f] = e.count
		}
		r.sumDur -= e.meta.DurationSec
		r.requests -= e.count
		if f == r.top.File {
			r.rerankLocked()
		}
		r.storageUsed -= e.meta.Size
		r.tenants.ReleaseBytes(e.meta.Tenant, int64(e.meta.Size))
	}
	return ok
}

// rankLocked makes held file f, now at count c, the top file if it
// outranks the one there. Caller holds r.mu.
func (r *RM) rankLocked(f ids.FileID, c int64) {
	if fc := (replication.FileCount{File: f, Count: c}); outranks(fc, r.top) {
		r.top = fc
	}
}

// rerankLocked finds the top file by a pass over the table. Caller holds
// r.mu.
func (r *RM) rerankLocked() {
	r.top = replication.FileCount{}
	for f, e := range r.files {
		r.rankLocked(f, e.count)
	}
}

// outranks reports whether a ranks above b among the busiest files: a
// higher count, or an equal count and a lower file ID.
func outranks(a, b replication.FileCount) bool {
	return a.Count > b.Count || a.Count == b.Count && a.File < b.File
}

// refuseLocked counts a refusal by its code and returns the code.
func (r *RM) refuseLocked(why ecnp.Refusal) ecnp.Refusal {
	r.stats.Refusals[why]++
	return why
}

// Close implements ecnp.Provider. Closing an unknown request is a no-op so
// a requester retrying after a lost reply — or arriving after the lease
// sweeper already reclaimed the reservation — cannot corrupt the ledger.
func (r *RM) Close(request ids.RequestID) {
	r.mu.Lock()
	res, ok := r.active[request]
	if !ok {
		r.mu.Unlock()
		return
	}
	r.releaseLocked(request, res, r.sched.Now())
	onRelease := r.onRelease
	r.mu.Unlock()
	if onRelease != nil {
		onRelease(request, res.tenant, res.rate)
	}
}

// Touch renews a reservation's lease implicitly: the live data plane
// calls it once per streamed chunk, so an active stream never expires.
// Touching an unknown request is a no-op (the stream's own error path
// will surface the expiry).
func (r *RM) Touch(request ids.RequestID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if res, ok := r.active[request]; ok {
		res.lastActivity = r.sched.Now()
		r.active[request] = res
	}
}

// Renew is the explicit keepalive: a client holding a reservation open
// without streaming (e.g. between chunks of a slow consumer) beats the
// TTL by renewing. Unlike Touch it reports an unknown request as an
// error so the client learns its lease already expired and can
// re-negotiate instead of streaming into a closed reservation.
func (r *RM) Renew(request ids.RequestID) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	res, ok := r.active[request]
	if !ok {
		return fmt.Errorf("rm: %v: %w: %v", r.info.ID, r.refuseLocked(ecnp.ErrNotReserved), request)
	}
	res.lastActivity = r.sched.Now()
	r.active[request] = res
	return nil
}

// ActiveReservations returns the number of admitted, unexpired accesses.
func (r *RM) ActiveReservations() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.active)
}

// SweepLeases expires every reservation whose lease has been idle longer
// than the TTL as of now, returning the reclaimed bandwidth to the
// ledger. It reports how many reservations were expired. It holds r.mu
// from choosing its victims to releasing them, so a reservation closed or
// re-admitted under a recycled request ID is never collateral damage.
// Expiry is idempotent with the client's Close: whichever side arrives
// second finds nothing.
func (r *RM) SweepLeases(now simtime.Time) int {
	r.mu.Lock()
	if r.leaseTTL <= 0 {
		r.mu.Unlock()
		return 0
	}
	type expired struct {
		req ids.RequestID
		res reservation
	}
	var gone []expired
	for req, res := range r.active {
		if now.Sub(res.lastActivity).Seconds() > r.leaseTTL {
			r.releaseLocked(req, res, now)
			r.stats.LeaseExpiries++
			gone = append(gone, expired{req, res})
		}
	}
	onRelease := r.onRelease
	r.mu.Unlock()
	// Release hooks fire outside the lock: tearing down a dead stream's
	// throttle group is how its borrowed bandwidth returns to the pool.
	if onRelease != nil {
		for _, e := range gone {
			onRelease(e.req, e.res.tenant, e.res.rate)
		}
	}
	return len(gone)
}

// OfferReplica implements ecnp.Provider (the destination endpoint).
func (r *RM) OfferReplica(offer ecnp.ReplicaOffer) bool {
	r.mu.Lock()
	hasReplica := r.holdsLocked(offer.File) || r.incomingFiles[offer.File] > 0
	ok := replication.DestinationDecision(
		hasReplica,
		r.led.Remaining(),
		r.info.Capacity,
		r.repCfg.BRev(offer.Bitrate),
		r.repCfg.TriggerFrac,
	)
	// A full disk also rejects: the replica would not fit.
	if ok && r.info.StorageBytes > 0 && r.storageUsed+offer.SizeBytes > r.info.StorageBytes {
		ok = false
	}
	if !ok {
		r.stats.OffersRejected++
		r.mu.Unlock()
		return false
	}
	r.storageUsed += offer.SizeBytes
	r.stats.OffersAccepted++
	if r.repCfg.ChargeTransfers {
		r.led.Allocate(r.sched.Now(), offer.Rate)
	}
	r.incomings[offer.Replication] = incoming{
		file: offer.File,
		meta: FileMeta{Bitrate: offer.Bitrate, Size: offer.SizeBytes, DurationSec: offer.DurationSec},
		rate: offer.Rate,
	}
	r.incomingFiles[offer.File]++
	r.dstActive++
	provision := r.provision
	r.mu.Unlock()
	// The disk step, as a write-open's: a full disk retroactively rejects
	// the offer.
	if provision != nil && provision(offer.File, offer.SizeBytes) != nil {
		r.finishReplica(offer.Replication, false, false)
		return false
	}
	return true
}

// FinishReplica implements ecnp.Provider (destination side completion).
func (r *RM) FinishReplica(rep ids.ReplicationID, committed bool) {
	r.finishReplica(rep, committed, true)
}

// finishReplica ends incoming copy rep; onDisk says whether its disk step
// provisioned it. An aborted copy's bytes leave the disk (SetDiskHooks),
// and until they have, its incoming count pins the file, so no write or
// offer of it provisions it in between.
func (r *RM) finishReplica(rep ids.ReplicationID, committed, onDisk bool) {
	r.mu.Lock()
	in, ok := r.incomings[rep]
	if !ok {
		r.mu.Unlock()
		return
	}
	delete(r.incomings, rep)
	r.dstActive--
	if r.repCfg.ChargeTransfers {
		r.led.Release(r.sched.Now(), in.rate)
	}
	commitOK := false
	if committed {
		if !r.holdsLocked(in.file) {
			r.holdLocked(in.file, in.meta)
			commitOK = true
		}
	}
	if !commitOK {
		// Aborted (or duplicate) transfer: return the reserved space.
		r.storageUsed -= in.meta.Size
	}
	var remove func(ids.FileID)
	if !r.holdsLocked(in.file) && onDisk {
		remove = r.remove
	}
	if remove == nil {
		r.endIncomingLocked(in.file)
	}
	r.mu.Unlock()
	if remove != nil {
		r.removeFromDisk(remove, in.file)
	}
	if commitOK {
		// A landed replica may push storage past the high watermark; the
		// collector runs outside the lock (it talks to the mapper).
		r.collectGarbage()
	}
}

// collectGarbage deletes the coldest local replicas until storage
// utilization falls below the GC low watermark. Files currently being
// replicated out are pinned; the mapper (which refuses to drop a last
// replica) and MinReplicas protect availability.
func (r *RM) collectGarbage() {
	r.mu.Lock()
	if !r.gcCfg.ShouldCollect(r.storageUsed, r.info.StorageBytes) {
		r.mu.Unlock()
		return
	}
	victims := make([]replication.Victim, 0, len(r.files))
	for f, e := range r.files {
		victims = append(victims, replication.Victim{
			File:   f,
			Size:   e.meta.Size,
			Count:  e.count,
			Pinned: r.outgoingFiles[f] > 0,
		})
	}
	used := r.storageUsed
	target := r.gcCfg.TargetBytes(r.info.StorageBytes)
	minReplicas := r.gcCfg.MinReplicas
	self := r.info.ID
	r.mu.Unlock()

	// Fill in the global replica counts outside the lock.
	for i := range victims {
		victims[i].Replicas = r.mapper.ReplicaCount(victims[i].File)
	}
	for _, f := range replication.SelectVictims(victims, used, target, minReplicas) {
		if err := r.mapper.RemoveReplica(f, self); err != nil {
			continue // lost a race (e.g. became the last replica); skip
		}
		var remove func(ids.FileID)
		r.mu.Lock()
		if r.dropFileLocked(f) {
			r.stats.GCEvictions++
			remove = r.unlinkLocked(f)
		}
		r.mu.Unlock()
		if remove != nil {
			r.removeFromDisk(remove, f)
		}
	}
}

// unlinkLocked returns the remove disk hook for f, a file the RM has just
// stopped holding, and pins f as incoming until removeFromDisk has run
// it, so no write or offer of f provisions it in between. Nil when no
// hook is installed (the DES). Caller holds r.mu.
func (r *RM) unlinkLocked(f ids.FileID) func(ids.FileID) {
	if r.remove != nil {
		r.incomingFiles[f]++
	}
	return r.remove
}

// removeFromDisk runs remove for f, outside r.mu, and then drops the
// incoming count that pinned f meanwhile.
func (r *RM) removeFromDisk(remove func(ids.FileID), f ids.FileID) {
	remove(f)
	r.mu.Lock()
	r.endIncomingLocked(f)
	r.mu.Unlock()
}

// endIncomingLocked drops one incoming count of f. Caller holds r.mu.
func (r *RM) endIncomingLocked(f ids.FileID) {
	if r.incomingFiles[f]--; r.incomingFiles[f] <= 0 {
		delete(r.incomingFiles, f)
	}
}

// replicationDueLocked is the source-side agent's trigger: it reports
// whether the agent should run now and, when it should, marks it busy and
// ranks the busiest files into r.busiest, which HandleCFP then tries in
// turn, replicating the first feasible one to destinations chosen by the
// configured strategy. Caller holds r.mu.
func (r *RM) replicationDueLocked(now simtime.Time) bool {
	cfg := &r.repCfg
	if !cfg.Strategy.Enabled || r.dir == nil || r.agentBusy {
		return false
	}
	// Trigger conditions (paper §V, "When to replicate"):
	// remaining bandwidth below B_TH, not already a source or destination
	// endpoint, and no replication processed within the cooldown window.
	if r.led.FracRemaining() >= cfg.TriggerFrac ||
		r.srcActive > 0 || r.dstActive > 0 ||
		(r.hasRepped && now.Sub(r.lastRep).Seconds() < cfg.CooldownSec) {
		return false
	}
	r.agentBusy = true
	r.agentRuns++
	// Busiest-file candidate set N_BF: smallest prefix of this RM's
	// request counts covering BusyCoverage of the total. When the top
	// file alone covers it, that prefix is the top file, as
	// BusiestCovering would find; otherwise a pass over the table ranks
	// every counted file.
	if r.requests > 0 && float64(r.top.Count) >= cfg.BusyCoverage*float64(r.requests) {
		r.busiest = append(r.busiest[:0], r.top.File)
		return true
	}
	fcs := r.fileCounts[:0]
	for f, e := range r.files {
		if e.count > 0 {
			fcs = append(fcs, replication.FileCount{File: f, Count: e.count})
		}
	}
	r.fileCounts = fcs
	r.busiest = replication.BusiestCovering(fcs, cfg.BusyCoverage, r.busiest)
	return true
}

// candidateLister is optionally implemented by Mappers that answer the
// replication candidate query in process (mm.Manager and
// mm.ShardedManager): AppendRMsWithout lists the candidates into the
// buffer the agent keeps. Any other Mapper's RMsWithout answer is copied
// into the buffer.
type candidateLister interface {
	AppendRMsWithout(dst []ids.RMID, file ids.FileID) []ids.RMID
}

// attempt is what one replication attempt came to.
type attempt int

const (
	attemptNone    attempt = iota // no copy started
	attemptCapped                 // none could start: the file counts its cap
	attemptStarted                // at least one copy started
)

// attemptStream names the streams replication attempts draw from. Each
// attempt's is keyed by its agent run and its file (DESIGN §6, the
// RNG-stream rule), so an attempt that draws nothing moves no other's
// draws.
var attemptStream = rng.NameOf("rm/replication-attempt")

// tryReplicateFile attempts one replication of file f. Its caller holds
// agentBusy.
func (r *RM) tryReplicateFile(now simtime.Time, f ids.FileID, self ids.RMID) attempt {
	r.mu.Lock()
	e, stored := r.files[f]
	outgoing := r.outgoingFiles[f] > 0
	cfg := r.repCfg
	if !stored || outgoing {
		r.mu.Unlock()
		return attemptNone
	}
	meta := e.meta
	r.mu.Unlock()
	if !cfg.SourceEligible(meta.Bitrate) {
		return attemptNone
	}
	nCur := r.mapper.ReplicaCount(f)
	if nCur < 1 {
		return attemptNone
	}
	want, migrate := cfg.Strategy.Plan(nCur)
	if want < 1 {
		return attemptNone
	}
	// The MM enforces the replica cap atomically, so concurrent sources of
	// the same file cannot overshoot N_MAXR. A migrating plan may hold one
	// replica beyond the bound until the source deletes its own copy.
	maxTotal := cfg.Strategy.NMaxR
	if migrate {
		maxTotal++
	}
	// Candidates exclude the file's holders and pending destinations, so
	// at the cap every reservation would be refused: the attempt stops
	// here, with no candidate query and no draw. A count gone stale
	// (another source over TCP) is caught by the walk's ErrReplicaCap
	// below.
	if maxTotal > 0 && nCur >= maxTotal {
		return attemptCapped
	}
	// The candidates are the ids the MM lists, in ascending order, self
	// excluded. The walk skips an id the directory cannot resolve, so none
	// is resolved before it.
	cands := r.candidates[:0]
	if lister, ok := r.mapper.(candidateLister); ok {
		cands = lister.AppendRMsWithout(cands, f)
	} else {
		cands = append(cands, r.mapper.RMsWithout(f)...)
	}
	if i, found := slices.BinarySearch(cands, self); found {
		cands = slices.Delete(cands, i, i+1)
	}
	r.candidates = cands
	if len(cands) == 0 {
		return attemptNone
	}
	var src rng.Source
	r.src.SplitInto(&src, attemptStream.AddUint64(r.agentRuns).AddUint64(uint64(f)))
	order := cfg.Dest.Order(cands, r.peerCapacity, &src, &r.destScratch)

	type started struct {
		rep ids.ReplicationID
		dst ecnp.Provider
	}
	var transfers []started
	for _, dstID := range order {
		if len(transfers) >= want {
			break
		}
		dst, ok := r.dir.Provider(dstID)
		if !ok {
			continue
		}
		// Reserve the replica slot globally before offering the copy.
		if err := r.mapper.BeginReplication(f, dstID, maxTotal); err != nil {
			// The cap is a property of the file, not of dstID, and a
			// refused reservation changes nothing: every later
			// destination would get the same answer, so the walk ends
			// here and keeps the transfers it started.
			if errors.Is(err, ecnp.ErrReplicaCap) {
				break
			}
			continue
		}
		rep := r.nextRepID()
		offer := ecnp.ReplicaOffer{
			Replication: rep,
			File:        f,
			SizeBytes:   meta.Size,
			Bitrate:     meta.Bitrate,
			DurationSec: meta.DurationSec,
			Rate:        cfg.Speed,
			Source:      self,
		}
		if dst.OfferReplica(offer) {
			transfers = append(transfers, started{rep: rep, dst: dst})
		} else {
			r.mapper.EndReplication(f, dstID, false)
		}
	}
	if len(transfers) == 0 {
		return attemptNone
	}

	// Commit the source side: reserve the transfer bandwidth, mark the
	// replication state and schedule the completions.
	r.mu.Lock()
	r.stats.RepTriggers++
	r.srcActive += len(transfers)
	r.outgoingFiles[f] += len(transfers)
	r.lastRep = now
	r.hasRepped = true
	if cfg.ChargeTransfers {
		for range transfers {
			r.led.Allocate(now, cfg.Speed)
		}
	}
	// state shared by this trigger's transfers: migration happens only
	// after the last copy finishes, and only if at least one committed.
	state := &transferGroup{remaining: len(transfers)}
	// migrate applies only if the bound is actually exceeded once the
	// accepted copies land.
	doMigrate := migrate && nCur+len(transfers) > cfg.Strategy.NMaxR
	r.mu.Unlock()

	dur := simtime.Duration(units.DurationSec(meta.Size, cfg.Speed))
	for _, tr := range transfers {
		tr := tr
		if r.copier == nil {
			// Timing-only transfer (the DES): the copy "completes" after
			// size/speed seconds of virtual time.
			r.sched.After(dur, func(done simtime.Time) {
				r.completeTransfer(done, f, tr.rep, tr.dst, state, doMigrate, true)
			})
			continue
		}
		// Live mode: move the actual bytes, paced at the replication
		// rate, and complete with the copy's real outcome.
		go func() {
			err := r.copier.CopyReplica(tr.dst.Info().ID, tr.rep, f, meta, cfg.Speed)
			r.completeTransfer(r.sched.Now(), f, tr.rep, tr.dst, state, doMigrate, err == nil)
		}()
	}
	return attemptStarted
}

// transferGroup tracks one trigger's outstanding copies.
type transferGroup struct {
	remaining int
	committed int
}

// completeTransfer finalizes one outbound copy. copied reports whether the
// bytes reached the destination; a failed copy aborts that destination's
// replica without affecting its siblings.
func (r *RM) completeTransfer(now simtime.Time, f ids.FileID, rep ids.ReplicationID, dst ecnp.Provider, state *transferGroup, migrate bool, copied bool) {
	// Resolve the reservation before releasing resources so a concurrent
	// lookup never observes the file with fewer holders than reality.
	committed := copied && r.mapper.EndReplication(f, dst.Info().ID, true) == nil
	if !copied {
		r.mapper.EndReplication(f, dst.Info().ID, false)
	}
	dst.FinishReplica(rep, committed)

	r.mu.Lock()
	if r.repCfg.ChargeTransfers {
		r.led.Release(now, r.repCfg.Speed)
	}
	r.srcActive--
	r.outgoingFiles[f]--
	if r.outgoingFiles[f] <= 0 {
		delete(r.outgoingFiles, f)
	}
	if committed {
		r.stats.RepTransfers++
		state.committed++
	}
	state.remaining--
	last := state.remaining == 0
	anyCommitted := state.committed > 0
	r.mu.Unlock()

	if last && migrate && anyCommitted {
		r.migrateOut(f)
	}
}

// migrateOut deletes the RM's own replica of f after a bound-exceeding
// replication, per the paper: "if the replication exceeds the upper bound
// of the number of replicas, the RM will delete the replica that exists on
// itself".
func (r *RM) migrateOut(f ids.FileID) {
	// The mapper refuses to drop the last replica; only delete locally
	// once the global map accepted the removal.
	if err := r.mapper.RemoveReplica(f, r.info.ID); err != nil {
		return
	}
	var remove func(ids.FileID)
	r.mu.Lock()
	if r.dropFileLocked(f) {
		r.stats.RepMigrations++
		remove = r.unlinkLocked(f)
	}
	r.mu.Unlock()
	if remove != nil {
		r.removeFromDisk(remove, f)
	}
}

// peerCapacity is the capacity lookup Dest.Order is handed: the registered
// bandwidth of a candidate destination.
func (r *RM) peerCapacity(id ids.RMID) units.BytesPerSec {
	p, ok := r.dir.Provider(id)
	if !ok {
		return 0
	}
	return p.Info().Capacity
}

func (r *RM) nextRepID() ids.ReplicationID {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.repSeq++
	return ids.ReplicationID(int64(r.info.ID)<<40 | r.repSeq)
}

var _ ecnp.Provider = (*RM)(nil)
