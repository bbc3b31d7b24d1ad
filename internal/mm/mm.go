// Package mm implements the Metadata Manager — the Mapper (matchmaker) role
// of the ECNP model. It maintains the global resource list as "the union of
// the resource information provided by all of the registered RMs" and the
// file → replica map, and answers two queries: the requester's resource
// lookup and the replication source's inverse lookup (RMs holding no
// replica of a file).
//
// The manager is safe for concurrent use: in live mode many TCP sessions
// query it at once, and even in the DES it is shared by all actors.
package mm

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"dfsqos/internal/catalog"
	"dfsqos/internal/ecnp"
	"dfsqos/internal/ids"
)

// LivenessConfig arms failure detection on the global resource list: an
// RM that has not heartbeated (or re-registered) within
// MissThreshold × HeartbeatInterval is excluded from every query answer —
// Lookup (the readdir answer), RMsWithout (replication destinations) and
// RMs (the resource list) — until a beat or re-registration heals it.
// The zero value disables liveness entirely, which keeps the DES and all
// pre-liveness behavior byte-identical.
type LivenessConfig struct {
	// HeartbeatInterval is the cadence RMs are expected to beat at.
	HeartbeatInterval time.Duration
	// MissThreshold is how many consecutive missed beats mark an RM dead.
	MissThreshold int
}

// Enabled reports whether the config actually tracks liveness.
func (c LivenessConfig) Enabled() bool {
	return c.HeartbeatInterval > 0 && c.MissThreshold > 0
}

// Deadline is the silence beyond which an RM is considered dead.
func (c LivenessConfig) Deadline() time.Duration {
	return time.Duration(c.MissThreshold) * c.HeartbeatInterval
}

// Manager is the Metadata Manager.
type Manager struct {
	mu  sync.RWMutex
	rms map[ids.RMID]ecnp.RMInfo
	// order holds the keys of rms in ascending order. RegisterRM inserts
	// into it in the same critical section as the map write, so every
	// query that answers in RM order walks it instead of collecting and
	// sorting the map.
	order     []ids.RMID
	placement *catalog.Placement
	// pending tracks in-flight replication destinations per file. A
	// pending entry counts toward ReplicaCount, which is how concurrent
	// replication sources are prevented from overshooting N_MAXR, and it
	// blocks a second source from targeting the same destination.
	pending map[ids.FileID]map[ids.RMID]bool
	// version increments on every mutation, providing the consistency
	// token that resource registration is validated against.
	version uint64

	// Liveness state (inert unless liveCfg.Enabled()).
	liveCfg  LivenessConfig
	now      func() time.Time
	lastBeat map[ids.RMID]time.Time
	// epochs counts each RM's dead→live transitions; a heartbeat or
	// registration that revives a dead RM bumps its epoch, so observers
	// can distinguish "still the same incarnation" from "came back".
	epochs map[ids.RMID]uint64
	// deadSeen marks RMs already observed (and counted) as dead, so the
	// death counter fires once per transition, not once per query.
	deadSeen map[ids.RMID]bool

	met *Metrics
}

// New returns an empty Metadata Manager.
func New() *Manager {
	return &Manager{
		rms:       make(map[ids.RMID]ecnp.RMInfo),
		placement: catalog.NewPlacement(),
		pending:   make(map[ids.FileID]map[ids.RMID]bool),
		now:       time.Now,
		lastBeat:  make(map[ids.RMID]time.Time),
		epochs:    make(map[ids.RMID]uint64),
		deadSeen:  make(map[ids.RMID]bool),
		met:       NewMetrics(nil),
	}
}

// NewWithPlacement returns a manager pre-seeded with a static placement,
// the evaluation's "distribute these three replicas randomly into 16 RMs".
// The placement is deep-copied; the caller's copy stays untouched.
func NewWithPlacement(p *catalog.Placement) *Manager {
	m := New()
	m.placement = p.Clone()
	return m
}

// SetLiveness arms failure detection (see LivenessConfig). Call before
// traffic; a zero config disables tracking again.
func (m *Manager) SetLiveness(cfg LivenessConfig) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.liveCfg = cfg
}

// SetClock overrides the wall-clock source (tests drive liveness with a
// fake clock for determinism). nil restores time.Now.
func (m *Manager) SetClock(now func() time.Time) {
	if now == nil {
		now = time.Now
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.now = now
}

// SetMetrics routes MM telemetry (default: no-op).
func (m *Manager) SetMetrics(met *Metrics) {
	if met == nil {
		met = NewMetrics(nil)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.met = met
}

// aliveLocked reports whether id is within its liveness deadline; with
// liveness disabled every registered RM is alive. It also latches the
// first observation of a death so the transition counters fire exactly
// once per incident. Caller holds m.mu (write for the latch; callers
// under RLock pass latch=false).
func (m *Manager) aliveLocked(id ids.RMID, now time.Time, latch bool) bool {
	if !m.liveCfg.Enabled() {
		return true
	}
	last, ok := m.lastBeat[id]
	if ok && now.Sub(last) <= m.liveCfg.Deadline() {
		return true
	}
	if latch && !m.deadSeen[id] {
		m.deadSeen[id] = true
		m.met.Deaths.Inc()
	}
	return false
}

// reviveLocked stamps a fresh beat for id and, when the RM had actually
// died (latched by a query, or silently — detected by timestamp), bumps
// its liveness epoch. A first registration or an in-window beat leaves
// the epoch alone: epoch 0 means "never seen dead". Caller holds m.mu
// for writing.
func (m *Manager) reviveLocked(id ids.RMID, now time.Time) {
	if last, known := m.lastBeat[id]; known && m.liveCfg.Enabled() &&
		(m.deadSeen[id] || now.Sub(last) > m.liveCfg.Deadline()) {
		m.epochs[id]++
		delete(m.deadSeen, id)
		m.met.Revivals.Inc()
	}
	m.lastBeat[id] = now
	m.refreshLiveGaugesLocked(now)
}

// refreshLiveGaugesLocked re-derives the registered/live gauges. Caller
// holds m.mu.
func (m *Manager) refreshLiveGaugesLocked(now time.Time) {
	m.met.RegisteredRMs.Set(float64(len(m.rms)))
	m.met.LiveRMs.Set(float64(m.latchLiveLocked(now)))
}

// latchLiveLocked counts live RMs, latching newly-observed deaths in
// ascending RM-ID order — map-order iteration here made the death-latch
// sequence (and with it any fault armed on a transition count)
// irreproducible across runs of the same seed. Caller holds m.mu.
func (m *Manager) latchLiveLocked(now time.Time) int {
	live := 0
	for _, id := range m.order {
		if m.aliveLocked(id, now, true) {
			live++
		}
	}
	return live
}

// Heartbeat records a liveness beacon from id. An unknown RM is refused —
// the beat cannot resurrect a registration the MM never saw (or dropped),
// which forces the RM through RegisterRM and the file-list reconcile that
// comes with it.
func (m *Manager) Heartbeat(id ids.RMID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.rms[id]; !ok {
		return fmt.Errorf("mm: heartbeat from unregistered %v", id)
	}
	m.met.Heartbeats.Inc()
	m.reviveLocked(id, m.now())
	return nil
}

// Epoch returns id's liveness epoch: how many times the MM has seen it
// come back from the dead (0 for a continuously-live RM).
func (m *Manager) Epoch(id ids.RMID) uint64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.epochs[id]
}

// LiveCount returns the number of currently-live registered RMs.
func (m *Manager) LiveCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.latchLiveLocked(m.now())
}

// Alive reports whether id is registered and within its liveness window.
func (m *Manager) Alive(id ids.RMID) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.rms[id]; !ok {
		return false
	}
	return m.aliveLocked(id, m.now(), true)
}

// RegisterRM implements ecnp.Mapper. Registering an already-known RM
// refreshes its info, resets its liveness state (a crashed RM that comes
// back starts a fresh epoch) and RECONCILES the reported file list: files
// the MM still attributes to this RM but the RM no longer reports are
// pruned from the replica map instead of lingering as stale entries that
// would route requests at a replica that is gone. (The placement layer
// refuses to drop a file's last replica — that entry is kept so the file
// stays reachable for a future re-upload or manual repair.)
func (m *Manager) RegisterRM(info ecnp.RMInfo, files []ids.FileID) error {
	if err := info.Validate(); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	_, known := m.rms[info.ID]
	m.rms[info.ID] = info
	if !known {
		i, _ := slices.BinarySearch(m.order, info.ID)
		m.order = slices.Insert(m.order, i, info.ID)
	}
	for _, f := range files {
		if !m.placement.Has(f, info.ID) {
			if err := m.placement.Add(f, info.ID); err != nil {
				return fmt.Errorf("mm: registering %v: %w", info.ID, err)
			}
		}
	}
	if known {
		// Re-registration: prune replica entries the RM no longer reports.
		reported := make(map[ids.FileID]bool, len(files))
		for _, f := range files {
			reported[f] = true
		}
		for _, f := range m.placement.FilesOn(info.ID) {
			if reported[f] {
				continue
			}
			if err := m.placement.Remove(f, info.ID); err == nil {
				m.met.ReconciledReplicas.Inc()
			}
		}
	}
	m.reviveLocked(info.ID, m.now())
	m.version++
	return nil
}

// Lookup implements ecnp.Mapper: the live RMs holding a replica of file,
// in ascending RM order for determinism. With liveness enabled, dead
// holders are excluded — the readdir answer never routes a requester at a
// crashed RM, so negotiations stop burning their deadline on it.
func (m *Manager) Lookup(file ids.FileID) []ids.RMID {
	m.mu.RLock()
	defer m.mu.RUnlock()
	hs := m.placement.Holders(file)
	hs = m.filterLiveLocked(hs)
	slices.Sort(hs)
	return hs
}

// filterLiveLocked drops dead RMs from s in place (no-op with liveness
// disabled). Caller holds m.mu (read suffices: no latching here).
func (m *Manager) filterLiveLocked(s []ids.RMID) []ids.RMID {
	if !m.liveCfg.Enabled() {
		return s
	}
	now := m.now()
	out := s[:0]
	for _, id := range s {
		if m.aliveLocked(id, now, false) {
			out = append(out, id)
		}
	}
	return out
}

// RMsWithout implements ecnp.Mapper: live registered RMs with neither a
// committed nor a pending replica of file, in ascending RM order. Dead
// RMs are excluded — offering a replica to a crashed destination would
// only waste the source's transfer budget.
//
// The source-side agent asks on every access of an RM under B_TH, so the
// answer is copied, not searched: the file's holders and pending
// destinations — its replica cap plus one at most — are looked up once
// and sorted, and the ordered resource list is copied in the runs between
// them, one binary search per excluded RM and no lookup per listed one.
func (m *Manager) RMsWithout(file ids.FileID) []ids.RMID {
	return m.AppendRMsWithout(nil, file)
}

// AppendRMsWithout appends RMsWithout(file) to dst: the candidate list
// into memory the caller owns, so an agent that keeps its buffer lists
// candidates without allocating.
func (m *Manager) AppendRMsWithout(dst []ids.RMID, file ids.FileID) []ids.RMID {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var buf [16]ids.RMID
	excl := m.placement.AppendHolders(buf[:0], file)
	for id := range m.pending[file] {
		excl = append(excl, id)
	}
	slices.Sort(excl)
	dst = slices.Grow(dst, len(m.order))
	start := len(dst)
	rest := m.order
	for _, id := range excl {
		i, found := slices.BinarySearch(rest, id)
		dst = append(dst, rest[:i]...)
		if found {
			i++
		}
		rest = rest[i:]
	}
	dst = append(dst, rest...)
	return dst[:start+len(m.filterLiveLocked(dst[start:]))]
}

// AddReplica implements ecnp.Mapper.
func (m *Manager) AddReplica(file ids.FileID, rm ids.RMID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.rms[rm]; !ok {
		return fmt.Errorf("mm: AddReplica to unregistered %v", rm)
	}
	if err := m.placement.Add(file, rm); err != nil {
		return err
	}
	m.version++
	return nil
}

// RemoveReplica implements ecnp.Mapper. Removing the last replica is
// refused by the placement layer: the file would become unreachable.
func (m *Manager) RemoveReplica(file ids.FileID, rm ids.RMID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.placement.Remove(file, rm); err != nil {
		return err
	}
	m.version++
	return nil
}

// BeginReplication implements ecnp.Mapper. A refusal is one of the ecnp
// sentinels and one counter increment: the source-side agent asks on
// every access of an RM under B_TH, so a refusal formats nothing.
func (m *Manager) BeginReplication(file ids.FileID, rm ids.RMID, maxTotal int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.rms[rm]; !ok {
		m.met.Refused.Unregistered.Inc()
		return ecnp.ErrUnregisteredRM
	}
	if m.placement.Has(file, rm) {
		m.met.Refused.Holds.Inc()
		return ecnp.ErrAlreadyHolds
	}
	if m.pending[file][rm] {
		m.met.Refused.Receiving.Inc()
		return ecnp.ErrAlreadyReceiving
	}
	if maxTotal > 0 && m.placement.Degree(file)+len(m.pending[file]) >= maxTotal {
		m.met.Refused.Cap.Inc()
		return ecnp.ErrReplicaCap
	}
	if m.pending[file] == nil {
		m.pending[file] = make(map[ids.RMID]bool)
	}
	m.pending[file][rm] = true
	m.version++
	return nil
}

// EndReplication implements ecnp.Mapper.
func (m *Manager) EndReplication(file ids.FileID, rm ids.RMID, commit bool) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.pending[file][rm] {
		return ecnp.ErrNoPendingReplication
	}
	delete(m.pending[file], rm)
	if len(m.pending[file]) == 0 {
		delete(m.pending, file)
	}
	m.version++
	if !commit {
		return nil
	}
	return m.placement.Add(file, rm)
}

// ReplicaCount implements ecnp.Mapper: committed plus pending replicas.
func (m *Manager) ReplicaCount(file ids.FileID) int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.placement.Degree(file) + len(m.pending[file])
}

// PendingCount reports in-flight replications of file (diagnostics).
func (m *Manager) PendingCount(file ids.FileID) int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.pending[file])
}

// RMs implements ecnp.Mapper: the resource list in ascending RM order.
// With liveness enabled only live RMs appear — a crashed RM falls out of
// the union "of the resource information provided by all of the
// registered RMs" within the miss threshold and returns on re-registration
// or a late heartbeat.
func (m *Manager) RMs() []ecnp.RMInfo {
	m.mu.RLock()
	defer m.mu.RUnlock()
	live := !m.liveCfg.Enabled()
	var now time.Time
	if !live {
		now = m.now()
	}
	out := make([]ecnp.RMInfo, 0, len(m.order))
	for _, id := range m.order {
		if !live && !m.aliveLocked(id, now, false) {
			continue
		}
		out = append(out, m.rms[id])
	}
	return out
}

// AllRMs returns every registered RM regardless of liveness (diagnostics
// and the monitor's resource-list page, which annotates aliveness).
func (m *Manager) AllRMs() []ecnp.RMInfo {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]ecnp.RMInfo, 0, len(m.order))
	for _, id := range m.order {
		out = append(out, m.rms[id])
	}
	return out
}

// RM returns the registration record of one RM.
func (m *Manager) RM(id ids.RMID) (ecnp.RMInfo, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	info, ok := m.rms[id]
	return info, ok
}

// Version returns the mutation counter (diagnostics and cache validation).
func (m *Manager) Version() uint64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.version
}

// FilesOn returns the files with a replica on rm, sorted by file ID.
func (m *Manager) FilesOn(rm ids.RMID) []ids.FileID {
	m.mu.RLock()
	defer m.mu.RUnlock()
	fs := m.placement.FilesOn(rm)
	sort.Slice(fs, func(i, j int) bool { return fs[i] < fs[j] })
	return fs
}

// Files returns every file in the replica map, sorted by file ID — the
// keyspace enumeration the shard handoff protocol walks.
func (m *Manager) Files() []ids.FileID {
	m.mu.RLock()
	defer m.mu.RUnlock()
	fs := m.placement.Files()
	sort.Slice(fs, func(i, j int) bool { return fs[i] < fs[j] })
	return fs
}

// Replicas returns file's committed holders in ascending RM order,
// regardless of liveness — the raw mapping a handoff batch carries, as
// opposed to Lookup's live-filtered answer.
func (m *Manager) Replicas(file ids.FileID) []ids.RMID {
	m.mu.RLock()
	defer m.mu.RUnlock()
	hs := m.placement.Holders(file)
	slices.Sort(hs)
	return hs
}

// AdoptReplicas merges holders into file's replica set, skipping entries
// already present — the idempotent application of one shard-handoff
// entry. Unlike RegisterRM it never prunes, so replaying a batch (or
// receiving overlapping takeover and heal pushes) converges instead of
// erroring. Holders must be registered RMs; it returns how many entries
// were actually new.
func (m *Manager) AdoptReplicas(file ids.FileID, holders []ids.RMID) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	added := 0
	for _, rm := range holders {
		if _, ok := m.rms[rm]; !ok {
			return added, fmt.Errorf("mm: adopting %v: unregistered %v", file, rm)
		}
		if m.placement.Has(file, rm) {
			continue
		}
		if err := m.placement.Add(file, rm); err != nil {
			return added, fmt.Errorf("mm: adopting %v: %w", file, err)
		}
		added++
	}
	if added > 0 {
		m.version++
	}
	return added, nil
}

// Validate checks replica-map invariants (delegates to the placement).
func (m *Manager) Validate() error {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.placement.Validate()
}

var _ ecnp.Mapper = (*Manager)(nil)
