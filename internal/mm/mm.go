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
	// live is the RM liveness table: a slot per registered RM, inert
	// unless SetLiveness arms expiry. A re-registration or heartbeat that
	// revives a dead RM bumps its epoch, so observers can tell "still the
	// same incarnation" from "came back".
	live *Liveness[ids.RMID]

	met *Metrics
}

// New returns an empty Metadata Manager.
func New() *Manager {
	met := NewMetrics(nil)
	return &Manager{
		rms:       make(map[ids.RMID]ecnp.RMInfo),
		placement: catalog.NewPlacement(),
		pending:   make(map[ids.FileID]map[ids.RMID]bool),
		live:      newLiveness[ids.RMID](LivenessConfig{}, rmSeries, met),
		met:       met,
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
func (m *Manager) SetLiveness(cfg LivenessConfig) { m.live.setConfig(cfg) }

// SetClock overrides the wall-clock source (tests drive liveness with a
// fake clock for determinism). nil restores time.Now.
func (m *Manager) SetClock(now func() time.Time) { m.live.SetClock(now) }

// SetMetrics routes MM telemetry (default: no-op).
func (m *Manager) SetMetrics(met *Metrics) {
	if met == nil {
		met = NewMetrics(nil)
	}
	m.mu.Lock()
	m.met = met
	m.mu.Unlock()
	m.live.SetMetrics(met)
}

// Heartbeat records a liveness beacon from id. An unknown RM is refused —
// the beat cannot resurrect a registration the MM never saw (or dropped),
// which forces the RM through RegisterRM and the file-list reconcile that
// comes with it.
func (m *Manager) Heartbeat(id ids.RMID) error {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if _, ok := m.rms[id]; !ok {
		return fmt.Errorf("mm: heartbeat from unregistered %v", id)
	}
	m.met.Heartbeats.Inc()
	m.live.Beat(id)
	return nil
}

// Sweep latches the RMs that died since the last sweep and refreshes the
// live gauge. A daemon with liveness armed calls it every beat interval.
func (m *Manager) Sweep() { m.live.Sweep() }

// Epoch returns id's liveness epoch: how many times the MM has seen it
// come back from the dead (0 for a continuously-live RM).
func (m *Manager) Epoch(id ids.RMID) uint64 { return m.live.Epoch(id) }

// LiveCount returns the number of currently-live registered RMs.
func (m *Manager) LiveCount() int { return m.live.LiveCount() }

// Alive reports whether id is registered and within its liveness window.
func (m *Manager) Alive(id ids.RMID) bool { return m.live.Alive(id) }

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
	if known {
		m.live.Beat(info.ID)
	} else {
		m.live.add(info.ID)
	}
	return nil
}

// Lookup implements ecnp.Mapper: the live RMs holding a replica of file,
// in ascending RM order for determinism. With liveness enabled, dead
// holders are excluded — the readdir answer never routes a requester at a
// crashed RM, so negotiations stop burning their deadline on it.
func (m *Manager) Lookup(file ids.FileID) []ids.RMID {
	m.mu.RLock()
	defer m.mu.RUnlock()
	hs := keepLive(m.live, m.placement.Holders(file), rmKey)
	slices.Sort(hs)
	return hs
}

func rmKey(id ids.RMID) ids.RMID { return id }

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
	return dst[:start+len(keepLive(m.live, dst[start:], rmKey))]
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
	return nil
}

// BeginReplication implements ecnp.Mapper. A refusal is one of the ecnp
// sentinels and one counter increment: the source-side agent asks on
// every access of an RM under B_TH, so a refusal formats nothing.
func (m *Manager) BeginReplication(file ids.FileID, rm ids.RMID, maxTotal int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	var why ecnp.Refusal
	switch _, registered := m.rms[rm]; {
	case !registered:
		why = ecnp.ErrUnregisteredRM
	case m.placement.Has(file, rm):
		why = ecnp.ErrAlreadyHolds
	case m.pending[file][rm]:
		why = ecnp.ErrAlreadyReceiving
	case maxTotal > 0 && m.placement.Degree(file)+len(m.pending[file]) >= maxTotal:
		why = ecnp.ErrReplicaCap
	}
	if why != 0 {
		m.met.Refused[why].Inc()
		return why
	}
	if m.pending[file] == nil {
		m.pending[file] = make(map[ids.RMID]bool)
	}
	m.pending[file][rm] = true
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

// RMs implements ecnp.Mapper: the resource list in ascending RM order.
// With liveness enabled only live RMs appear — a crashed RM falls out of
// the union "of the resource information provided by all of the
// registered RMs" within the miss threshold and returns on re-registration
// or a late heartbeat.
func (m *Manager) RMs() []ecnp.RMInfo {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]ecnp.RMInfo, 0, len(m.order))
	for _, id := range m.order {
		out = append(out, m.rms[id])
	}
	return keepLive(m.live, out, func(info ecnp.RMInfo) ids.RMID { return info.ID })
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
	return added, nil
}

// Validate checks replica-map invariants (delegates to the placement).
func (m *Manager) Validate() error {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.placement.Validate()
}

var _ ecnp.Mapper = (*Manager)(nil)
