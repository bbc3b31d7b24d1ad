package mm

import (
	"slices"
	"sort"

	"dfsqos/internal/ids"
)

// LiveCount returns the number of currently-live registered RMs.
func (m *Manager) LiveCount() int { return m.live.LiveCount() }

// Alive reports whether id is registered and within its liveness window.
func (m *Manager) Alive(id ids.RMID) bool { return m.live.Alive(id) }

// LiveCount returns the number of live slots.
func (t *Liveness[K]) LiveCount() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.liveLocked(t.now())
}

// Epoch returns k's revival epoch: how many times it has come back from
// the dead (0 for a continuously-live slot or an unknown key).
func (t *Liveness[K]) Epoch(k K) uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if s := t.slotLocked(k); s != nil {
		return s.epoch
	}
	return 0
}

// SetLiveness arms RM failure detection on every shard (the resource
// list, and therefore the liveness table, is replicated).
func (m *ShardedManager) SetLiveness(cfg LivenessConfig) {
	for _, s := range m.members {
		s.Manager.SetLiveness(cfg)
	}
}

// FilesOn merges the per-shard file lists of one RM (replicated mappings
// appear once).
func (m *ShardedManager) FilesOn(rm ids.RMID) []ids.FileID {
	var out []ids.FileID
	for _, s := range m.members {
		out = append(out, s.Manager.FilesOn(rm)...)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// FilesOn returns the files with a replica on rm, sorted by file ID.
func (m *Manager) FilesOn(rm ids.RMID) []ids.FileID {
	m.mu.RLock()
	defer m.mu.RUnlock()
	fs := m.placement.FilesOn(rm)
	sort.Slice(fs, func(i, j int) bool { return fs[i] < fs[j] })
	return fs
}

// OwnerOfFile routes a file ID.
func (r *Ring) OwnerOfFile(file int64) int {
	return r.Owner(mix64(uint64(file)))
}

// PendingCount reports in-flight replications of file (diagnostics).
func (m *Manager) PendingCount(file ids.FileID) int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.pending[file])
}

// Owner returns the shard owning the given key (successor point on the
// ring, wrapping at the top).
func (r *Ring) Owner(key uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= key })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].shard
}
