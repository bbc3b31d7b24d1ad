package mm

import (
	"sync"
	"time"
)

// ShardHealth tracks the liveness of the shards in a metadata shard
// group. It is the shard-plane twin of the Manager's RM liveness table
// (PR 3): a shard that has not beaten within the configured deadline is
// dead, a beat (or an explicit revive) heals it and bumps its revival
// epoch, and every transition is latched so counters fire exactly once
// per incident.
//
// Two drivers feed it. The live deployment beats through Beat from the
// wire (KindShardBeat) and detects silence with Sweep; the in-process
// group (and the DES) toggles shards directly with SetDown, which needs
// no clock at all. Both compose: an explicitly downed shard is dead
// regardless of beats, matching a partitioned-but-running process.
type ShardHealth struct {
	mu  sync.Mutex
	n   int
	cfg LivenessConfig
	now func() time.Time
	// lastBeat stamps each shard's most recent beacon; a shard never
	// beaten is alive until the first Sweep past its deadline (it gets a
	// free stamp at construction, matching the RM registration grace).
	lastBeat []time.Time
	epochs   []uint64
	deadSeen []bool
	down     []bool
	met      *Metrics
}

// NewShardHealth tracks n shards. A zero cfg disables beat-expiry: only
// explicit SetDown marks kill a shard (the in-process mode).
func NewShardHealth(n int, cfg LivenessConfig) *ShardHealth {
	h := &ShardHealth{
		n:        n,
		cfg:      cfg,
		now:      time.Now,
		lastBeat: make([]time.Time, n),
		epochs:   make([]uint64, n),
		deadSeen: make([]bool, n),
		down:     make([]bool, n),
		met:      NewMetrics(nil),
	}
	start := h.now()
	for i := range h.lastBeat {
		h.lastBeat[i] = start
	}
	h.met.LiveShards.Set(float64(n))
	return h
}

// SetClock overrides the wall-clock source (tests). nil restores time.Now.
func (h *ShardHealth) SetClock(now func() time.Time) {
	if now == nil {
		now = time.Now
	}
	h.mu.Lock()
	h.now = now
	h.mu.Unlock()
}

// SetMetrics routes shard-transition telemetry (default: no-op).
func (h *ShardHealth) SetMetrics(m *Metrics) {
	if m == nil {
		m = NewMetrics(nil)
	}
	h.mu.Lock()
	h.met = m
	h.refreshGaugeLocked()
	h.mu.Unlock()
}

// Beat records a liveness beacon from shard i and reports whether the
// beat revived a previously-dead shard (the signal the live watcher
// turns into a heal handoff). Beats never clear an explicit SetDown.
func (h *ShardHealth) Beat(i int) (revived bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if i < 0 || i >= h.n {
		return false
	}
	wasDead := h.deadLocked(i, h.now())
	h.lastBeat[i] = h.now()
	if wasDead && !h.down[i] {
		h.epochs[i]++
		h.deadSeen[i] = false
		h.met.ShardRevivals.Inc()
		h.refreshGaugeLocked()
		return true
	}
	return false
}

// Stamp refreshes shard i's beacon without revival semantics: no epoch
// bump, no transition counter. A group member stamps its own slot this
// way each sweep — a running process is definitionally alive, never
// "revived", even when a stalled beat tick let its own deadline lapse.
func (h *ShardHealth) Stamp(i int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if i < 0 || i >= h.n {
		return
	}
	h.lastBeat[i] = h.now()
	if h.deadSeen[i] && !h.down[i] {
		h.deadSeen[i] = false
		h.refreshGaugeLocked()
	}
}

// SetDown toggles shard i's explicit down mark (the in-process kill and
// revive). Reviving restores the beat stamp so beat-expiry does not
// immediately re-kill it, bumps the epoch and reports true; marking an
// already-down shard (or reviving a live one) reports false.
func (h *ShardHealth) SetDown(i int, down bool) (transitioned bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if i < 0 || i >= h.n || h.down[i] == down {
		return false
	}
	h.down[i] = down
	if down {
		if !h.deadSeen[i] {
			h.deadSeen[i] = true
			h.met.ShardDeaths.Inc()
		}
	} else {
		h.lastBeat[i] = h.now()
		h.epochs[i]++
		h.deadSeen[i] = false
		h.met.ShardRevivals.Inc()
	}
	h.refreshGaugeLocked()
	return true
}

// Alive reports whether shard i is currently live.
func (h *ShardHealth) Alive(i int) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if i < 0 || i >= h.n {
		return false
	}
	return !h.deadLocked(i, h.now())
}

// firstLive is the group's first-live-owner rule: the first shard of walk,
// skip excluded, that is alive or is self (-1: no self); -1 if none is.
func (h *ShardHealth) firstLive(walk []int, self, skip int) int {
	for _, o := range walk {
		if o != skip && (o == self || h.Alive(o)) {
			return o
		}
	}
	return -1
}

// deadLocked is the raw liveness predicate. Caller holds h.mu.
func (h *ShardHealth) deadLocked(i int, now time.Time) bool {
	if h.down[i] {
		return true
	}
	if !h.cfg.Enabled() {
		return false
	}
	return now.Sub(h.lastBeat[i]) > h.cfg.Deadline()
}

// Sweep latches shards that crossed their beat deadline since the last
// call and returns the newly-dead ones in ascending index order — the
// live watcher's per-tick death detector. With beat-expiry disabled it
// returns nil.
func (h *ShardHealth) Sweep() []int {
	h.mu.Lock()
	defer h.mu.Unlock()
	if !h.cfg.Enabled() {
		return nil
	}
	now := h.now()
	var newly []int
	for i := 0; i < h.n; i++ {
		if h.deadLocked(i, now) && !h.deadSeen[i] {
			h.deadSeen[i] = true
			h.met.ShardDeaths.Inc()
			newly = append(newly, i)
		}
	}
	if len(newly) > 0 {
		h.refreshGaugeLocked()
	}
	return newly
}

// Epoch returns shard i's revival epoch: how many times it has come back
// from the dead (0 for a continuously-live shard).
func (h *ShardHealth) Epoch(i int) uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if i < 0 || i >= h.n {
		return 0
	}
	return h.epochs[i]
}

func (h *ShardHealth) liveCountLocked(now time.Time) int {
	live := 0
	for i := 0; i < h.n; i++ {
		if !h.deadLocked(i, now) {
			live++
		}
	}
	return live
}

// refreshGaugeLocked re-derives the live-shards gauge. Caller holds h.mu.
func (h *ShardHealth) refreshGaugeLocked() {
	h.met.LiveShards.Set(float64(h.liveCountLocked(h.now())))
}
