package mm

// The two liveness tables Liveness replaced, kept as the reference model
// TestLivenessMatchesReference checks it against: the Manager's RM
// liveness methods and the shard group's ShardHealth, with their bodies
// as they were.

import (
	"slices"
	"sync"
	"time"

	"dfsqos/internal/ids"
	"dfsqos/internal/telemetry"
)

// refMetrics is the telemetry the reference models write as they go, the
// oracle for the counts the table keeps. The table's live and registered
// counts are checked against the models' own reads.
type refMetrics struct {
	deaths, revivals, heartbeats telemetry.Counter
}

// refRMLiveness is the reference model of the RM table: the Manager's
// liveness fields and methods (registration reduced to its liveness part:
// a first registration stamps, a repeated one revives).
type refRMLiveness struct {
	mu    sync.RWMutex
	rms   map[ids.RMID]bool
	order []ids.RMID

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

	met *refMetrics
}

func newRefRMLiveness(cfg LivenessConfig, now func() time.Time, met *refMetrics) *refRMLiveness {
	return &refRMLiveness{
		rms:      make(map[ids.RMID]bool),
		liveCfg:  cfg,
		now:      now,
		lastBeat: make(map[ids.RMID]time.Time),
		epochs:   make(map[ids.RMID]uint64),
		deadSeen: make(map[ids.RMID]bool),
		met:      met,
	}
}

// register is RegisterRM's liveness part.
func (m *refRMLiveness) register(id ids.RMID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.rms[id] {
		m.rms[id] = true
		i, _ := slices.BinarySearch(m.order, id)
		m.order = slices.Insert(m.order, i, id)
	}
	m.reviveLocked(id, m.now())
}

// aliveLocked reports whether id is within its liveness deadline; with
// liveness disabled every registered RM is alive. It also latches the
// first observation of a death so the transition counters fire exactly
// once per incident. Caller holds m.mu (write for the latch; callers
// under RLock pass latch=false).
func (m *refRMLiveness) aliveLocked(id ids.RMID, now time.Time, latch bool) bool {
	if !m.liveCfg.Enabled() {
		return true
	}
	last, ok := m.lastBeat[id]
	if ok && now.Sub(last) <= m.liveCfg.Deadline() {
		return true
	}
	if latch && !m.deadSeen[id] {
		m.deadSeen[id] = true
		m.met.deaths.Inc()
	}
	return false
}

// reviveLocked stamps a fresh beat for id and, when the RM had actually
// died (latched by a query, or silently — detected by timestamp), bumps
// its liveness epoch. A first registration or an in-window beat leaves
// the epoch alone: epoch 0 means "never seen dead". Caller holds m.mu
// for writing.
func (m *refRMLiveness) reviveLocked(id ids.RMID, now time.Time) {
	if last, known := m.lastBeat[id]; known && m.liveCfg.Enabled() &&
		(m.deadSeen[id] || now.Sub(last) > m.liveCfg.Deadline()) {
		m.epochs[id]++
		delete(m.deadSeen, id)
		m.met.revivals.Inc()
	}
	m.lastBeat[id] = now
	m.latchLiveLocked(now) // a revival reads the live count, latching what died
}

// latchLiveLocked counts live RMs, latching newly-observed deaths in
// ascending RM-ID order — map-order iteration here made the death-latch
// sequence (and with it any fault armed on a transition count)
// irreproducible across runs of the same seed. Caller holds m.mu.
func (m *refRMLiveness) latchLiveLocked(now time.Time) int {
	live := 0
	for _, id := range m.order {
		if m.aliveLocked(id, now, true) {
			live++
		}
	}
	return live
}

// Heartbeat records a liveness beacon from id. An unknown RM is refused.
func (m *refRMLiveness) Heartbeat(id ids.RMID) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.rms[id] {
		return false
	}
	m.met.heartbeats.Inc()
	m.reviveLocked(id, m.now())
	return true
}

// Epoch returns id's liveness epoch: how many times the MM has seen it
// come back from the dead (0 for a continuously-live RM).
func (m *refRMLiveness) Epoch(id ids.RMID) uint64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.epochs[id]
}

// LiveCount returns the number of currently-live registered RMs.
func (m *refRMLiveness) LiveCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.latchLiveLocked(m.now())
}

// Alive reports whether id is registered and within its liveness window.
func (m *refRMLiveness) Alive(id ids.RMID) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.rms[id] {
		return false
	}
	return m.aliveLocked(id, m.now(), true)
}

// refShardHealth is the reference model of the shard table: the shard
// group's liveness table as it stood before it and the Manager's RM
// liveness merged into Liveness. A shard that has not beaten within the
// configured deadline is dead, a beat (or an explicit revive) heals it
// and bumps its revival epoch, and every transition is latched so
// counters fire exactly once per incident.
//
// Two drivers feed it. The live deployment beats through Beat from the
// wire (KindShardBeat) and detects silence with Sweep; the in-process
// group (and the DES) toggles shards directly with SetDown, which needs
// no clock at all. Both compose: an explicitly downed shard is dead
// regardless of beats, matching a partitioned-but-running process.
type refShardHealth struct {
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
	met      *refMetrics
}

// newRefShardHealth tracks n shards. A zero cfg disables beat-expiry: only
// explicit SetDown marks kill a shard (the in-process mode).
func newRefShardHealth(n int, cfg LivenessConfig) *refShardHealth {
	h := &refShardHealth{
		n:        n,
		cfg:      cfg,
		now:      time.Now,
		lastBeat: make([]time.Time, n),
		epochs:   make([]uint64, n),
		deadSeen: make([]bool, n),
		down:     make([]bool, n),
		met:      new(refMetrics),
	}
	start := h.now()
	for i := range h.lastBeat {
		h.lastBeat[i] = start
	}
	return h
}

// SetClock overrides the wall-clock source (tests). nil restores time.Now.
func (h *refShardHealth) SetClock(now func() time.Time) {
	if now == nil {
		now = time.Now
	}
	h.mu.Lock()
	h.now = now
	h.mu.Unlock()
}

// SetMetrics routes the model's shard telemetry to m.
func (h *refShardHealth) SetMetrics(m *refMetrics) {
	if m == nil {
		m = new(refMetrics)
	}
	h.mu.Lock()
	h.met = m
	h.mu.Unlock()
}

// Beat records a liveness beacon from shard i and reports whether the
// beat revived a previously-dead shard (the signal the live watcher
// turns into a heal handoff). Beats never clear an explicit SetDown.
func (h *refShardHealth) Beat(i int) (revived bool) {
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
		h.met.revivals.Inc()
		return true
	}
	return false
}

// Stamp refreshes shard i's beacon without revival semantics: no epoch
// bump, no transition counter. A group member stamps its own slot this
// way each sweep — a running process is definitionally alive, never
// "revived", even when a stalled beat tick let its own deadline lapse.
func (h *refShardHealth) Stamp(i int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if i < 0 || i >= h.n {
		return
	}
	h.lastBeat[i] = h.now()
	if h.deadSeen[i] && !h.down[i] {
		h.deadSeen[i] = false
	}
}

// SetDown toggles shard i's explicit down mark (the in-process kill and
// revive). Reviving restores the beat stamp so beat-expiry does not
// immediately re-kill it, bumps the epoch and reports true; marking an
// already-down shard (or reviving a live one) reports false.
func (h *refShardHealth) SetDown(i int, down bool) (transitioned bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if i < 0 || i >= h.n || h.down[i] == down {
		return false
	}
	h.down[i] = down
	if down {
		if !h.deadSeen[i] {
			h.deadSeen[i] = true
			h.met.deaths.Inc()
		}
	} else {
		h.lastBeat[i] = h.now()
		h.epochs[i]++
		h.deadSeen[i] = false
		h.met.revivals.Inc()
	}
	return true
}

// Alive reports whether shard i is currently live.
func (h *refShardHealth) Alive(i int) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if i < 0 || i >= h.n {
		return false
	}
	return !h.deadLocked(i, h.now())
}

// deadLocked is the raw liveness predicate. Caller holds h.mu.
func (h *refShardHealth) deadLocked(i int, now time.Time) bool {
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
func (h *refShardHealth) Sweep() []int {
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
			h.met.deaths.Inc()
			newly = append(newly, i)
		}
	}
	return newly
}

// Epoch returns shard i's revival epoch: how many times it has come back
// from the dead (0 for a continuously-live shard).
func (h *refShardHealth) Epoch(i int) uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if i < 0 || i >= h.n {
		return 0
	}
	return h.epochs[i]
}

func (h *refShardHealth) liveCountLocked(now time.Time) int {
	live := 0
	for i := 0; i < h.n; i++ {
		if !h.deadLocked(i, now) {
			live++
		}
	}
	return live
}
