package mm

import (
	"cmp"
	"slices"
	"sync"
	"time"
)

// LivenessConfig arms beat expiry on a liveness table: a slot that has not
// beaten within MissThreshold × HeartbeatInterval is dead. On the RM table
// a dead RM is excluded from every query answer — Lookup (the readdir
// answer), RMsWithout (replication destinations) and RMs (the resource
// list) — until a beat or re-registration heals it. The zero value
// disables expiry entirely, which keeps the DES and all pre-liveness
// behavior byte-identical.
type LivenessConfig struct {
	// HeartbeatInterval is the cadence slots are expected to beat at.
	HeartbeatInterval time.Duration
	// MissThreshold is how many consecutive missed beats mark a slot dead.
	MissThreshold int
}

// Enabled reports whether the config actually tracks liveness.
func (c LivenessConfig) Enabled() bool {
	return c.HeartbeatInterval > 0 && c.MissThreshold > 0
}

// Deadline is the silence beyond which a slot is considered dead.
func (c LivenessConfig) Deadline() time.Duration {
	return time.Duration(c.MissThreshold) * c.HeartbeatInterval
}

// Liveness is the one liveness table of the metadata plane: every Manager
// keeps one over its registered RMs, and a shard group one over its
// members. A slot is dead while it is marked down or, with expiry armed,
// silent past the deadline.
//
// Reads (Alive, and the counts the MM's series read at a scrape: slots,
// live slots, deaths and revivals) change nothing. Sweep latches the
// slots that died since the last sweep, in ascending key order, counting
// each death once; a caller sweeps on a ticker. A Beat that finds its
// slot dead revives it: the death is counted if no sweep saw it, then the
// revival. Stamp refreshes a slot with no revival, and SetDown marks one
// down or revives it outright.
//
// Slots sit in one slice ascending by key and are found by binary search,
// so a key's value — an RM ID off the wire — never sizes an allocation.
// With expiry off the live count is the slots not marked down, so
// registering n slots costs O(n) in all, not a scan per slot.
type Liveness[K ~int | ~int32] struct {
	mu sync.RWMutex
	// expiry is the armed LivenessConfig's deadline; 0 disables expiry.
	expiry time.Duration
	now    func() time.Time
	slots  []liveSlot[K]
	downs  int // slots marked down
	// deaths and revivals count the transitions, each death once.
	deaths, revivals uint64
}

type liveSlot[K ~int | ~int32] struct {
	key  K
	last time.Time // most recent beat or stamp
	// latched marks a death already counted, so a death is counted once
	// per incident however often it is seen.
	latched bool
	down    bool // explicit down mark: dead whatever the beats say
}

func newLiveness[K ~int | ~int32](cfg LivenessConfig) *Liveness[K] {
	t := &Liveness[K]{now: time.Now}
	t.setConfig(cfg)
	return t
}

// NewShardLiveness tracks shards 0..n-1, each stamped at construction (a
// member that never beat is alive until its first deadline passes). A
// zero cfg disables beat expiry: only SetDown kills a shard, which is how
// the in-process group and the DES drive it.
func NewShardLiveness(n int, cfg LivenessConfig) *Liveness[int] {
	t := newLiveness[int](cfg)
	for i := range n {
		t.add(i)
	}
	return t
}

// SetClock overrides the wall-clock source (tests drive liveness with a
// fake clock for determinism). nil restores time.Now.
func (t *Liveness[K]) SetClock(now func() time.Time) {
	if now == nil {
		now = time.Now
	}
	t.mu.Lock()
	t.now = now
	t.mu.Unlock()
}

func (t *Liveness[K]) setConfig(cfg LivenessConfig) {
	var expiry time.Duration
	if cfg.Enabled() {
		expiry = cfg.Deadline()
	}
	t.mu.Lock()
	t.expiry = expiry
	t.mu.Unlock()
}

// add inserts a slot for k stamped now; an existing slot is left alone.
func (t *Liveness[K]) add(k K) {
	t.mu.Lock()
	defer t.mu.Unlock()
	i, found := slices.BinarySearchFunc(t.slots, k, cmpKey[K])
	if !found {
		t.slots = slices.Insert(t.slots, i, liveSlot[K]{key: k, last: t.now()})
	}
}

func cmpKey[K ~int | ~int32](s liveSlot[K], k K) int { return cmp.Compare(s.key, k) }

// slotLocked returns k's slot, nil if the table has none. Caller holds t.mu.
func (t *Liveness[K]) slotLocked(k K) *liveSlot[K] {
	if i, found := slices.BinarySearchFunc(t.slots, k, cmpKey[K]); found {
		return &t.slots[i]
	}
	return nil
}

// deadLocked is the liveness predicate. Caller holds t.mu.
func (t *Liveness[K]) deadLocked(s *liveSlot[K], now time.Time) bool {
	return s.down || (t.expiry > 0 && now.Sub(s.last) > t.expiry)
}

// aliveLocked reports whether k has a slot and it is live at now. Caller
// holds t.mu.
func (t *Liveness[K]) aliveLocked(k K, now time.Time) bool {
	s := t.slotLocked(k)
	return s != nil && !t.deadLocked(s, now)
}

// latchLocked counts s's death unless it already was. Caller holds t.mu
// for writing.
func (t *Liveness[K]) latchLocked(s *liveSlot[K]) bool {
	if s.latched {
		return false
	}
	s.latched = true
	t.deaths++
	return true
}

// reviveLocked brings dead s back at now: its death counted (once), then
// the revival. Caller holds t.mu for writing.
func (t *Liveness[K]) reviveLocked(s *liveSlot[K], now time.Time) {
	t.latchLocked(s)
	s.last = now
	s.latched = false
	t.revivals++
}

func (t *Liveness[K]) liveLocked(now time.Time) int {
	if t.expiry == 0 {
		return len(t.slots) - t.downs
	}
	live := 0
	for i := range t.slots {
		if !t.deadLocked(&t.slots[i], now) {
			live++
		}
	}
	return live
}

// Beat records a beacon from k and reports whether it revived a dead slot
// (the signal a shard member turns into a heal handoff). A beat never
// clears an explicit down mark, and an unknown key is ignored.
func (t *Liveness[K]) Beat(k K) (revived bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.slotLocked(k)
	if s == nil {
		return false
	}
	now := t.now()
	if t.deadLocked(s, now) && !s.down {
		t.reviveLocked(s, now)
		return true
	}
	s.last = now
	return false
}

// Stamp refreshes k's beacon without revival semantics: no transition
// counted. A group member stamps its own slot this way each
// sweep — a running process is definitionally alive, never "revived",
// even when a stalled tick let its own deadline lapse.
func (t *Liveness[K]) Stamp(k K) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.slotLocked(k)
	if s == nil {
		return
	}
	s.last = t.now()
	if !s.down {
		s.latched = false
	}
}

// SetDown toggles k's explicit down mark (the in-process kill and
// revive). Marking down counts the death; reviving restores the beat
// stamp so expiry does not kill it again at once, counts the revival and
// reports true. Marking a down slot down again, reviving a slot that is
// not down, or naming an unknown key reports false.
func (t *Liveness[K]) SetDown(k K, down bool) (transitioned bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.slotLocked(k)
	if s == nil || s.down == down {
		return false
	}
	s.down = down
	now := t.now()
	if down {
		t.downs++
		t.latchLocked(s)
	} else {
		t.downs--
		t.reviveLocked(s, now)
	}
	return true
}

// Sweep latches the slots that died since the last sweep and returns the
// newly dead keys in ascending order.
func (t *Liveness[K]) Sweep() []K {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now()
	var newly []K
	for i := range t.slots {
		if s := &t.slots[i]; t.deadLocked(s, now) && t.latchLocked(s) {
			newly = append(newly, s.key)
		}
	}
	return newly
}

// Alive reports whether k has a slot and it is live.
func (t *Liveness[K]) Alive(k K) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.aliveLocked(k, t.now())
}

// liveCounts is what a table publishes: its slots, the live ones, and
// the transitions it has counted.
type liveCounts struct {
	slots, live      int
	deaths, revivals uint64
}

// counts reads the table's liveCounts at now.
func (t *Liveness[K]) counts() liveCounts {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return liveCounts{len(t.slots), t.liveLocked(t.now()), t.deaths, t.revivals}
}

// keepLive returns the entries of s whose key is alive, appended to dst:
// dst is s[:0] to filter in place, or nil to leave s untouched. With
// expiry off it returns s as is, so the DES and every unarmed deployment
// pay one read lock per query and no per-entry work.
func keepLive[K ~int | ~int32, E any](t *Liveness[K], dst, s []E, key func(E) K) []E {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.expiry == 0 {
		return s
	}
	now := t.now()
	out := dst
	for _, e := range s {
		if t.aliveLocked(key(e), now) {
			out = append(out, e)
		}
	}
	return out
}

// firstLive is the group's first-live-owner rule: the first key of walk,
// skip excluded, that is alive or is self (-1: no self); -1 if none is.
func (t *Liveness[K]) firstLive(walk []K, self, skip K) K {
	for _, o := range walk {
		if o != skip && (o == self || t.Alive(o)) {
			return o
		}
	}
	return -1
}
