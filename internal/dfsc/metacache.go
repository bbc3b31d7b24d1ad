package dfsc

import (
	"sync"
	"time"

	"dfsqos/internal/ids"
)

// MetaCache is the client-side metadata lease cache: file → replica-holder
// entries the MM answered recently, each valid for one TTL. While a lease
// is live the client opens the file without the MM round trip at all —
// hot-file opens stop paying the lookup RTT, and more importantly keep
// succeeding while the file's metadata shard is dead. The TTL is the
// invalidation lease: the client never trusts an entry longer than that,
// so a replica-set change (failover re-placement, shard handoff) is
// picked up within one TTL without any server-pushed invalidation
// channel. A failed open invalidates the entry immediately — the cached
// set routed the client at a replica that refused or died, so it
// re-resolves instead of retrying a stale answer.
type MetaCache struct {
	mu      sync.Mutex
	ttl     time.Duration
	now     func() time.Time
	entries map[ids.FileID]metaEntry
}

type metaEntry struct {
	holders []ids.RMID
	expires time.Time
}

// NewMetaCache builds a cache whose leases last ttl (must be positive).
func NewMetaCache(ttl time.Duration) *MetaCache {
	return &MetaCache{
		ttl:     ttl,
		now:     time.Now,
		entries: make(map[ids.FileID]metaEntry),
	}
}

// SetClock overrides the wall-clock source (tests). nil restores time.Now.
func (c *MetaCache) SetClock(now func() time.Time) {
	if now == nil {
		now = time.Now
	}
	c.mu.Lock()
	c.now = now
	c.mu.Unlock()
}

// Get returns the live lease for file, if any. Expired entries are
// dropped on the way out. The returned slice is a copy.
func (c *MetaCache) Get(file ids.FileID) ([]ids.RMID, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[file]
	if !ok {
		return nil, false
	}
	if c.now().After(e.expires) {
		delete(c.entries, file)
		return nil, false
	}
	out := make([]ids.RMID, len(e.holders))
	copy(out, e.holders)
	return out, true
}

// Put leases file's holder set for one TTL. Empty sets are not cached —
// a "no replica" answer must stay re-checkable, not negatively cached.
func (c *MetaCache) Put(file ids.FileID, holders []ids.RMID) {
	if len(holders) == 0 {
		return
	}
	cp := make([]ids.RMID, len(holders))
	copy(cp, holders)
	c.mu.Lock()
	c.entries[file] = metaEntry{holders: cp, expires: c.now().Add(c.ttl)}
	c.mu.Unlock()
}

// Invalidate drops file's lease, reporting whether one existed.
func (c *MetaCache) Invalidate(file ids.FileID) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[file]
	delete(c.entries, file)
	return ok
}
