// Package blkio is the stand-in for the cgroups-blkio throttling mechanism
// the paper uses to split one physical disk's bandwidth among Xen VMs
// (§III-A2): blkio.throttle.read_bps_device / write_bps_device "constrain
// the upper bound of the disk read/write bandwidth acquired by the
// designated process".
//
// The controller is a two-level, work-conserving bucket tree in the HTB
// style. Each named group owns, per direction, an *assured* token bucket
// (its admitted reservation — the guaranteed floor) and an optional *ceil*
// bucket (the borrow ceiling). A per-disk root bucket models the disk's
// spare capacity: every assured byte a group issues charges the root, so
// whatever refill the root accumulates beyond the aggregate assured demand
// is genuinely idle bandwidth. A group that has exhausted its assured
// allocation and has ceil headroom borrows that spare to keep running —
// up to its ceil — and the loan dries up by itself as soon as a sibling
// with assured headroom starts issuing again (AdapTBF-style pressure
// return): the sibling's assured charges drain the root, the borrower
// finds no spare, and its pacing falls back to its own assured refill.
// Assured traffic never waits on the root, so a group's floor cannot be
// dented by a neighbor's borrowing.
//
// Groups configured without a ceil (SetGroup, or Ceil == Assured) behave
// exactly like the original flat per-group bucket, and a controller whose
// root was never configured (SetRoot) lends nothing.
package blkio

import (
	"context"
	"fmt"
	"sync"
	"time"

	"dfsqos/internal/units"
)

// Op selects the read or write limit of a group.
type Op int

const (
	// Read is throttled by the group's read_bps limit.
	Read Op = iota
	// Write is throttled by the group's write_bps limit.
	Write
)

// String implements fmt.Stringer.
func (o Op) String() string {
	if o == Read {
		return "read"
	}
	return "write"
}

// bucket is a token bucket refilled continuously at rate tokens/second,
// holding at most burst tokens.
type bucket struct {
	rate   float64 // tokens (bytes) per second; 0 = unlimited
	burst  float64
	tokens float64
	last   time.Time
}

func newBucket(rate units.BytesPerSec, now time.Time) *bucket {
	return newBucketFrac(rate, now, 1)
}

// newBucketFrac builds a bucket holding frac of its burst, so a live
// reconfiguration carries the previous fill level over instead of granting
// a free burst window.
func newBucketFrac(rate units.BytesPerSec, now time.Time, frac float64) *bucket {
	b := &bucket{rate: float64(rate), last: now}
	// One second of burst keeps small I/Os smooth without letting the
	// long-run rate exceed the configured bps, like blkio's slice logic.
	b.burst = b.rate
	b.tokens = b.burst * frac
	return b
}

// refill credits the tokens accrued since the last touch, capped at burst.
func (b *bucket) refill(now time.Time) {
	if b.rate <= 0 {
		return
	}
	elapsed := now.Sub(b.last).Seconds()
	if elapsed > 0 {
		b.tokens += elapsed * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
		b.last = now
	}
}

// reserve takes n tokens and returns how long the caller must wait until
// the reservation is honoured. It never refuses: blkio.throttle delays
// I/O, it does not fail it.
func (b *bucket) reserve(n float64, now time.Time) time.Duration {
	if b.rate <= 0 {
		return 0 // unlimited
	}
	b.refill(now)
	b.tokens -= n
	if b.tokens >= 0 {
		return 0
	}
	return time.Duration(-b.tokens / b.rate * float64(time.Second))
}

// charge drains n tokens without ever queueing a delay: the root pool does
// not pace traffic (floors are the groups' business), it only bounds how
// much spare is left to lend. The debt floor of one burst keeps a long
// oversubscribed phase from suppressing borrowing long after load drops.
func (b *bucket) charge(n float64, now time.Time) {
	if b == nil || b.rate <= 0 {
		return
	}
	b.refill(now)
	b.tokens -= n
	if b.tokens < -b.burst {
		b.tokens = -b.burst
	}
}

// limit is one direction (read or write) of a group's QoS: assured meters
// the guaranteed floor, ceil (nil when there is no borrowing headroom)
// caps the group's total rate including borrowed tokens.
type limit struct {
	assured *bucket
	ceil    *bucket
}

// fillFrac reports how full the assured bucket is (0..1) so a
// reconfiguration can carry the level over. Unlimited limits count as full.
func (l *limit) fillFrac(now time.Time) float64 {
	if l == nil || l.assured == nil || l.assured.rate <= 0 || l.assured.burst <= 0 {
		return 1
	}
	l.assured.refill(now)
	frac := l.assured.tokens / l.assured.burst
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	return frac
}

func newLimit(assured, ceil units.BytesPerSec, now time.Time, old *limit) *limit {
	frac := 1.0
	if old != nil {
		frac = old.fillFrac(now)
	}
	l := &limit{assured: newBucketFrac(assured, now, frac)}
	if assured > 0 && ceil > assured {
		l.ceil = newBucketFrac(ceil, now, frac)
	}
	return l
}

// Group is one throttled entity: a VM's block device in the paper, or one
// admitted reservation in live stream-QoS mode.
type Group struct {
	name string
	mu   sync.Mutex
	r, w *limit
}

// GroupConfig is the full per-direction QoS of one group.
type GroupConfig struct {
	// ReadAssured and WriteAssured are the guaranteed floor rates
	// (0 = unlimited, which also disables borrowing for that direction).
	ReadAssured, WriteAssured units.BytesPerSec
	// ReadCeil and WriteCeil cap the direction's total rate including
	// borrowed root tokens. Zero, or a value equal to the assured rate,
	// makes the direction a flat (non-borrowing) bucket.
	ReadCeil, WriteCeil units.BytesPerSec
}

// Stats is a point-in-time snapshot of the controller's work-conserving
// accounting, aggregated across groups and directions.
type Stats struct {
	// AssuredBytes counts bytes admitted against groups' own assured
	// refill (immediately or after an assured-paced delay).
	AssuredBytes uint64
	// BorrowedBytes counts bytes covered by root-pool tokens lent past a
	// group's assured floor.
	BorrowedBytes uint64
	// Borrows counts reservations that obtained at least one borrowed
	// token.
	Borrows uint64
	// Reclaims counts reservations whose borrow demand was cut short
	// because sibling assured traffic had drained the pool — the moment
	// borrowed bandwidth is handed back under pressure.
	Reclaims uint64
	// ThrottleWaitSec accumulates the delays handed to callers.
	ThrottleWaitSec float64
}

// Controller manages the throttle groups of one physical disk.
type Controller struct {
	mu     sync.Mutex
	groups map[string]*Group
	clock  func() time.Time
	sleep  func(time.Duration)

	// rootMu is ordered after Group.mu and guards the lending pool, the
	// stats accumulators, and the metrics sink. The byte split is kept in
	// whole bytes, so assured + borrowed is exactly the bytes admitted.
	rootMu        sync.Mutex
	rootR, rootW  *bucket // nil = no lending pool for that direction
	assuredBytes  uint64
	borrowedBytes uint64
	borrows       uint64
	reclaims      uint64
	waitSec       float64
	met           *Metrics
}

// Option customizes a Controller (used by tests to fake time).
type Option func(*Controller)

// WithClock substitutes the wall clock.
func WithClock(clock func() time.Time) Option {
	return func(c *Controller) { c.clock = clock }
}

// WithSleep substitutes the sleeping function.
func WithSleep(sleep func(time.Duration)) Option {
	return func(c *Controller) { c.sleep = sleep }
}

// NewController returns an empty controller with no lending pool.
func NewController(opts ...Option) *Controller {
	c := &Controller{
		groups: make(map[string]*Group),
		clock:  time.Now,
		sleep:  time.Sleep,
	}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

// SetMetrics attaches a telemetry sink: m's series read the controller's
// Stats and group count from now on (see Metrics.Unbind), and its wait
// histogram observes the delays handed out. Nil attaches none.
func (c *Controller) SetMetrics(m *Metrics) {
	c.rootMu.Lock()
	c.met = m
	c.rootMu.Unlock()
	if m != nil {
		m.bind(c)
	}
}

// SetRoot configures the per-disk lending pool: the root bucket refills at
// the disk's capacity and whatever it accrues beyond the aggregate assured
// demand is lendable spare. A zero rate removes the pool for that
// direction, disabling borrowing.
func (c *Controller) SetRoot(readBps, writeBps units.BytesPerSec) error {
	if readBps < 0 || writeBps < 0 {
		return fmt.Errorf("blkio: negative root rate")
	}
	now := c.clock()
	c.rootMu.Lock()
	defer c.rootMu.Unlock()
	c.rootR, c.rootW = nil, nil
	if readBps > 0 {
		c.rootR = newBucket(readBps, now)
	}
	if writeBps > 0 {
		c.rootW = newBucket(writeBps, now)
	}
	return nil
}

// SetGroup creates or reconfigures a flat group with the given read/write
// byte-rate limits (0 = unlimited), mirroring writes to
// blkio.throttle.{read,write}_bps_device. The group gets no borrowing
// headroom; use SetGroupQoS for an assured/ceil pair.
func (c *Controller) SetGroup(name string, readBps, writeBps units.BytesPerSec) (*Group, error) {
	return c.SetGroupQoS(name, GroupConfig{ReadAssured: readBps, WriteAssured: writeBps})
}

// SetGroupQoS creates or reconfigures a group with an assured floor and a
// borrow ceil per direction. Reconfiguration carries the current bucket
// fill fraction over, so a live rate change neither grants a free burst
// nor strands earned tokens.
func (c *Controller) SetGroupQoS(name string, cfg GroupConfig) (*Group, error) {
	if name == "" {
		return nil, fmt.Errorf("blkio: empty group name")
	}
	if cfg.ReadAssured < 0 || cfg.WriteAssured < 0 || cfg.ReadCeil < 0 || cfg.WriteCeil < 0 {
		return nil, fmt.Errorf("blkio: negative limit for group %q", name)
	}
	if cfg.ReadCeil > 0 && cfg.ReadCeil < cfg.ReadAssured {
		return nil, fmt.Errorf("blkio: group %q read ceil %v below assured %v", name, cfg.ReadCeil, cfg.ReadAssured)
	}
	if cfg.WriteCeil > 0 && cfg.WriteCeil < cfg.WriteAssured {
		return nil, fmt.Errorf("blkio: group %q write ceil %v below assured %v", name, cfg.WriteCeil, cfg.WriteAssured)
	}
	if cfg.ReadAssured == 0 && cfg.ReadCeil > 0 {
		return nil, fmt.Errorf("blkio: group %q read ceil without an assured rate", name)
	}
	if cfg.WriteAssured == 0 && cfg.WriteCeil > 0 {
		return nil, fmt.Errorf("blkio: group %q write ceil without an assured rate", name)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.clock()
	g, ok := c.groups[name]
	if !ok {
		g = &Group{name: name}
		c.groups[name] = g
	}
	g.mu.Lock()
	g.r = newLimit(cfg.ReadAssured, cfg.ReadCeil, now, g.r)
	g.w = newLimit(cfg.WriteAssured, cfg.WriteCeil, now, g.w)
	g.mu.Unlock()
	return g, nil
}

// RemoveGroup deletes a group, releasing its assured claim on the disk:
// once its charges stop, the root refill the group was consuming becomes
// spare that siblings can borrow. It reports whether the group existed.
func (c *Controller) RemoveGroup(name string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.groups[name]; !ok {
		return false
	}
	delete(c.groups, name)
	return true
}

// Stats snapshots the cumulative borrow/reclaim accounting.
func (c *Controller) Stats() Stats {
	c.rootMu.Lock()
	defer c.rootMu.Unlock()
	return Stats{
		AssuredBytes:    c.assuredBytes,
		BorrowedBytes:   c.borrowedBytes,
		Borrows:         c.borrows,
		Reclaims:        c.reclaims,
		ThrottleWaitSec: c.waitSec,
	}
}

// Reserve accounts n bytes of the given op against the group and returns
// the delay the caller must observe. It is the non-blocking primitive
// behind Wait; tests drive it with a fake clock.
//
// The assured bucket paces the group's floor; if the reservation leaves it
// in debt and the group has ceil headroom, the debt is repaid from the
// root pool's spare tokens (a borrow). The final delay is the maximum of
// the post-borrow assured delay and the ceil bucket's delay, so a borrower
// runs at its ceil — never past it — while the root never delays anyone.
func (c *Controller) Reserve(g *Group, op Op, n int) time.Duration {
	if n <= 0 {
		return 0
	}
	now := c.clock()
	nf := float64(n)
	g.mu.Lock()
	defer g.mu.Unlock()
	l := g.r
	if op == Write {
		l = g.w
	}

	c.rootMu.Lock()
	defer c.rootMu.Unlock()
	root := c.rootR
	if op == Write {
		root = c.rootW
	}

	var d time.Duration
	var borrowed float64
	if l.assured.rate <= 0 {
		// Unlimited direction: nothing to pace, but the root still sees
		// the traffic so siblings' borrowing reflects real disk load.
		root.charge(nf, now)
		c.assuredBytes += uint64(n)
		return 0
	}

	d = l.assured.reserve(nf, now)
	if d > 0 && l.ceil != nil && root != nil {
		debt := -l.assured.tokens
		root.refill(now)
		if spare := root.tokens; spare > 0 {
			borrowed = debt
			if borrowed > spare {
				borrowed = spare
			}
			l.assured.tokens += borrowed
			root.tokens -= borrowed
			if l.assured.tokens >= 0 {
				d = 0
			} else {
				d = time.Duration(-l.assured.tokens / l.assured.rate * float64(time.Second))
			}
		}
		if borrowed > 0 {
			c.borrows++
		}
		if borrowed < debt {
			// Pressure return: sibling assured charges drained the pool,
			// so part of the demand falls back to assured pacing.
			c.reclaims++
		}
	}

	// Every byte not covered by a borrow is (now or after the returned
	// delay) covered by the group's own assured refill, so it charges the
	// root pool; borrowed bytes already came out of the pool above.
	bb := borrowed
	if bb > nf {
		bb = nf
	}
	root.charge(nf-bb, now)
	c.borrowedBytes += uint64(bb)
	c.assuredBytes += uint64(n) - uint64(bb)

	if l.ceil != nil {
		if cd := l.ceil.reserve(nf, now); cd > d {
			d = cd
		}
	}
	if d > 0 {
		c.waitSec += d.Seconds()
		if c.met != nil {
			c.met.ThrottleWait.Observe(d.Seconds())
		}
	}
	return d
}

// Wait blocks until n bytes of the given op are admitted, or until the
// context is canceled (the reservation is still consumed, as a real
// blkio-throttled syscall would already be queued).
func (c *Controller) Wait(ctx context.Context, g *Group, op Op, n int) error {
	d := c.Reserve(g, op, n)
	if d <= 0 {
		return nil
	}
	if ctx == nil || ctx.Done() == nil {
		// A nil or non-cancellable context (e.g. context.Background())
		// cannot interrupt the wait, so use the controller's sleeper —
		// which tests may have replaced with virtual time.
		c.sleep(d)
		return nil
	}
	// Measure the deadline against the controller's clock, not the wall:
	// under a fake clock the two time bases diverge and the wall-clock
	// comparison spuriously reports DeadlineExceeded.
	if deadline, ok := ctx.Deadline(); ok && deadline.Sub(c.clock()) < d {
		return fmt.Errorf("blkio: group %q %s of %d bytes needs %v: %w", g.name, op, n, d, context.DeadlineExceeded)
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
