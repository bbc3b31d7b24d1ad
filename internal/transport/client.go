package transport

import (
	"context"
	"flag"
	"math/rand"
	"net"
	"sync"
	"syscall"
	"time"

	"dfsqos/internal/ids"
	"dfsqos/internal/wire"
)

// Config tunes a transport client. The zero value means "all defaults";
// see DefaultConfig for the values.
type Config struct {
	// DialTimeout bounds one TCP connection attempt.
	DialTimeout time.Duration
	// CallTimeout bounds one RPC round trip (write + reply read),
	// including any dial it triggers. Zero disables the bound. Streams
	// opened through Get are NOT subject to it — the data plane is paced
	// by the disk throttle, not the control-plane deadline.
	CallTimeout time.Duration
	// PoolSize bounds the idle connections kept per peer. Checkouts
	// beyond the pool dial extra connections lazily; returning them past
	// the bound closes them.
	PoolSize int
	// BackoffBase is the redial delay after the first consecutive dial
	// failure; it doubles per failure up to BackoffMax, with ±50% jitter.
	BackoffBase time.Duration
	// BackoffMax caps the redial delay.
	BackoffMax time.Duration
	// Metrics receives the transport's telemetry (dials, pool churn,
	// call latency, error classes). Nil uses a process-wide no-op sink,
	// so instrumentation costs a few uncollected atomic ops.
	Metrics *Metrics
	// Tenant stamps every connection this client dials with a tenant
	// identity: frames written on them carry the tenant slot (flag bit 0
	// of the binary header), so servers can attribute control calls and
	// data streams to the tenant without any per-message field. Zero (the
	// default) leaves connections untenanted.
	Tenant ids.TenantID
}

// DefaultConfig returns the stock tuning: 2s dials, 5s calls, 4 pooled
// connections, 25ms→2s backoff.
func DefaultConfig() Config {
	return Config{
		DialTimeout: 2 * time.Second,
		CallTimeout: 5 * time.Second,
		PoolSize:    4,
		BackoffBase: 25 * time.Millisecond,
		BackoffMax:  2 * time.Second,
	}
}

// withDefaults fills unset fields from DefaultConfig. A negative
// CallTimeout explicitly disables the call bound.
func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.DialTimeout == 0 {
		c.DialTimeout = d.DialTimeout
	}
	if c.CallTimeout == 0 {
		c.CallTimeout = d.CallTimeout
	}
	if c.CallTimeout < 0 {
		c.CallTimeout = 0
	}
	if c.PoolSize <= 0 {
		c.PoolSize = d.PoolSize
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = d.BackoffBase
	}
	if c.BackoffMax < c.BackoffBase {
		c.BackoffMax = d.BackoffMax
	}
	if c.Metrics == nil {
		c.Metrics = nopMetrics
	}
	return c
}

// RegisterFlags binds the standard transport tuning flags on fs
// (-dial-timeout, -call-timeout, -pool-size) and returns the Config they
// populate, pre-filled with defaults. Call flag.Parse before using it.
func RegisterFlags(fs *flag.FlagSet) *Config {
	cfg := DefaultConfig()
	fs.DurationVar(&cfg.DialTimeout, "dial-timeout", cfg.DialTimeout, "budget for one TCP connection attempt")
	fs.DurationVar(&cfg.CallTimeout, "call-timeout", cfg.CallTimeout, "deadline for one control-plane RPC round trip (0 disables)")
	fs.IntVar(&cfg.PoolSize, "pool-size", cfg.PoolSize, "max pooled connections kept per peer")
	return &cfg
}

// Conn is one checked-out pooled connection: the raw socket plus its wire
// codec. Holders use W for framed I/O and must hand the Conn back with
// Client.Put when done.
type Conn struct {
	nc net.Conn
	W  *wire.Conn

	// The checkout probe's state, built once per connection: every call
	// and every stream — one per MiB on a striped read — checks a
	// connection out, so the probe must not allocate a raw-conn handle and
	// a closure each time. raw is nil when the socket gives no raw access.
	raw   syscall.RawConn
	peek  func(fd uintptr) bool
	alive bool
}

func newConn(nc net.Conn, w *wire.Conn) *Conn {
	pc := &Conn{nc: nc, W: w}
	if sc, ok := nc.(syscall.Conn); ok {
		if raw, err := sc.SyscallConn(); err == nil {
			pc.raw, pc.peek = raw, pc.peekFd
		}
	}
	return pc
}

// healthy probes a pooled connection at checkout with a non-blocking
// MSG_PEEK: a closed or reset peer yields EOF/error (unhealthy), a live
// idle one yields EAGAIN (healthy). Readable bytes on an idle
// request/response connection mean protocol desync, which also counts as
// unhealthy — and so do bytes the wire codec's read-ahead took off the
// socket beside the last reply, which a peek can no longer see. No byte is
// consumed and no deadline is armed, so the check costs one syscall and
// zero latency; it does require that none be left armed, since the runtime
// refuses a read past its deadline before it peeks. Only the goroutine
// that checked the connection out calls it.
func (pc *Conn) healthy() bool {
	if pc.W.Buffered() > 0 {
		return false // unsolicited bytes the codec already took off the socket
	}
	if pc.raw == nil {
		return true // no raw access (tests with pipes): assume alive
	}
	pc.alive = false
	return pc.raw.Read(pc.peek) == nil && pc.alive
}

func (pc *Conn) peekFd(fd uintptr) bool {
	var buf [1]byte
	n, _, serr := syscall.Recvfrom(int(fd), buf[:], syscall.MSG_PEEK|syscall.MSG_DONTWAIT)
	// Nothing to read means idle and open. Unsolicited bytes are protocol
	// desync; n == 0 without an error is EOF; anything else a real error.
	pc.alive = n <= 0 && (serr == syscall.EAGAIN || serr == syscall.EWOULDBLOCK)
	return true // never block waiting for readability
}

// Client is a pooled, deadline-aware RPC client to one peer address. It is
// safe for concurrent use: independent calls proceed on independent
// connections instead of serializing behind one mutex.
type Client struct {
	addr string
	cfg  Config

	mu      sync.Mutex
	idle    []*Conn
	closed  bool
	fails   int       // consecutive dial failures
	nextTry time.Time // backoff gate for the next dial
}

// NewClient builds a client without touching the network; the first call
// dials lazily. cfg zero-fields take defaults.
func NewClient(addr string, cfg Config) *Client {
	return &Client{addr: addr, cfg: cfg.withDefaults()}
}

// Dial builds a client and eagerly verifies connectivity by dialing (and
// pooling) one connection, so an unreachable peer fails fast at
// construction like a plain net.Dial would.
func Dial(addr string, cfg Config) (*Client, error) {
	c := NewClient(addr, cfg)
	ctx, cancel := context.WithTimeout(context.Background(), c.cfg.DialTimeout)
	defer cancel()
	conn, err := c.Get(ctx)
	if err != nil {
		return nil, err
	}
	c.Put(conn, nil)
	return c, nil
}

// Addr returns the peer address.
func (c *Client) Addr() string { return c.addr }

// Get checks a connection out of the pool, health-checking pooled ones
// and dialing a fresh one (backoff-gated) when none survive. The caller
// must return it with Put. Get respects ctx for both the backoff wait and
// the dial itself. The connection carries no deadline: a stream runs on it
// for as long as the disk throttle paces it.
func (c *Client) Get(ctx context.Context) (*Conn, error) {
	return c.get(ctx, time.Time{})
}

// get is Get with an absolute bound (zero: none) on whatever a checkout
// that finds the pool empty has to wait for — the backoff gate, then the
// dial. A pooled connection is handed out without looking at the bound:
// it is the caller's to arm on the connection, and a context built for it
// here would be paid for on every call and used by almost none.
func (c *Client) get(ctx context.Context, deadline time.Time) (*Conn, error) {
	for {
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return nil, &ConnError{Op: "checkout", Peer: c.addr, Err: ErrClosed}
		}
		var pc *Conn
		if n := len(c.idle); n > 0 {
			pc = c.idle[n-1]
			c.idle = c.idle[:n-1]
		}
		c.mu.Unlock()
		if pc == nil {
			return c.dial(ctx, deadline)
		}
		c.cfg.Metrics.PoolIdle.Dec()
		if pc.healthy() {
			c.cfg.Metrics.CheckoutsPool.Inc()
			return pc, nil
		}
		c.cfg.Metrics.DiscardUnhealthy.Inc()
		pc.nc.Close() // stale pooled conn: discard and try the next
	}
}

// Put returns a checked-out connection. err is the outcome of whatever
// the holder did with it: nil or a wire.RemoteError keeps the connection
// pooled; any transport-level failure (or pool overflow) closes it.
func (c *Client) Put(conn *Conn, err error) {
	if conn == nil {
		return
	}
	if err != nil && !IsRemote(err) {
		c.cfg.Metrics.DiscardError.Inc()
		conn.nc.Close()
		return
	}
	c.mu.Lock()
	if c.closed || len(c.idle) >= c.cfg.PoolSize {
		closed := c.closed
		c.mu.Unlock()
		if closed {
			c.cfg.Metrics.DiscardClosed.Inc()
		} else {
			c.cfg.Metrics.DiscardOverflow.Inc()
		}
		conn.nc.Close()
		return
	}
	c.idle = append(c.idle, conn)
	c.mu.Unlock()
	c.cfg.Metrics.PoolIdle.Inc()
}

// dial opens a fresh connection, honoring the exponential-backoff gate
// left by previous failures: if a redial is not due yet, it waits out the
// remainder (or the context, whichever ends first) instead of hammering a
// down peer. deadline (zero: none) bounds the wait and the dial together;
// this is the one place a call's bound becomes a context, where its cost
// is noise beside a TCP handshake.
func (c *Client) dial(ctx context.Context, deadline time.Time) (*Conn, error) {
	if !deadline.IsZero() {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, deadline)
		defer cancel()
	}
	c.mu.Lock()
	wait := time.Until(c.nextTry)
	c.mu.Unlock()
	if wait > 0 {
		c.cfg.Metrics.RedialWaits.Inc()
		t := time.NewTimer(wait)
		select {
		case <-ctx.Done():
			t.Stop()
			return nil, Classify("dial", c.addr, ctx.Err())
		case <-t.C:
		}
	}
	dctx := ctx
	if c.cfg.DialTimeout > 0 {
		var cancel context.CancelFunc
		dctx, cancel = context.WithTimeout(ctx, c.cfg.DialTimeout)
		defer cancel()
	}
	var d net.Dialer
	nc, err := d.DialContext(dctx, "tcp", c.addr)
	if err != nil {
		c.cfg.Metrics.DialsFailed.Inc()
		c.mu.Lock()
		c.fails++
		c.nextTry = time.Now().Add(c.backoffLocked())
		c.mu.Unlock()
		return nil, Classify("dial", c.addr, err)
	}
	c.cfg.Metrics.DialsOK.Inc()
	c.mu.Lock()
	c.fails = 0
	c.nextTry = time.Time{}
	closed := c.closed
	c.mu.Unlock()
	if closed {
		nc.Close()
		return nil, &ConnError{Op: "dial", Peer: c.addr, Err: ErrClosed}
	}
	c.cfg.Metrics.CheckoutsDial.Inc()
	w := wire.NewConn(nc)
	w.SetTenant(c.cfg.Tenant)
	return newConn(nc, w), nil
}

// backoffLocked computes the next redial delay: BackoffBase doubled per
// consecutive failure, capped at BackoffMax, jittered ±50% so a fleet of
// clients does not probe a recovering peer in lockstep. Caller holds c.mu.
func (c *Client) backoffLocked() time.Duration {
	d := c.cfg.BackoffBase
	for i := 1; i < c.fails && d < c.cfg.BackoffMax; i++ {
		d *= 2
	}
	if d > c.cfg.BackoffMax {
		d = c.cfg.BackoffMax
	}
	jitter := 0.5 + rand.Float64() // in [0.5, 1.5)
	return time.Duration(float64(d) * jitter)
}

// Call performs one RPC round trip on a pooled connection, bounded by
// CallTimeout (and any tighter ctx deadline). The bound is one absolute
// time, fixed when the call starts: it caps the backoff wait and the dial
// of a checkout that finds the pool empty, and it is the one deadline the
// round trip arms on the connection (wire.Conn.CallDeadline). Errors come
// back classified: wire.RemoteError, *TimeoutError or *ConnError. The
// connection returns to the pool unless the call failed at the transport
// level.
func (c *Client) Call(ctx context.Context, kind wire.Kind, payload any) (wire.Msg, error) {
	start := time.Now()
	var deadline time.Time
	if c.cfg.CallTimeout > 0 {
		deadline = start.Add(c.cfg.CallTimeout)
	}
	conn, err := c.get(ctx, deadline)
	if err != nil {
		c.cfg.Metrics.CallLatency.Observe(time.Since(start).Seconds())
		c.cfg.Metrics.countError(err)
		return wire.Msg{}, err
	}
	msg, err := conn.W.CallDeadline(ctx, deadline, kind, payload)
	if err != nil {
		// The op string is built on the failure path only: on success it
		// would be one discarded allocation per call.
		err = Classify("call "+kind.String(), c.addr, err)
	}
	c.Put(conn, err)
	c.cfg.Metrics.CallLatency.Observe(time.Since(start).Seconds())
	c.cfg.Metrics.countError(err)
	return msg, err
}

// Close closes every pooled connection and rejects future checkouts.
// Connections currently checked out are closed by their holders' Put.
func (c *Client) Close() error {
	c.mu.Lock()
	c.closed = true
	idle := c.idle
	c.idle = nil
	c.mu.Unlock()
	if n := len(idle); n > 0 {
		c.cfg.Metrics.PoolIdle.Add(-float64(n))
		c.cfg.Metrics.DiscardClosed.Add(uint64(n))
	}
	for _, pc := range idle {
		pc.nc.Close()
	}
	return nil
}
