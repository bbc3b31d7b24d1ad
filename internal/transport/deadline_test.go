package transport

import (
	"bytes"
	"context"
	"errors"
	"net"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"dfsqos/internal/wire"
)

// strayByteServer answers the first frame on every connection with an Ack
// followed by one byte nobody asked for, both in a single segment, and
// then keeps the connection open. Where the byte ends up on the client —
// still in the socket, or already pulled in beside the reply — is the
// client's business; either way it is unsolicited.
func strayByteServer(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var reply bytes.Buffer
	if err := wire.NewConn(&reply).Write(wire.KindAck, wire.Ack{}); err != nil {
		t.Fatal(err)
	}
	reply.WriteByte(0x7f)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				if _, err := wire.NewConn(conn).Read(); err != nil {
					return
				}
				if _, err := conn.Write(reply.Bytes()); err != nil {
					return
				}
				// Hold the connection open until the client drops it.
				conn.Read(make([]byte, 1))
			}()
		}
	}()
	return ln
}

// TestCheckoutProbeSeesStrayByte pins the desync check: a connection that
// came back from a successful call with an unsolicited byte behind the
// reply is thrown away at its next checkout, not handed to the next call.
func TestCheckoutProbeSeesStrayByte(t *testing.T) {
	ln := strayByteServer(t)
	defer ln.Close()
	m := NewMetrics(nil)
	c := NewClient(ln.Addr().String(), Config{Metrics: m})
	defer c.Close()

	if _, err := c.Call(context.Background(), wire.KindRMs, nil); err != nil {
		t.Fatalf("first call: %v", err)
	}
	if c.IdleConns() != 1 {
		t.Fatalf("idle = %d after a successful call, want 1", c.IdleConns())
	}
	// The stray byte left the server in the reply's segment, so it is on
	// this host already; give the loopback a moment all the same.
	time.Sleep(20 * time.Millisecond)
	if _, err := c.Call(context.Background(), wire.KindRMs, nil); err != nil {
		t.Fatalf("second call: %v", err)
	}
	if got := m.DiscardUnhealthy.Value(); got != 1 {
		t.Fatalf("DiscardUnhealthy = %d, want 1: the desynchronized connection was reused", got)
	}
	if got := m.DialsOK.Value(); got != 2 {
		t.Fatalf("dials = %d, want 2 (the second call runs on a fresh connection)", got)
	}
}

// gatedClient returns a client to an address nobody listens on whose one
// failed dial has already armed the backoff gate: for at least a second no
// redial is due.
func gatedClient(t *testing.T, cfg Config) *Client {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	cfg.BackoffBase, cfg.BackoffMax = 2*time.Second, 2*time.Second // jittered: 1–3 s
	c := NewClient(addr, cfg)
	t.Cleanup(func() { c.Close() })
	if _, err := c.Call(context.Background(), wire.KindRMs, nil); err == nil {
		t.Fatal("call to a closed port succeeded")
	}
	if c.FailureCount() != 1 {
		t.Fatalf("FailureCount = %d, want 1", c.FailureCount())
	}
	return c
}

// wantTimeoutWithin runs one call and requires a *TimeoutError no later
// than limit.
func wantTimeoutWithin(t *testing.T, c *Client, ctx context.Context, limit time.Duration) error {
	t.Helper()
	start := time.Now()
	_, err := c.Call(ctx, wire.KindRMs, nil)
	elapsed := time.Since(start)
	var te *TimeoutError
	if !errors.As(err, &te) {
		t.Fatalf("err = %v (%T) after %v, want *TimeoutError", err, err, elapsed)
	}
	if elapsed > limit {
		t.Fatalf("call returned after %v, want within %v", elapsed, limit)
	}
	return err
}

// TestCallTimeoutCoversBackoffWait: the pool is empty and the peer is
// inside its backoff gate, so the call would sleep a second or more before
// it even dials; CallTimeout bounds that wait too.
func TestCallTimeoutCoversBackoffWait(t *testing.T) {
	c := gatedClient(t, Config{CallTimeout: 100 * time.Millisecond})
	wantTimeoutWithin(t, c, context.Background(), 600*time.Millisecond)
}

// fullBacklogListener returns the address of a listener that completes no
// more handshakes: its accept queue is one entry long and already taken,
// so a further connect blocks in SYN retransmission — a dial that outlasts
// any sub-second deadline, arranged without leaving the host. It skips the
// test when the kernel will not be talked into it.
func fullBacklogListener(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	raw, err := ln.(*net.TCPListener).SyscallConn()
	if err != nil {
		t.Skipf("no raw access to the listener: %v", err)
	}
	var lerr error
	if err := raw.Control(func(fd uintptr) { lerr = syscall.Listen(int(fd), 0) }); err != nil || lerr != nil {
		t.Skipf("cannot shrink the accept backlog: %v / %v", err, lerr)
	}
	addr := ln.Addr().String()
	// Fill the queue: connections nobody accepts, kept open for the test.
	for i := 0; i < 16; i++ {
		conn, err := net.DialTimeout("tcp", addr, 150*time.Millisecond)
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				return addr // the queue is full: this dial hung
			}
			t.Skipf("filling the accept queue: %v", err)
		}
		t.Cleanup(func() { conn.Close() })
	}
	t.Skip("accept queue never filled")
	return ""
}

// TestCallTimeoutCoversSlowDial: the pool is empty and the dial hangs;
// the call gives up at CallTimeout, not at DialTimeout.
func TestCallTimeoutCoversSlowDial(t *testing.T) {
	addr := fullBacklogListener(t)
	c := NewClient(addr, Config{CallTimeout: 150 * time.Millisecond, DialTimeout: 5 * time.Second})
	defer c.Close()
	wantTimeoutWithin(t, c, context.Background(), 900*time.Millisecond)
}

// TestEarlierContextDeadlineWins: a context that ends before CallTimeout
// is the bound, on the dial path and on a pooled connection alike.
func TestEarlierContextDeadlineWins(t *testing.T) {
	t.Run("backoff", func(t *testing.T) {
		c := gatedClient(t, Config{CallTimeout: 5 * time.Second})
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		defer cancel()
		err := wantTimeoutWithin(t, c, ctx, 600*time.Millisecond)
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want context.DeadlineExceeded in its chain", err)
		}
	})
	t.Run("pooled", func(t *testing.T) {
		var calls atomic.Int32 // the first is answered at once, so a connection is pooled
		s := newTestServer(t, "127.0.0.1:0", func(wc *wire.Conn, _ wire.Msg) error {
			if calls.Add(1) > 1 {
				time.Sleep(2 * time.Second)
			}
			return wc.Write(wire.KindAck, wire.Ack{})
		})
		defer s.close()
		c := NewClient(s.addr(), Config{CallTimeout: 5 * time.Second})
		defer c.Close()
		if _, err := c.Call(context.Background(), wire.KindRMs, nil); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		defer cancel()
		err := wantTimeoutWithin(t, c, ctx, 600*time.Millisecond)
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want context.DeadlineExceeded in its chain", err)
		}
		if c.IdleConns() != 0 {
			t.Fatalf("timed-out connection returned to the pool (%d idle)", c.IdleConns())
		}
	})
}

// TestNegativeCallTimeoutDisablesBound: with CallTimeout < 0 a reply that
// takes longer than any default-free bound would allow is simply awaited.
func TestNegativeCallTimeoutDisablesBound(t *testing.T) {
	const stall = 300 * time.Millisecond
	s := newTestServer(t, "127.0.0.1:0", func(wc *wire.Conn, _ wire.Msg) error {
		time.Sleep(stall)
		return wc.Write(wire.KindAck, wire.Ack{})
	})
	defer s.close()
	c := NewClient(s.addr(), Config{CallTimeout: -1})
	defer c.Close()
	if got := c.cfg.CallTimeout; got != 0 {
		t.Fatalf("effective CallTimeout = %v, want 0 (disabled)", got)
	}
	start := time.Now()
	if _, err := c.Call(context.Background(), wire.KindRMs, nil); err != nil {
		t.Fatalf("unbounded call: %v", err)
	}
	if elapsed := time.Since(start); elapsed < stall {
		t.Fatalf("call returned after %v, before the server's %v stall ended", elapsed, stall)
	}
}

// TestStreamCheckoutCarriesNoDeadline: a connection a bounded call used
// comes out of the pool with no deadline armed, however long ago the
// call's own deadline passed — streams are paced by the disk throttle,
// not by CallTimeout.
func TestStreamCheckoutCarriesNoDeadline(t *testing.T) {
	s := newTestServer(t, "127.0.0.1:0", ackHandler)
	defer s.close()
	const callTimeout = 80 * time.Millisecond
	m := NewMetrics(nil)
	c := NewClient(s.addr(), Config{CallTimeout: callTimeout, Metrics: m})
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), callTimeout/2)
	defer cancel()
	if _, err := c.Call(ctx, wire.KindRMs, nil); err != nil {
		t.Fatal(err)
	}
	time.Sleep(2 * callTimeout) // both of the call's deadlines are now in the past
	conn, err := c.Get(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := s.accepts.Load(); got != 1 {
		t.Fatalf("checkout dialled (accepts = %d): the pooled connection was thrown away", got)
	}
	if got := m.DiscardUnhealthy.Value(); got != 0 {
		t.Fatalf("DiscardUnhealthy = %d on a healthy connection", got)
	}
	reply, err := conn.W.Call(wire.KindRMs, nil)
	c.Put(conn, err)
	if err != nil || reply.Kind != wire.KindAck {
		t.Fatalf("stream exchange on the checked-out connection: %v %v", reply.Kind, err)
	}
}

// TestCancelRacingReplyLeavesConnHealthy sweeps context timeouts across
// the loopback round-trip time, so that now and then the cancellation
// lands while the reply is being returned. Whatever the interleaving, a
// call that reported success must hand back a connection with no deadline
// on it: it passes the checkout probe, completes a deadline-free exchange,
// and is never counted as an unhealthy discard later.
func TestCancelRacingReplyLeavesConnHealthy(t *testing.T) {
	ln := echoServer(t)
	defer ln.Close()
	m := NewMetrics(nil)
	c := NewClient(ln.Addr().String(), Config{CallTimeout: -1, Metrics: m})
	defer c.Close()

	// The round trip on this box, warm.
	var rtt time.Duration
	for i := 0; i < 50; i++ {
		start := time.Now()
		if _, err := c.Call(context.Background(), wire.KindRMs, nil); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start); i == 0 || d < rtt {
			rtt = d
		}
	}

	const rounds = 3000
	ok := 0
	for i := 0; i < rounds; i++ {
		// 0.25 to 3 round trips, in 64 steps.
		timeout := rtt/4 + time.Duration(i%64)*rtt*11/(4*64)
		conn, err := c.Get(context.Background())
		if err != nil {
			t.Fatalf("round %d: checkout: %v", i, err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		_, err = conn.W.CallDeadline(ctx, time.Time{}, wire.KindRMs, nil)
		cancel()
		if err != nil {
			c.Put(conn, Classify("call", c.Addr(), err))
			continue
		}
		ok++
		if !conn.healthy() {
			t.Fatalf("round %d (timeout %v): a successful call left its connection failing the checkout probe", i, timeout)
		}
		if _, err := conn.W.Call(wire.KindRMs, nil); err != nil {
			t.Fatalf("round %d (timeout %v): deadline-free exchange after a successful call: %v", i, timeout, err)
		}
		c.Put(conn, nil)
	}
	if got := m.DiscardUnhealthy.Value(); got != 0 {
		t.Fatalf("DiscardUnhealthy = %d over %d rounds (%d succeeded): a healthy connection was discarded at checkout", got, rounds, ok)
	}
	if ok == 0 || ok == rounds {
		t.Logf("sweep did not straddle the round trip: %d of %d calls succeeded (rtt %v)", ok, rounds, rtt)
	}
}
