package transport

import (
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dfsqos/internal/ids"
	"dfsqos/internal/testenv"
	"dfsqos/internal/wire"
)

// testServer is a minimal wire-speaking peer: one goroutine per accepted
// connection, every frame answered by handle. It counts accepts so pool
// reuse is observable.
type testServer struct {
	ln      net.Listener
	accepts atomic.Int32
	handle  func(wc *wire.Conn, msg wire.Msg) error

	mu    sync.Mutex
	conns map[net.Conn]struct{}
	done  chan struct{}
}

func newTestServer(t *testing.T, addr string, handle func(wc *wire.Conn, msg wire.Msg) error) *testServer {
	t.Helper()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	s := &testServer{ln: ln, handle: handle, conns: make(map[net.Conn]struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			s.accepts.Add(1)
			s.mu.Lock()
			s.conns[conn] = struct{}{}
			s.mu.Unlock()
			go func() {
				defer conn.Close()
				wc := wire.NewConn(conn)
				for {
					msg, err := wc.Read()
					if err != nil {
						return
					}
					if err := s.handle(wc, msg); err != nil {
						return
					}
				}
			}()
		}
	}()
	return s
}

func (s *testServer) addr() string { return s.ln.Addr().String() }

func (s *testServer) close() {
	s.ln.Close()
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	<-s.done
}

// ackHandler answers every frame with an Ack.
func ackHandler(wc *wire.Conn, _ wire.Msg) error {
	return wc.Write(wire.KindAck, wire.Ack{})
}

func TestPoolReusesOneConnection(t *testing.T) {
	s := newTestServer(t, "127.0.0.1:0", ackHandler)
	defer s.close()
	c := NewClient(s.addr(), Config{PoolSize: 2})
	defer c.Close()

	for i := 0; i < 5; i++ {
		if _, err := c.Call(context.Background(), wire.KindRMs, nil); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if got := s.accepts.Load(); got != 1 {
		t.Fatalf("5 sequential calls dialed %d connections, want 1", got)
	}
	if c.IdleConns() != 1 {
		t.Fatalf("idle pool has %d conns, want 1", c.IdleConns())
	}
}

// TestCallAllocations holds one control-plane round trip through Call on a
// warm pool — checkout with its probe, one armed deadline, a frame out, a
// frame in, the connection pooled again — to 4 allocations, counted in
// client and loopback peer together. A call builds no context, timer or
// callback, so what is left is its payloads: the request boxed here, and
// boxed again where the peer decodes it. An open makes holders + 3 calls,
// so anything a call adds is paid 19 times an open at 16 holders.
func TestCallAllocations(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	ln := echoServer(t)
	defer ln.Close()
	c, err := Dial(ln.Addr().String(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	req := ids.RequestID(1000)
	call := func() {
		// A request id that varies, so its boxing into the payload
		// interface is the allocation it is on a real call.
		req++
		if _, err := c.Call(ctx, wire.KindKeepalive, wire.Keepalive{Request: req}); err != nil {
			t.Fatal(err)
		}
	}
	call() // dial and warm the pool
	if avg := testing.AllocsPerRun(200, call); avg > 4 {
		t.Errorf("Call allocs/op = %v, want at most 4", avg)
	}
}

func TestConcurrentCallsFanAcrossConnections(t *testing.T) {
	s := newTestServer(t, "127.0.0.1:0", func(wc *wire.Conn, _ wire.Msg) error {
		time.Sleep(100 * time.Millisecond)
		return wc.Write(wire.KindAck, wire.Ack{})
	})
	defer s.close()
	c := NewClient(s.addr(), Config{PoolSize: 4})
	defer c.Close()

	const calls = 4
	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, calls)
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = c.Call(context.Background(), wire.KindRMs, nil)
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	// Serial on one mutex-guarded conn this would take ≥ 400ms.
	if elapsed > 300*time.Millisecond {
		t.Fatalf("4 concurrent 100ms calls took %v; pool did not parallelize", elapsed)
	}
	if got := s.accepts.Load(); got < 2 {
		t.Fatalf("concurrent calls used %d connections, want ≥ 2", got)
	}
	// Returned conns respect the pool bound.
	if c.IdleConns() > 4 {
		t.Fatalf("idle pool has %d conns, cap is 4", c.IdleConns())
	}
}

func TestRemoteErrorIsTypedAndKeepsConnection(t *testing.T) {
	s := newTestServer(t, "127.0.0.1:0", func(wc *wire.Conn, _ wire.Msg) error {
		return wc.Write(wire.KindError, wire.Error{Text: "boom"})
	})
	defer s.close()
	c := NewClient(s.addr(), Config{})
	defer c.Close()

	_, err := c.Call(context.Background(), wire.KindRMs, nil)
	var re wire.RemoteError
	if !errors.As(err, &re) || re.Text != "boom" {
		t.Fatalf("err = %v, want RemoteError{boom}", err)
	}
	if !IsRemote(err) {
		t.Fatalf("IsRemote(%v) = false", err)
	}
	if IsTimeout(err) {
		t.Fatalf("remote error classified as timeout")
	}
	// The connection served the error and stays pooled.
	if _, err := c.Call(context.Background(), wire.KindRMs, nil); !IsRemote(err) {
		t.Fatalf("second call: %v", err)
	}
	if got := s.accepts.Load(); got != 1 {
		t.Fatalf("remote errors burned %d connections, want 1", got)
	}
}

func TestCallTimeoutIsTyped(t *testing.T) {
	s := newTestServer(t, "127.0.0.1:0", func(wc *wire.Conn, _ wire.Msg) error {
		time.Sleep(2 * time.Second) // stall past the call deadline
		return wc.Write(wire.KindAck, wire.Ack{})
	})
	defer s.close()
	c := NewClient(s.addr(), Config{CallTimeout: 100 * time.Millisecond})
	defer c.Close()

	start := time.Now()
	_, err := c.Call(context.Background(), wire.KindRMs, nil)
	elapsed := time.Since(start)
	var te *TimeoutError
	if !errors.As(err, &te) {
		t.Fatalf("err = %v (%T), want *TimeoutError", err, err)
	}
	if !IsTimeout(err) || IsRemote(err) {
		t.Fatalf("taxonomy: IsTimeout=%v IsRemote=%v for %v", IsTimeout(err), IsRemote(err), err)
	}
	if elapsed > time.Second {
		t.Fatalf("timed-out call returned after %v, deadline was 100ms", elapsed)
	}
	// The desynchronized connection must not be reused: the next call
	// dials fresh.
	s2 := s.accepts.Load()
	if c.IdleConns() != 0 {
		t.Fatalf("timed-out conn returned to pool (%d idle)", c.IdleConns())
	}
	if _, err := c.Call(context.Background(), wire.KindRMs, nil); err == nil {
		t.Fatal("second call against stalling server succeeded unexpectedly")
	}
	if s.accepts.Load() == s2 {
		t.Fatal("second call reused the timed-out connection")
	}
}

func TestDialFailureTypedBackoffAndRecovery(t *testing.T) {
	// Reserve an address, then close the listener so dials fail.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	c := NewClient(addr, Config{
		DialTimeout: 200 * time.Millisecond,
		BackoffBase: 10 * time.Millisecond,
		BackoffMax:  80 * time.Millisecond,
	})
	defer c.Close()

	for i := 1; i <= 3; i++ {
		_, err := c.Call(context.Background(), wire.KindRMs, nil)
		var ce *ConnError
		if !errors.As(err, &ce) {
			t.Fatalf("dial failure %d: err = %v (%T), want *ConnError", i, err, err)
		}
		if IsRemote(err) {
			t.Fatalf("dial failure classified remote: %v", err)
		}
		if got := c.FailureCount(); got != i {
			t.Fatalf("after %d failures FailureCount = %d", i, got)
		}
	}

	// Peer comes back on the same address: the next call waits out the
	// backoff gate and succeeds within the budget (≤ BackoffMax + slack).
	s := newTestServer(t, addr, ackHandler)
	defer s.close()
	start := time.Now()
	if _, err := c.Call(context.Background(), wire.KindRMs, nil); err != nil {
		t.Fatalf("recovery call failed: %v", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("recovery took %v, backoff budget is ~120ms", elapsed)
	}
	if c.FailureCount() != 0 {
		t.Fatalf("successful dial did not reset FailureCount (%d)", c.FailureCount())
	}
}

func TestHealthCheckDiscardsDeadPooledConn(t *testing.T) {
	s := newTestServer(t, "127.0.0.1:0", ackHandler)
	addr := s.addr()
	c := NewClient(addr, Config{})
	defer c.Close()
	if _, err := c.Call(context.Background(), wire.KindRMs, nil); err != nil {
		t.Fatal(err)
	}
	// Kill the server (and the pooled conn's far end), restart in place.
	s.close()
	s2 := newTestServer(t, addr, ackHandler)
	defer s2.close()

	// The checkout health check must discard the dead conn and redial.
	if _, err := c.Call(context.Background(), wire.KindRMs, nil); err != nil {
		t.Fatalf("call after server restart: %v", err)
	}
	if got := s2.accepts.Load(); got != 1 {
		t.Fatalf("restarted server saw %d accepts, want 1", got)
	}
}

func TestClosedClientRejectsCalls(t *testing.T) {
	s := newTestServer(t, "127.0.0.1:0", ackHandler)
	defer s.close()
	c, err := Dial(s.addr(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	_, err = c.Call(context.Background(), wire.KindRMs, nil)
	var ce *ConnError
	if !errors.As(err, &ce) || !errors.Is(err, ErrClosed) {
		t.Fatalf("call on closed client: %v", err)
	}
}

func TestDialFailsFastOnUnreachablePeer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	if _, err := Dial(addr, Config{DialTimeout: 200 * time.Millisecond}); err == nil {
		t.Fatal("Dial to dead address succeeded")
	}
}

func TestClassifyPassthrough(t *testing.T) {
	if Classify("op", "peer", nil) != nil {
		t.Fatal("nil reclassified")
	}
	re := wire.RemoteError{Text: "x"}
	if got := Classify("op", "peer", re); got != error(re) {
		t.Fatalf("remote error rewrapped: %v", got)
	}
	te := &TimeoutError{Op: "call", Peer: "p", Err: context.DeadlineExceeded}
	if got := Classify("op", "peer", te); got != error(te) {
		t.Fatalf("timeout rewrapped: %v", got)
	}
	if !IsTimeout(Classify("op", "peer", context.DeadlineExceeded)) {
		t.Fatal("DeadlineExceeded not a timeout")
	}
	var ce *ConnError
	if !errors.As(Classify("op", "peer", errors.New("conn reset")), &ce) {
		t.Fatal("generic error not a ConnError")
	}
}
