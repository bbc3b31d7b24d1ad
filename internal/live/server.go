package live

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"dfsqos/internal/faults"
	"dfsqos/internal/trace"
	"dfsqos/internal/wire"
)

// server is the TCP scaffolding MMServer and RMServer share: a listener,
// the set of live connections, one goroutine per connection reading frames
// and passing each to handle, and the knobs both servers expose (logger,
// reply timeout, metrics, fault injector, tracer). The embedding server
// keeps only its constructor, its handle and its dispatch; the exported
// methods below are promoted onto it.
type server struct {
	// name prefixes log lines and labels the no-op metrics sink: "mm",
	// "rm<id>".
	name string
	// handle serves one request; a non-nil error drops the connection.
	handle func(wc *wire.Conn, msg wire.Msg) error
	ln     net.Listener

	mu      sync.Mutex
	closed  bool
	conns   map[net.Conn]struct{}
	wg      sync.WaitGroup
	logf    func(string, ...any)
	replyTO time.Duration
	metrics *ServerMetrics
	inj     faults.Injector
	tracer  *trace.Tracer
}

// listen binds addr and starts the accept loop.
func (s *server) listen(name, addr string, handle func(wc *wire.Conn, msg wire.Msg) error) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("live: %s listen: %w", name, err)
	}
	s.name, s.handle, s.ln = name, handle, ln
	s.conns = make(map[net.Conn]struct{})
	s.logf = func(string, ...any) {}
	s.metrics = nopServerMetrics(name)
	s.wg.Add(1)
	go s.acceptLoop()
	return nil
}

// SetLogger routes diagnostics (default: discard).
func (s *server) SetLogger(logf func(string, ...any)) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	s.logf = logf
}

// SetReplyTimeout arms a per-frame write deadline on every connection
// accepted after the call, so a client that stops reading cannot wedge a
// handler goroutine mid-reply. Zero (default) disables the bound.
func (s *server) SetReplyTimeout(d time.Duration) {
	s.mu.Lock()
	s.replyTO = d
	s.mu.Unlock()
}

// SetMetrics routes request/error/deadline telemetry (default: no-op).
// It applies to requests handled after the call.
func (s *server) SetMetrics(m *ServerMetrics) {
	if m == nil {
		m = nopServerMetrics(s.name)
	}
	s.mu.Lock()
	s.metrics = m
	s.mu.Unlock()
}

// SetFaults arms a fault injector on the server's hook sites: before each
// request handler (faults.PointMMHandle on an MM, faults.PointRMHandle on
// an RM; detail is the message kind) and, on an RM, before each data-plane
// chunk write (faults.PointRMChunk). Nil (the default) disables injection
// entirely.
func (s *server) SetFaults(inj faults.Injector) {
	s.mu.Lock()
	s.inj = inj
	s.mu.Unlock()
}

// SetTracer joins request traces arriving on the wire: a handled message
// whose frame carries a span context opens a server-side child span
// ("mm.<Kind>" on an MM; "rm.bid", "rm.open", "rm.stream", "rm.ingest",
// ... on an RM) recorded in tr's ring, and a traced stream's chunks go
// back out carrying the stream span's context. Nil (the default) disables
// server-side spans; untraced frames never open spans either way.
func (s *server) SetTracer(tr *trace.Tracer) {
	s.mu.Lock()
	s.tracer = tr
	s.mu.Unlock()
}

func (s *server) injector() faults.Injector {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inj
}

// handleFault consults the injector at a server's handle point for one
// arriving message (see applyFault for what handled and err mean). The
// decision, and the kill closure a Kill needs, are built only when an
// injector is armed: an unarmed server handles a message — a stripe lane
// sends one per MiB it reads — without allocating for faults it cannot
// inject.
func (s *server) handleFault(wc *wire.Conn, point faults.Point, kind wire.Kind) (handled bool, err error) {
	inj := s.injector()
	if inj == nil {
		return false, nil
	}
	return applyFault(wc, inj.Decide(point, kind.String()), wire.KindAck, wire.Ack{}, s.halt)
}

func (s *server) tr() *trace.Tracer {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tracer
}

// Addr returns the listening address.
func (s *server) Addr() string { return s.ln.Addr().String() }

// Close stops the listener and all active connections, and waits for
// their goroutines.
func (s *server) Close() error {
	err := s.halt()
	s.wg.Wait()
	return err
}

// halt stops the listener and all active connections without waiting
// for their goroutines: once it returns, no further request is read.
func (s *server) halt() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	for c := range s.conns {
		c.Close()
	}
	return s.ln.Close()
}

func (s *server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	wc := wire.NewConn(conn)
	s.mu.Lock()
	wc.SetWriteTimeout(s.replyTO)
	m := s.metrics
	s.mu.Unlock()
	for {
		msg, err := wc.Read()
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				s.logf("%s: read: %v", s.name, err)
			}
			return
		}
		m.request(msg.Kind)
		if err := s.handle(wc, msg); err != nil {
			m.failure(msg.Kind, err)
			s.logf("%s: handle %v: %v", s.name, msg.Kind, err)
			return
		}
	}
}
