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
// and passing each to handle, and the settings a node arms on both (reply
// timeout, metrics, tracer, logger, fault injector). The embedding server
// keeps only its constructor, its handle and its dispatch.
type server struct {
	// name prefixes log lines and labels the no-op metrics sink: "mm",
	// "rm<id>".
	name string
	// handle serves one request; a non-nil error drops the connection.
	handle func(wc *wire.Conn, msg wire.Msg) error
	ln     net.Listener

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
	// replyTO is a per-frame write deadline, so a client that stops
	// reading cannot wedge a handler mid-reply (zero: none).
	replyTO time.Duration
	metrics *ServerMetrics
	logf    func(string, ...any)
	// tracer joins request traces arriving on the wire: a frame carrying
	// a span context opens a server-side child span ("mm.<Kind>" on an
	// MM; "rm.bid", "rm.open", "rm.stream", ... on an RM), and a traced
	// stream's chunks go back out carrying its context (nil: no spans).
	tracer *trace.Tracer
	// inj is consulted before each request handler (faults.PointMMHandle
	// on an MM, faults.PointRMHandle on an RM; detail is the message kind)
	// and, on an RM, before each data-plane chunk write
	// (faults.PointRMChunk). Nil disables injection.
	inj faults.Injector
	// onKill is the rest of the process's death when a fault kills the
	// server: the node stops its loops (nil: the server alone dies).
	onKill func()
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
	s.metrics = NewServerMetrics(nil, name) // an unregistered sink
	s.wg.Add(1)
	go s.acceptLoop()
	return nil
}

// arm applies a node's settings, before the node advertises the server:
// they hold for the connections accepted after it. A nil logf keeps the
// log discarded; a nil script injects nothing.
func (s *server) arm(replyTO time.Duration, met *ServerMetrics, tr *trace.Tracer, logf func(string, ...any), script *faults.Script, onKill func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.replyTO, s.metrics, s.tracer, s.onKill = replyTO, met, tr, onKill
	if logf != nil {
		s.logf = logf
	}
	if script != nil {
		s.inj = script
	}
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
	return applyFault(wc, inj.Decide(point, kind.String()), wire.KindAck, wire.Ack{}, s.kill)
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

// isClosed reports whether the server has been closed (or killed by a
// fault).
func (s *server) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// kill is an injected crash: the server halts, then the rest of its
// process dies with it (onKill). Like halt it does not wait for the
// handlers, the one that fired it among them.
func (s *server) kill() {
	s.halt()
	s.mu.Lock()
	onKill := s.onKill
	s.mu.Unlock()
	if onKill != nil {
		onKill()
	}
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
	m, logf := s.metrics, s.logf
	s.mu.Unlock()
	for {
		msg, err := wc.Read()
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				logf("%s: read: %v", s.name, err)
			}
			return
		}
		m.request(msg.Kind)
		if err := s.handle(wc, msg); err != nil {
			m.failure(msg.Kind, err)
			logf("%s: handle %v: %v", s.name, msg.Kind, err)
			return
		}
	}
}
