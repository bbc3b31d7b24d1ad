// Package trace provides request-scoped span tracing for the ECNP
// message sequence (DFSC -> MM -> RM). A request is identified by its
// ids.RequestID — the same identity the QoS planes already negotiate,
// admit, and fail over on — so a trace stitches together exactly the
// hops the paper's per-request QoS story is about: the readdir query,
// the CFP fan-out (one child span per RM bid), the open/admission
// decision, each stream segment (including those re-fetched from a
// replacement replica after a failover), and replication copies.
//
// # Model
//
// A SpanContext is the wire-portable identity of a span: the trace ID
// (an ids.RequestID) plus a process-unique span ID. It is small (16
// bytes), valid only when both halves are non-zero, and travels in a
// 16-byte slot of the wire frame header (present when the frame's flags
// byte says so), so the hot data plane stays zero-alloc.
//
// Spans are started with Tracer.StartRoot (client side, minting a new
// trace from a request ID, subject to sampling) or Tracer.StartChild
// (either a local child of another span, or a server-side span joined
// from a SpanContext that arrived on the wire). Both return *Span; a
// nil *Span is a valid no-op — every method on Span is nil-safe, so
// call sites never branch on "is tracing enabled". An unsampled root
// yields a nil span, whose Context() is the zero SpanContext, which
// writes untraced frames, which open no server spans: the sampling
// decision propagates implicitly across the cluster.
//
// Finished spans are recorded into a lock-free per-process ring buffer
// (fixed power-of-two capacity, overwriting oldest) and — for root
// spans — into a per-outcome top-K-by-duration exemplar store, so the
// slowest request of each outcome class survives ring wraparound. The
// monitor exposes both via GET /traces.
//
// # Cost contract
//
// Span End performs one small allocation (the immutable Record placed
// in the ring). Spans are per-RPC and per-segment, never per-chunk, so
// this is control-plane cost; the data plane's per-frame encode/decode
// paths carry only the 16-byte SpanContext and remain 0 allocs/op
// (enforced by the wire benchmark gate).
package trace

import (
	"context"
	"sync/atomic"
	"time"

	"dfsqos/internal/ids"
	"dfsqos/internal/telemetry"
)

// SpanContext identifies a span within a trace. The zero value is
// "not traced" and is what FromContext returns when no span has been
// attached; the wire codec transmits it as an absent slot.
type SpanContext struct {
	// Trace is the trace identity: the request ID the ECNP planes
	// negotiate on. All spans of one logical request share it.
	Trace ids.RequestID
	// Span is the process-unique ID of the span itself (used as the
	// Parent of any children).
	Span uint64
}

// Valid reports whether both halves are non-zero, i.e. whether this
// context names a real span that children may attach to.
func (sc SpanContext) Valid() bool { return sc.Trace != 0 && sc.Span != 0 }

// Record is the immutable result of a finished span. Records are what
// the ring buffer and exemplar store hold and what GET /traces serves.
type Record struct {
	Trace   ids.RequestID `json:"trace"`
	Span    uint64        `json:"span"`
	Parent  uint64        `json:"parent,omitempty"`
	Name    string        `json:"name"`
	Actor   string        `json:"actor"`
	Outcome string        `json:"outcome,omitempty"`

	// RM and File default to their None sentinels (-1), meaning
	// "not applicable to this hop".
	RM      ids.RMID      `json:"rm"`
	File    ids.FileID    `json:"file"`
	Request ids.RequestID `json:"request,omitempty"`
	Offset  int64         `json:"offset,omitempty"`
	Bytes   int64         `json:"bytes,omitempty"`
	// Tenant tags the requesting tenant (0 = untenanted), so /traces can
	// be filtered per tenant during an abusive-tenant incident.
	Tenant ids.TenantID `json:"tenant,omitempty"`

	Start time.Time     `json:"start"`
	Dur   time.Duration `json:"dur_ns"`
}

// spanSeq is the process-global span-ID allocator. Being global (not
// per-Tracer) keeps span IDs unique even when tests share one ring
// across several tracers standing in for different daemons.
var spanSeq atomic.Uint64

func nextSpanID() uint64 { return spanSeq.Add(1) }

// Span is an in-flight span. A nil *Span is a no-op: every method is
// safe to call and End does nothing, so callers thread spans without
// enabled-checks. Span is not safe for concurrent mutation; each span
// belongs to the goroutine driving its request hop.
type Span struct {
	tr  *Tracer
	rec Record
}

// Context returns the SpanContext to propagate to children or onto the
// wire. Nil or unsampled spans return the zero SpanContext.
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return SpanContext{Trace: s.rec.Trace, Span: s.rec.Span}
}

// SetRM records which RM served this hop.
func (s *Span) SetRM(rm ids.RMID) *Span {
	if s != nil {
		s.rec.RM = rm
	}
	return s
}

// SetFile records the file the hop operated on.
func (s *Span) SetFile(f ids.FileID) *Span {
	if s != nil {
		s.rec.File = f
	}
	return s
}

// SetRequest records the per-segment request ID when it differs from
// the trace ID (failover segments re-negotiate under fresh requests).
func (s *Span) SetRequest(r ids.RequestID) *Span {
	if s != nil {
		s.rec.Request = r
	}
	return s
}

// SetOffset records the starting byte offset of a stream segment.
func (s *Span) SetOffset(off int64) *Span {
	if s != nil {
		s.rec.Offset = off
	}
	return s
}

// SetBytes records how many bytes the hop moved.
func (s *Span) SetBytes(n int64) *Span {
	if s != nil {
		s.rec.Bytes = n
	}
	return s
}

// SetTenant records the requesting tenant on the span.
func (s *Span) SetTenant(t ids.TenantID) *Span {
	if s != nil {
		s.rec.Tenant = t
	}
	return s
}

// SetOutcome labels the span's result ("ok", "error", "failover",
// "firm-fallback", ...). Root outcomes key the exemplar store.
func (s *Span) SetOutcome(o string) *Span {
	if s != nil {
		s.rec.Outcome = o
	}
	return s
}

// Outcome returns the outcome set so far ("" when unset or nil), letting
// wrappers apply a default without clobbering a handler's verdict.
func (s *Span) Outcome() string {
	if s == nil {
		return ""
	}
	return s.rec.Outcome
}

// End finishes the span: stamps the duration, publishes the Record to
// the ring, and offers root spans to the exemplar store. End on a nil
// span is a no-op. End must be called at most once.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.rec.Dur = time.Since(s.rec.Start)
	t := s.tr
	rec := s.rec
	t.ring.put(&rec)
	t.met.ended.Inc()
	if rec.Parent == 0 {
		t.ex.offer(&rec)
	}
}

// Options configures a Tracer. The zero value is usable: defaults are
// applied by New.
type Options struct {
	// Actor names the process in every record ("mm", "rm1", "dfsc1").
	Actor string
	// RingSize is the span ring capacity; rounded up to a power of
	// two. Default 4096.
	RingSize int
	// ExemplarK is how many slow-request exemplars to keep per
	// outcome. Default 16.
	ExemplarK int
	// Registry optionally receives trace telemetry
	// (dfsqos_trace_spans_total, dfsqos_trace_drops_total).
	Registry *telemetry.Registry
	// Sampler decides whether StartRoot traces a given request. Nil
	// means always sample.
	Sampler func(ids.RequestID) bool
}

type metrics struct {
	started *telemetry.Counter
	ended   *telemetry.Counter
}

// Tracer owns the span ring and exemplar store for one process. All
// methods are safe for concurrent use. A nil *Tracer is a no-op
// tracer: StartRoot and StartChild return nil spans.
type Tracer struct {
	actor   string
	sampler func(ids.RequestID) bool
	ring    *ring
	ex      *exemplars
	met     metrics
}

// New builds a Tracer. Pass a nil Registry to skip telemetry.
func New(o Options) *Tracer {
	if o.RingSize <= 0 {
		o.RingSize = 4096
	}
	if o.ExemplarK <= 0 {
		o.ExemplarK = 16
	}
	t := &Tracer{
		actor:   o.Actor,
		sampler: o.Sampler,
		ring:    newRing(o.RingSize),
		ex:      newExemplars(o.ExemplarK),
	}
	t.met.started = o.Registry.NewCounter("dfsqos_trace_spans_started_total", "Spans opened by this process.")
	t.met.ended = o.Registry.NewCounter("dfsqos_trace_spans_total", "Spans finished and recorded into the ring.")
	return t
}

// Actor returns the process name stamped on records.
func (t *Tracer) Actor() string {
	if t == nil {
		return ""
	}
	return t.actor
}

// StartRoot opens a root span for the given trace (request) ID. It
// returns nil — a no-op span — when the tracer is nil, the trace ID is
// zero, or the sampler declines, and that nil propagates: the span's
// zero Context writes untraced frames and downstream servers open no
// spans.
func (t *Tracer) StartRoot(traceID ids.RequestID, name string) *Span {
	if t == nil || traceID == 0 {
		return nil
	}
	if t.sampler != nil && !t.sampler(traceID) {
		return nil
	}
	return t.start(traceID, 0, name)
}

// StartChild opens a child of parent — either a local parent span's
// Context() or a SpanContext that arrived on the wire. An invalid
// parent yields a nil span, so untraced requests cost nothing on the
// server side.
func (t *Tracer) StartChild(parent SpanContext, name string) *Span {
	if t == nil || !parent.Valid() {
		return nil
	}
	return t.start(parent.Trace, parent.Span, name)
}

func (t *Tracer) start(traceID ids.RequestID, parent uint64, name string) *Span {
	t.met.started.Inc()
	return &Span{
		tr: t,
		rec: Record{
			Trace:  traceID,
			Span:   nextSpanID(),
			Parent: parent,
			Name:   name,
			Actor:  t.actor,
			File:   ids.NoneFile,
			RM:     ids.NoneRM,
			Start:  time.Now(),
		},
	}
}

// Snapshot returns a copy of every record currently in the ring, in
// unspecified order. Nil tracers return nil.
func (t *Tracer) Snapshot() []Record {
	if t == nil {
		return nil
	}
	return t.ring.snapshot()
}

// Exemplars returns the slow-request exemplar records grouped by
// outcome, each group sorted slowest-first.
func (t *Tracer) Exemplars() map[string][]Record {
	if t == nil {
		return nil
	}
	return t.ex.snapshot()
}

// ctxKey is the context key for SpanContext propagation.
type ctxKey struct{}

// NewContext returns ctx carrying sc. A zero (invalid) sc returns ctx
// unchanged so untraced paths add no context layer.
func NewContext(ctx context.Context, sc SpanContext) context.Context {
	if !sc.Valid() {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, sc)
}

// FromContext extracts the SpanContext carried by ctx, or the zero
// SpanContext when none is attached.
func FromContext(ctx context.Context) SpanContext {
	sc, _ := ctx.Value(ctxKey{}).(SpanContext)
	return sc
}
