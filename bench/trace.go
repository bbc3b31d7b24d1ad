package main

import (
	"context"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dfsqos/internal/ecnp"
	"dfsqos/internal/ids"
	"dfsqos/internal/live"
	"dfsqos/internal/selection"
)

// Span recording lives in the benchmark: decorators around the
// interfaces dfsc.New and ReadStriped already take note when each call
// into a layer starts and ends. The end-to-end numbers come from a pass
// that uses no decorator at all; the traced pass runs the same loop
// through them, and the ratio of the two throughputs is the overhead.

type spanKind uint8

const (
	spanOp          spanKind = iota // root: one AccessHeld+release, ReadStriped, upload, fetch or scenario.Run
	spanLookup                      // mm.lookup
	spanCFP                         // rm.cfp
	spanOpen                        // rm.open
	spanClose                       // rm.close
	spanStream                      // rm.stream (StreamAt, the 1-wide reader)
	spanStreamRange                 // rm.stream_range (one stripe segment)
	numSpanKinds
)

var spanNames = [numSpanKinds]string{"op", "mm.lookup", "rm.cfp", "rm.open", "rm.close", "rm.stream", "rm.stream_range"}

// span is one timed call. Spans of one operation share Op; Request is
// the dfsc request id the call carried (0 where the call has none).
type span struct {
	Op      uint32
	Kind    spanKind
	Start   int64 // ns since the recorder's epoch
	End     int64
	Request ids.RequestID
}

// recorder keeps every span in memory until the pass ends.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	ops   uint32
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// opTracer ties the calls one client makes to the operation it is
// running. A client runs one operation at a time (a closed loop), so a
// single current-operation slot is enough; a striped read's lanes run
// concurrently but all belong to that one operation. With rec nil (an
// untraced pass) begin and end do nothing, so a workload's loop is
// written once.
type opTracer struct {
	rec *recorder
	cur atomic.Uint32
}

// begin opens a root span and returns its id and start time.
func (t *opTracer) begin() (op uint32, start int64) {
	if t.rec == nil {
		return 0, 0
	}
	t.rec.mu.Lock()
	t.rec.ops++
	op = t.rec.ops
	t.rec.mu.Unlock()
	t.cur.Store(op)
	return op, t.rec.now()
}

// end closes the root span opened by begin.
func (t *opTracer) end(op uint32, start int64, req ids.RequestID) {
	if t.rec == nil {
		return
	}
	t.rec.add(span{Op: op, Kind: spanOp, Start: start, End: t.rec.now(), Request: req})
	t.cur.Store(0)
}

func (t *opTracer) child(kind spanKind, start int64, req ids.RequestID) {
	t.rec.add(span{Op: t.cur.Load(), Kind: kind, Start: start, End: t.rec.now(), Request: req})
}

// The decorators embed the concrete live client types, so every optional
// interface dfsc type-asserts for on a mapper or provider
// (LookupContext/LookupErrContext, ecnp.CtxBidder, OpenContext) is still
// there on the decorated value and the traced client takes the same code
// path as the plain one; the methods below shadow the calls that are
// timed.

type tracedMapper struct {
	*live.MMClient
	t *opTracer
}

func (m tracedMapper) Lookup(file ids.FileID) []ids.RMID {
	t0 := m.t.rec.now()
	out := m.MMClient.Lookup(file)
	m.t.child(spanLookup, t0, 0)
	return out
}

func (m tracedMapper) LookupContext(ctx context.Context, file ids.FileID) []ids.RMID {
	t0 := m.t.rec.now()
	out := m.MMClient.LookupContext(ctx, file)
	m.t.child(spanLookup, t0, 0)
	return out
}

func (m tracedMapper) LookupErrContext(ctx context.Context, file ids.FileID) ([]ids.RMID, error) {
	t0 := m.t.rec.now()
	out, err := m.MMClient.LookupErrContext(ctx, file)
	m.t.child(spanLookup, t0, 0)
	return out, err
}

type tracedProvider struct {
	*live.RMClient
	t *opTracer
}

func (p *tracedProvider) HandleCFP(cfp ecnp.CFP) selection.Bid {
	t0 := p.t.rec.now()
	bid := p.RMClient.HandleCFP(cfp)
	p.t.child(spanCFP, t0, cfp.Request)
	return bid
}

func (p *tracedProvider) HandleCFPContext(ctx context.Context, cfp ecnp.CFP) selection.Bid {
	t0 := p.t.rec.now()
	bid := p.RMClient.HandleCFPContext(ctx, cfp)
	p.t.child(spanCFP, t0, cfp.Request)
	return bid
}

func (p *tracedProvider) Open(req ecnp.OpenRequest) ecnp.OpenResult {
	t0 := p.t.rec.now()
	res := p.RMClient.Open(req)
	p.t.child(spanOpen, t0, req.Request)
	return res
}

func (p *tracedProvider) OpenContext(ctx context.Context, req ecnp.OpenRequest) ecnp.OpenResult {
	t0 := p.t.rec.now()
	res := p.RMClient.OpenContext(ctx, req)
	p.t.child(spanOpen, t0, req.Request)
	return res
}

func (p *tracedProvider) Close(request ids.RequestID) {
	t0 := p.t.rec.now()
	p.RMClient.Close(request)
	p.t.child(spanClose, t0, request)
}

// tracedDirectory decorates provider resolution and both stream calls.
// Wrappers are cached per RM so the traced pass does not allocate one per
// CFP; a provider the directory re-dialed gets a fresh wrapper.
type tracedDirectory struct {
	inner *live.Directory
	t     *opTracer

	mu       sync.Mutex
	wrappers map[ids.RMID]*tracedProvider
}

func newTracedDirectory(inner *live.Directory, t *opTracer) *tracedDirectory {
	return &tracedDirectory{inner: inner, t: t, wrappers: make(map[ids.RMID]*tracedProvider)}
}

func (d *tracedDirectory) Provider(id ids.RMID) (ecnp.Provider, bool) {
	c, ok := d.inner.RMClient(id)
	if !ok {
		return nil, false
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if w, ok := d.wrappers[id]; ok && w.RMClient == c {
		return w, true
	}
	w := &tracedProvider{RMClient: c, t: d.t}
	d.wrappers[id] = w
	return w, true
}

func (d *tracedDirectory) StreamAt(ctx context.Context, rm ids.RMID, file ids.FileID, req ids.RequestID, offset int64, w io.Writer, sum *uint64) (int64, error) {
	t0 := d.t.rec.now()
	n, err := d.inner.StreamAt(ctx, rm, file, req, offset, w, sum)
	d.t.child(spanStream, t0, req)
	return n, err
}

func (d *tracedDirectory) StreamRange(ctx context.Context, rm ids.RMID, file ids.FileID, req ids.RequestID, offset, length int64, w io.Writer, sum *uint64) (int64, error) {
	t0 := d.t.rec.now()
	n, err := d.inner.StreamRange(ctx, rm, file, req, offset, length, w, sum)
	d.t.child(spanStreamRange, t0, req)
	return n, err
}

// traceSummary is what the spans of one pass say about where an
// operation's time goes.
type traceSummary struct {
	ops      int
	opMs     []float64               // root span durations
	kindMs   [numSpanKinds][]float64 // per operation: the longest span of the kind (the one that blocks)
	covered  [numSpanKinds]float64   // ns of root time covered by the union of the kind's spans
	busy     [numSpanKinds]float64   // ns summed over the kind's spans (parallel spans count each)
	count    [numSpanKinds]int
	rootNs   float64
	selfNs   float64 // root time no child span covers
	orphaned int     // child spans whose operation has no root span
}

// share is the part of all operation time the kind's spans cover.
func (s *traceSummary) share(k spanKind) float64 {
	if s.rootNs == 0 {
		return 0
	}
	return s.covered[k] / s.rootNs
}

func (s *traceSummary) selfShare() float64 {
	if s.rootNs == 0 {
		return 0
	}
	return s.selfNs / s.rootNs
}

func (s *traceSummary) perOp(k spanKind) float64 {
	if s.ops == 0 {
		return 0
	}
	return float64(s.count[k]) / float64(s.ops)
}

type interval struct{ start, end int64 }

// unionWithin returns how many ns of [lo, hi] the intervals cover.
func unionWithin(ivs []interval, lo, hi int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].start < ivs[j].start })
	var total int64
	at := lo
	for _, iv := range ivs {
		s, e := iv.start, iv.end
		if s < at {
			s = at
		}
		if e > hi {
			e = hi
		}
		if e > s {
			total += e - s
			at = e
		}
	}
	return total
}

// summarize groups spans by operation. A layer's self time is its
// span's duration minus the part of that interval its child spans cover.
func summarize(spans []span) *traceSummary {
	byOp := make(map[uint32][]span)
	roots := make(map[uint32]span)
	for _, sp := range spans {
		if sp.Kind == spanOp {
			roots[sp.Op] = sp
		} else {
			byOp[sp.Op] = append(byOp[sp.Op], sp)
		}
	}
	sum := &traceSummary{ops: len(roots)}
	for op, children := range byOp {
		if _, ok := roots[op]; !ok {
			sum.orphaned += len(children)
		}
	}
	for op, root := range roots {
		dur := root.End - root.Start
		sum.rootNs += float64(dur)
		sum.opMs = append(sum.opMs, float64(dur)/1e6)
		var perKind [numSpanKinds][]interval
		var all []interval
		for _, c := range byOp[op] {
			iv := interval{c.Start, c.End}
			perKind[c.Kind] = append(perKind[c.Kind], iv)
			all = append(all, iv)
			sum.count[c.Kind]++
			sum.busy[c.Kind] += float64(c.End - c.Start)
		}
		for k := spanKind(1); k < numSpanKinds; k++ {
			if len(perKind[k]) == 0 {
				continue
			}
			var longest int64
			for _, iv := range perKind[k] {
				if d := iv.end - iv.start; d > longest {
					longest = d
				}
			}
			sum.kindMs[k] = append(sum.kindMs[k], float64(longest)/1e6)
			sum.covered[k] += float64(unionWithin(perKind[k], root.Start, root.End))
		}
		sum.selfNs += float64(dur - unionWithin(all, root.Start, root.End))
	}
	return sum
}
