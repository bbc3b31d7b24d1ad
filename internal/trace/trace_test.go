package trace

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"dfsqos/internal/ids"
	"dfsqos/internal/telemetry"
)

func TestSpanLifecycleAndRing(t *testing.T) {
	tr := New(Options{Actor: "test", RingSize: 8})
	root := tr.StartRoot(ids.RequestID(42), "dfsc.access")
	if !root.Context().Valid() {
		t.Fatalf("root context invalid: %+v", root.Context())
	}
	child := tr.StartChild(root.Context(), "dfsc.bid")
	child.SetRM(ids.RMID(3)).SetOutcome("ok")
	child.End()
	root.SetFile(ids.FileID(7)).SetOutcome("ok")
	root.End()

	recs := tr.Snapshot()
	if len(recs) != 2 {
		t.Fatalf("snapshot len = %d, want 2", len(recs))
	}
	var gotRoot, gotChild *Record
	for i := range recs {
		switch recs[i].Name {
		case "dfsc.access":
			gotRoot = &recs[i]
		case "dfsc.bid":
			gotChild = &recs[i]
		}
	}
	if gotRoot == nil || gotChild == nil {
		t.Fatalf("missing records: %+v", recs)
	}
	if gotRoot.Trace != 42 || gotChild.Trace != 42 {
		t.Errorf("trace ids: root=%d child=%d, want 42", gotRoot.Trace, gotChild.Trace)
	}
	if gotChild.Parent != gotRoot.Span {
		t.Errorf("child parent = %d, want %d", gotChild.Parent, gotRoot.Span)
	}
	if gotRoot.Parent != 0 {
		t.Errorf("root parent = %d, want 0", gotRoot.Parent)
	}
	if gotChild.RM != 3 {
		t.Errorf("child RM = %d, want 3", gotChild.RM)
	}
	if gotRoot.File != 7 {
		t.Errorf("root file = %d, want 7", gotRoot.File)
	}
	if gotRoot.Actor != "test" {
		t.Errorf("actor = %q", gotRoot.Actor)
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	if s := tr.StartRoot(1, "x"); s != nil {
		t.Fatal("nil tracer should return nil span")
	}
	if recs := tr.Snapshot(); recs != nil {
		t.Fatal("nil tracer snapshot should be nil")
	}
	if ex := tr.Exemplars(); ex != nil {
		t.Fatal("nil tracer exemplars should be nil")
	}
	if tr.Actor() != "" {
		t.Fatal("nil tracer actor should be empty")
	}

	var s *Span
	// All of these must be no-ops, not panics.
	s.SetRM(1).SetFile(2).SetRequest(3).SetOffset(4).SetBytes(5).SetOutcome("ok")
	s.End()
	if s.Context().Valid() {
		t.Fatal("nil span context should be invalid")
	}
}

func TestStartGuards(t *testing.T) {
	tr := New(Options{Actor: "g"})
	if s := tr.StartRoot(0, "zero"); s != nil {
		t.Fatal("zero trace ID must not start a span")
	}
	if s := tr.StartChild(SpanContext{}, "orphan"); s != nil {
		t.Fatal("invalid parent must not start a span")
	}
	if s := tr.StartChild(SpanContext{Trace: 9}, "half"); s != nil {
		t.Fatal("parent without span ID must not start a span")
	}
}

func TestSamplerGatesRoots(t *testing.T) {
	tr := New(Options{
		Actor:   "s",
		Sampler: func(id ids.RequestID) bool { return id%2 == 0 },
	})
	if s := tr.StartRoot(3, "odd"); s != nil {
		t.Fatal("sampler should have declined odd id")
	}
	s := tr.StartRoot(4, "even")
	if s == nil {
		t.Fatal("sampler should have accepted even id")
	}
	// The declined root's zero context propagates the decision: no
	// server-side child either.
	var declined *Span
	if c := tr.StartChild(declined.Context(), "server"); c != nil {
		t.Fatal("unsampled parent must not produce a child")
	}
}

func TestRingWraparound(t *testing.T) {
	const size = 8
	tr := New(Options{Actor: "w", RingSize: size})
	for i := 1; i <= 20; i++ {
		s := tr.StartRoot(ids.RequestID(i), "op")
		s.End()
	}
	recs := tr.Snapshot()
	if len(recs) != size {
		t.Fatalf("snapshot len = %d, want ring size %d", len(recs), size)
	}
	// Only the newest `size` traces survive.
	for _, r := range recs {
		if r.Trace <= 20-size {
			t.Errorf("record for trace %d survived wraparound", r.Trace)
		}
	}
	if got := tr.ring.len(); got != 20 {
		t.Errorf("ring.len = %d, want 20", got)
	}
}

func TestRingSizeRoundsToPowerOfTwo(t *testing.T) {
	for _, tc := range []struct{ in, want int }{{1, 1}, {3, 4}, {8, 8}, {1000, 1024}} {
		r := newRing(tc.in)
		if r.cap() != tc.want {
			t.Errorf("newRing(%d).cap = %d, want %d", tc.in, r.cap(), tc.want)
		}
	}
}

func TestRingConcurrentWriters(t *testing.T) {
	tr := New(Options{Actor: "c", RingSize: 64})
	const writers, per = 8, 100
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				s := tr.StartRoot(ids.RequestID(w*per+i+1), "op")
				s.SetBytes(int64(i)).End()
			}
		}(w)
	}
	wg.Wait()
	recs := tr.Snapshot()
	if len(recs) != 64 {
		t.Fatalf("snapshot len = %d, want 64", len(recs))
	}
	seen := map[uint64]bool{}
	for _, r := range recs {
		if seen[r.Span] {
			t.Fatalf("duplicate span id %d in snapshot", r.Span)
		}
		seen[r.Span] = true
	}
	if got := tr.ring.len(); got != writers*per {
		t.Errorf("ring.len = %d, want %d", got, writers*per)
	}
}

func TestExemplarEviction(t *testing.T) {
	e := newExemplars(3)
	durs := []time.Duration{5, 1, 9, 3, 7, 2, 8}
	for i, d := range durs {
		e.offer(&Record{Trace: ids.RequestID(i + 1), Outcome: "ok", Dur: d})
	}
	snap := e.snapshot()
	got := snap["ok"]
	if len(got) != 3 {
		t.Fatalf("exemplars len = %d, want 3", len(got))
	}
	// Slowest-first: 9, 8, 7.
	want := []time.Duration{9, 8, 7}
	for i, w := range want {
		if got[i].Dur != w {
			t.Errorf("exemplar[%d].Dur = %d, want %d", i, got[i].Dur, w)
		}
	}
}

func TestExemplarsGroupByOutcomeAndDefaultKey(t *testing.T) {
	tr := New(Options{Actor: "e", ExemplarK: 2})
	for _, oc := range []string{"ok", "error", ""} {
		s := tr.StartRoot(ids.RequestID(len(oc)+1), "op")
		s.SetOutcome(oc)
		s.End()
	}
	// Child spans never reach the exemplar store.
	root := tr.StartRoot(99, "root")
	c := tr.StartChild(root.Context(), "child")
	c.SetOutcome("ok")
	c.End()
	root.SetOutcome("ok")
	root.End()

	ex := tr.Exemplars()
	if len(ex["ok"]) != 2 {
		t.Errorf("ok exemplars = %d, want 2 (k-capped, roots only)", len(ex["ok"]))
	}
	if len(ex["error"]) != 1 {
		t.Errorf("error exemplars = %d, want 1", len(ex["error"]))
	}
	if len(ex[outcomeKey]) != 1 {
		t.Errorf("%s exemplars = %d, want 1", outcomeKey, len(ex[outcomeKey]))
	}
	for _, r := range ex["ok"] {
		if r.Name == "child" {
			t.Error("child span leaked into exemplars")
		}
	}
}

func TestContextRoundTrip(t *testing.T) {
	ctx := context.Background()
	if sc := FromContext(ctx); sc.Valid() {
		t.Fatal("empty context should carry zero SpanContext")
	}
	sc := SpanContext{Trace: 11, Span: 22}
	ctx2 := NewContext(ctx, sc)
	if got := FromContext(ctx2); got != sc {
		t.Fatalf("round trip = %+v, want %+v", got, sc)
	}
	// Zero context attaches nothing.
	if ctx3 := NewContext(ctx, SpanContext{}); ctx3 != ctx {
		t.Fatal("zero SpanContext should return ctx unchanged")
	}
}

func TestTelemetryCounters(t *testing.T) {
	reg := telemetry.NewRegistry()
	tr := New(Options{Actor: "m", Registry: reg})
	s := tr.StartRoot(1, "op")
	s.End()
	tr.StartRoot(2, "op") // started but never ended
	var text strings.Builder
	if err := reg.WritePrometheus(&text); err != nil {
		t.Fatal(err)
	}
	started := strings.Contains(text.String(), "# TYPE dfsqos_trace_spans_started_total ")
	ended := strings.Contains(text.String(), "# TYPE dfsqos_trace_spans_total ")
	if !started || !ended {
		t.Fatalf("trace counters not registered: started=%v ended=%v\n%s", started, ended, text.String())
	}
}

func TestSpanIDsUniqueAcrossTracers(t *testing.T) {
	a := New(Options{Actor: "a"})
	b := New(Options{Actor: "b"})
	sa := a.StartRoot(1, "x")
	sb := b.StartRoot(1, "y")
	if sa.Context().Span == sb.Context().Span {
		t.Fatal("span ids must be process-unique across tracers")
	}
}
