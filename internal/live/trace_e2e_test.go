package live

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"dfsqos/internal/dfsc"
	"dfsqos/internal/ids"
	"dfsqos/internal/monitor"
	"dfsqos/internal/qos"
	"dfsqos/internal/rng"
	"dfsqos/internal/trace"
	"dfsqos/internal/units"
)

// TestChaosFailoverTraceSpansTwoRMs is the tracing acceptance drill: a
// scripted fault kills the serving RM after the first streamed chunk and
// the resulting trace — retrieved from the live monitor's /traces
// endpoint — must show ONE trace ID whose stream segments landed on two
// distinct RMs, the committed ones at contiguous byte offsets, with the
// server-side spans joined to the same trace across real TCP.
func TestChaosFailoverTraceSpansTwoRMs(t *testing.T) {
	lc := startChaosCluster(t, LocalSpec{
		Caps:    []units.BytesPerSec{units.Mbps(200), units.Mbps(100)},
		Holders: map[ids.FileID][]ids.RMID{0: {1, 2}},
		RM:      leaseTTL(5),
	}, map[ids.RMID]string{1: "rm.stream.chunk:after=1:action=kill"})
	client := lc.client(t, qos.Firm)

	var got bytes.Buffer
	res, err := client.ReadStriped(lc.Dir, 0, &got, dfsc.StripeConfig{
		Width:        1,
		MaxFailovers: 2,
		Backoff:      time.Millisecond,
	})
	if err != nil {
		t.Fatalf("failover read: %v", err)
	}
	if res.Failovers != 1 {
		t.Fatalf("failovers = %d, want 1", res.Failovers)
	}
	size := int64(lc.Catalog.File(0).Size)

	// Retrieve the spans the way an operator would: over the monitor's
	// /traces endpoint, not by poking the tracer directly.
	mon := httptest.NewServer(monitor.TraceHandler(lc.tracer))
	defer mon.Close()
	resp, err := http.Get(mon.URL + "/traces")
	if err != nil {
		t.Fatal(err)
	}
	var dump monitor.TraceDump
	if err := json.NewDecoder(resp.Body).Decode(&dump); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// Locate the one multi-segment read trace via its root span.
	var root *trace.Record
	for i := range dump.Spans {
		if dump.Spans[i].Name == "dfsc.stripe" {
			if root != nil {
				t.Fatalf("multiple dfsc.stripe roots: %+v and %+v", *root, dump.Spans[i])
			}
			root = &dump.Spans[i]
		}
	}
	if root == nil {
		t.Fatalf("no dfsc.stripe root span among %d spans", len(dump.Spans))
	}
	if root.Outcome != "ok" || root.Bytes != size {
		t.Errorf("root outcome=%q bytes=%d, want ok/%d", root.Outcome, root.Bytes, size)
	}

	// A segment the corpse left unfinished ends "failover" and is
	// re-fetched whole on the survivor, so the committed ("ok") segments
	// are the ones that tile the file.
	var segs []trace.Record
	var streams []trace.Record
	var mmSpans, accessSpans int
	rms := map[ids.RMID]bool{}
	for _, rec := range dump.Spans {
		if rec.Trace != root.Trace {
			continue
		}
		switch {
		case rec.Name == "dfsc.segment":
			rms[rec.RM] = true
			if rec.Outcome == "ok" {
				segs = append(segs, rec)
			}
		case rec.Name == "rm.stream":
			streams = append(streams, rec)
		case strings.HasPrefix(rec.Name, "mm."):
			mmSpans++
		case rec.Name == "dfsc.access":
			accessSpans++
		}
	}

	// >= 2 segments, on distinct RMs, the committed ones at contiguous byte
	// offsets, summing to the whole file.
	if len(segs) < 2 {
		t.Fatalf("trace %d has %d stream segment(s), want >= 2", root.Trace, len(segs))
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].Offset < segs[j].Offset })
	if segs[0].Offset != 0 {
		t.Errorf("first segment starts at %d, want 0", segs[0].Offset)
	}
	var total int64
	for i, s := range segs {
		if s.Parent != root.Span {
			t.Errorf("segment %d has parent %d, want root span %d", i, s.Parent, root.Span)
		}
		if i > 0 {
			prev := segs[i-1]
			if s.Offset != prev.Offset+prev.Bytes {
				t.Errorf("segment %d resumes at %d, want %d (prev offset %d + %d bytes)",
					i, s.Offset, prev.Offset+prev.Bytes, prev.Offset, prev.Bytes)
			}
		}
		total += s.Bytes
	}
	if total != size {
		t.Errorf("segments deliver %d bytes, want %d", total, size)
	}
	if len(rms) < 2 {
		t.Errorf("segments span %d distinct RM(s) (%v), want >= 2", len(rms), rms)
	}

	// Cross-process joins: the RM-side stream spans and the MM lookup
	// carried the trace over real TCP; the first lane and its replacement
	// each negotiated through a child dfsc.access span of the same trace.
	if len(streams) < 2 {
		t.Errorf("trace has %d rm.stream server span(s), want >= 2", len(streams))
	}
	if mmSpans == 0 {
		t.Error("no mm.* server span joined the trace")
	}
	if accessSpans < 2 {
		t.Errorf("trace has %d dfsc.access negotiation span(s), want >= 2 (one per lane admission)", accessSpans)
	}

	// The human timeline renders the same trace (the e2e smoke for
	// ?format=text).
	resp, err = http.Get(mon.URL + "/traces?format=text")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"dfsc.stripe", "dfsc.segment", "rm.stream", "failover"} {
		if !strings.Contains(string(text), want) {
			t.Errorf("text timeline missing %q", want)
		}
	}
}

// TestTraceUnsampledRequestOpensNoServerSpans pins the implicit sampling
// propagation end-to-end: a client whose sampler declines writes untraced
// frames, so neither the MM nor the RMs open spans for that request.
func TestTraceUnsampledRequestOpensNoServerSpans(t *testing.T) {
	lc := startChaosCluster(t, LocalSpec{
		Caps:    []units.BytesPerSec{units.Mbps(100)},
		Holders: map[ids.FileID][]ids.RMID{0: {1}},
	}, nil)

	// Replace the cluster tracer's view on the client side with one that
	// never samples; the servers keep the shared ring.
	never := trace.New(trace.Options{Actor: "dfsc-unsampled", Sampler: func(ids.RequestID) bool { return false }})
	c, err := dfsc.New(dfsc.Options{
		ID:        2,
		Mapper:    lc.Mapper,
		Directory: lc.Dir,
		Scheduler: lc.Sched,
		Catalog:   lc.Catalog,
		Scenario:  qos.Soft,
		Rand:      rng.New(7),
		Tracer:    never,
	})
	if err != nil {
		t.Fatal(err)
	}
	out, release := c.AccessHeld(0)
	if !out.OK {
		t.Fatalf("access failed: %s", out.Reason)
	}
	release()
	if got := len(lc.tracer.Snapshot()); got != 0 {
		t.Fatalf("unsampled request opened %d server span(s), want 0", got)
	}
	if got := len(never.Snapshot()); got != 0 {
		t.Fatalf("declining sampler recorded %d client span(s), want 0", got)
	}
}
