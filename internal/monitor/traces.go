package monitor

// This file is the debug surface of the monitor: request traces and
// profiling. Both are attached to every daemon monitor handler (served
// on the existing -monitor address) and can additionally be served
// standalone on a separate -debug-addr via NewDebugHandler, for
// deployments that firewall the scrape port but want an operator-only
// debug port.

import (
	"fmt"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"dfsqos/internal/ids"
	"dfsqos/internal/trace"
)

// TraceDump is the JSON shape of GET /traces.
type TraceDump struct {
	// Actor is the process name stamped on every span this daemon opened.
	Actor string `json:"actor"`
	// Spans is the current content of the span ring (unordered; the ring
	// overwrites oldest-first, so this is a sliding window of recent
	// activity).
	Spans []trace.Record `json:"spans"`
	// Exemplars holds the slowest root spans seen per outcome class —
	// these survive ring wraparound, so the worst request of each kind is
	// always retrievable.
	Exemplars map[string][]trace.Record `json:"exemplars"`
}

// TraceHandler serves GET /traces from tr. A nil tracer serves an empty
// dump, so daemons running without -trace still answer the endpoint.
func TraceHandler(tr *trace.Tracer) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		spans := tr.Snapshot()
		if q := r.URL.Query().Get("trace"); q != "" {
			id, err := strconv.ParseInt(q, 10, 64)
			if err != nil {
				http.Error(w, "trace: bad ?trace= id: "+err.Error(), http.StatusBadRequest)
				return
			}
			kept := spans[:0]
			for _, rec := range spans {
				if rec.Trace == ids.RequestID(id) {
					kept = append(kept, rec)
				}
			}
			spans = kept
		}
		if r.URL.Query().Get("format") == "text" {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			fmt.Fprint(w, FormatTimeline(tr.Actor(), spans))
			return
		}
		if spans == nil {
			spans = []trace.Record{} // JSON [] rather than null
		}
		ex := tr.Exemplars()
		if ex == nil {
			ex = map[string][]trace.Record{}
		}
		writeJSON(w, TraceDump{Actor: tr.Actor(), Spans: spans, Exemplars: ex})
	}
}

// FormatTimeline renders spans as a per-trace tree, one line per span,
// indented under its parent, with start offsets relative to the trace's
// earliest span. Traces are ordered by first start time; spans within a
// level by start time. Spans whose parent is not in the dump (the other
// half of the RPC lives in a different process's ring) surface at the
// top level of their trace.
func FormatTimeline(actor string, spans []trace.Record) string {
	var b strings.Builder
	fmt.Fprintf(&b, "actor %s: %d span(s)\n", actor, len(spans))
	if len(spans) == 0 {
		return b.String()
	}

	byTrace := map[ids.RequestID][]trace.Record{}
	for _, rec := range spans {
		byTrace[rec.Trace] = append(byTrace[rec.Trace], rec)
	}
	traceIDs := make([]ids.RequestID, 0, len(byTrace))
	for id := range byTrace {
		traceIDs = append(traceIDs, id)
	}
	sort.Slice(traceIDs, func(i, j int) bool {
		return earliest(byTrace[traceIDs[i]]).Before(earliest(byTrace[traceIDs[j]]))
	})

	for _, id := range traceIDs {
		recs := byTrace[id]
		t0 := earliest(recs)
		fmt.Fprintf(&b, "trace %d — %d span(s)\n", int64(id), len(recs))

		present := map[uint64]bool{}
		for _, rec := range recs {
			present[rec.Span] = true
		}
		children := map[uint64][]trace.Record{}
		var roots []trace.Record
		for _, rec := range recs {
			if rec.Parent != 0 && present[rec.Parent] {
				children[rec.Parent] = append(children[rec.Parent], rec)
			} else {
				roots = append(roots, rec)
			}
		}
		sortByStart(roots)
		for k := range children {
			sortByStart(children[k])
		}
		var walk func(rec trace.Record, depth int)
		walk = func(rec trace.Record, depth int) {
			writeSpanLine(&b, rec, t0, depth)
			for _, ch := range children[rec.Span] {
				walk(ch, depth+1)
			}
		}
		for _, rec := range roots {
			walk(rec, 0)
		}
	}
	return b.String()
}

func writeSpanLine(b *strings.Builder, rec trace.Record, t0 time.Time, depth int) {
	fmt.Fprintf(b, "  [+%8.3fms %9.3fms] %s%-14s %-6s",
		float64(rec.Start.Sub(t0))/float64(time.Millisecond),
		float64(rec.Dur)/float64(time.Millisecond),
		strings.Repeat("  ", depth), rec.Name, rec.Actor)
	if rec.Outcome != "" {
		fmt.Fprintf(b, " %s", rec.Outcome)
	}
	if rec.RM != ids.NoneRM {
		fmt.Fprintf(b, " rm=%v", rec.RM)
	}
	if rec.File != ids.NoneFile {
		fmt.Fprintf(b, " file=%v", rec.File)
	}
	if rec.Request != 0 && rec.Request != rec.Trace {
		fmt.Fprintf(b, " req=%d", int64(rec.Request))
	}
	if rec.Offset != 0 || rec.Bytes != 0 {
		fmt.Fprintf(b, " off=%d bytes=%d", rec.Offset, rec.Bytes)
	}
	b.WriteByte('\n')
}

func earliest(recs []trace.Record) time.Time {
	t := recs[0].Start
	for _, rec := range recs[1:] {
		if rec.Start.Before(t) {
			t = rec.Start
		}
	}
	return t
}

func sortByStart(recs []trace.Record) {
	sort.Slice(recs, func(i, j int) bool { return recs[i].Start.Before(recs[j].Start) })
}

// attachDebug mounts the debug surface — /traces and /debug/pprof/ — on
// mux. The pprof handlers are the stdlib ones, registered explicitly so
// the daemons never depend on http.DefaultServeMux.
func attachDebug(mux *http.ServeMux, tr *trace.Tracer) {
	mux.HandleFunc("/traces", TraceHandler(tr))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// NewDebugHandler builds a standalone debug handler (healthz + traces +
// pprof) for daemons serving their debug surface on a dedicated
// -debug-addr instead of (or in addition to) the monitor address.
func NewDebugHandler(tr *trace.Tracer) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", healthz)
	attachDebug(mux, tr)
	return mux
}
