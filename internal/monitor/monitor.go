// Package monitor exposes the runtime state of the live daemons over
// HTTP: the paper's RM "maintain[s] the dynamic runtime information, e.g.
// the current remained storage bandwidth, of its host during the data
// communication" — this package makes that information observable, which
// is what the figures' utilization curves are drawn from in a live
// deployment. Every daemon serves the same surface; what a node reports
// is the series its telemetry registry reads of its state at scrape time.
//
// Endpoints:
//
//	GET /healthz        → 200 "ok"
//	GET /metrics        → Prometheus text exposition (telemetry registry)
//	GET /traces         → span-ring dump + slow-request exemplars (JSON;
//	                      ?format=text renders a per-trace timeline,
//	                      ?trace=<id> filters to one request)
//	GET /debug/pprof/…  → stdlib profiling handlers
package monitor

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"time"

	"dfsqos/internal/telemetry"
	"dfsqos/internal/trace"
)

// NewHandler builds a daemon's monitor: /healthz, reg's /metrics and the
// debug surface. reg may be nil, in which case /metrics serves an empty
// exposition; tr may be nil (empty /traces).
func NewHandler(reg *telemetry.Registry, tr *trace.Tracer) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", healthz)
	mux.Handle("/metrics", reg.Handler())
	attachDebug(mux, tr)
	return mux
}

func healthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// Serve starts an HTTP server on addr with the handler and returns it
// together with the bound address. Callers stop it with Server.Close.
func Serve(addr string, h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", fmt.Errorf("monitor: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	go srv.Serve(ln)
	return srv, ln.Addr().String(), nil
}

// Shutdown stops a server started by Serve, waiting up to timeout for
// in-flight scrapes to drain before force-closing. The listener is gone
// when Shutdown returns (no leaked socket across daemon SIGTERM), even
// if a handler is still stuck past the deadline.
func Shutdown(srv *http.Server, timeout time.Duration) error {
	if srv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	err := srv.Shutdown(ctx)
	if err != nil {
		// Deadline passed with connections still open: drop them. The
		// listener itself was already closed by Shutdown.
		srv.Close()
	}
	return err
}
