// Package monitor exposes the runtime state of the live daemons over
// HTTP/JSON: the paper's RM "maintain[s] the dynamic runtime information,
// e.g. the current remained storage bandwidth, of its host during the data
// communication" — this package makes that information observable, which
// is what the figures' utilization curves are drawn from in a live
// deployment.
//
// Endpoints:
//
//	GET /healthz        → 200 "ok"
//	GET /stats          → JSON snapshot (RM, MM, or DFSC flavour)
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

	"dfsqos/internal/dfsc"
	"dfsqos/internal/ecnp"
	"dfsqos/internal/ids"
	"dfsqos/internal/rm"
	"dfsqos/internal/telemetry"
	"dfsqos/internal/trace"
	"dfsqos/internal/vdisk"
)

// RMStats is the JSON shape of an RM's /stats reply.
type RMStats struct {
	ID            string  `json:"id"`
	CapacityBps   float64 `json:"capacityBps"`
	AllocatedBps  float64 `json:"allocatedBps"`
	RemainingBps  float64 `json:"remainingBps"`
	FracRemaining float64 `json:"fracRemaining"`
	ActiveStreams int     `json:"activeStreams"`
	StorageBytes  int64   `json:"storageBytes"`
	StorageUsed   int64   `json:"storageUsed"`
	Files         int     `json:"files"`
	CFPs          int64   `json:"cfps"`
	Opens         int64   `json:"opens"`
	// Refusals counts refusals by reason label, the ones given only.
	Refusals        map[string]int64 `json:"refusals"`
	RepTriggers     int64            `json:"repTriggers"`
	RepTransfers    int64            `json:"repTransfers"`
	RepMigrations   int64            `json:"repMigrations"`
	OffersAccepted  int64            `json:"offersAccepted"`
	OffersRejected  int64            `json:"offersRejected"`
	GCEvictions     int64            `json:"gcEvictions"`
	LeaseTTLSec     float64          `json:"leaseTTLSec"`
	LeaseExpiries   int64            `json:"leaseExpiries"`
	VirtualTimeSecs float64          `json:"virtualTimeSecs"`
}

// NewRMHandler builds the HTTP handler for one RM daemon. disk may be
// nil; reg may be nil, in which case /metrics serves an empty exposition;
// tr may be nil, in which case /traces serves an empty dump.
func NewRMHandler(node *rm.RM, disk *vdisk.Disk, sched ecnp.Scheduler, reg *telemetry.Registry, tr *trace.Tracer) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", healthz)
	mux.Handle("/metrics", reg.Handler())
	AttachDebug(mux, tr)
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		now := sched.Now()
		snap := node.Snapshot(now)
		st := node.Stats()
		info := node.Info()
		out := RMStats{
			ID:              info.ID.String(),
			CapacityBps:     float64(info.Capacity),
			AllocatedBps:    float64(snap.Allocated),
			RemainingBps:    float64(info.Capacity - snap.Allocated),
			FracRemaining:   float64(info.Capacity-snap.Allocated) / float64(info.Capacity),
			ActiveStreams:   snap.Streams,
			StorageBytes:    int64(info.StorageBytes),
			StorageUsed:     int64(node.StorageUsed()),
			Files:           node.NumFiles(),
			CFPs:            st.CFPs,
			Opens:           st.Opens,
			Refusals:        make(map[string]int64),
			RepTriggers:     st.RepTriggers,
			RepTransfers:    st.RepTransfers,
			RepMigrations:   st.RepMigrations,
			OffersAccepted:  st.OffersAccepted,
			OffersRejected:  st.OffersRejected,
			GCEvictions:     st.GCEvictions,
			LeaseTTLSec:     node.LeaseTTL(),
			LeaseExpiries:   st.LeaseExpiries,
			VirtualTimeSecs: now.Seconds(),
		}
		for why, n := range st.Refusals {
			if n > 0 {
				out.Refusals[ecnp.Refusal(why).Label()] = n
			}
		}
		if disk != nil {
			out.StorageUsed = int64(disk.Used())
		}
		writeJSON(w, out)
	})
	return mux
}

// MMStats is the JSON shape of the MM's /stats reply.
type MMStats struct {
	RMs []MMRMEntry `json:"rms"`
	// LiveRMs counts the RMs currently within their liveness window
	// (equals len(RMs) while liveness tracking is off).
	LiveRMs int `json:"liveRMs"`
}

// MMRMEntry is one row of the global resource list.
type MMRMEntry struct {
	ID          string  `json:"id"`
	CapacityBps float64 `json:"capacityBps"`
	Addr        string  `json:"addr"`
	// Alive reports the liveness verdict (always true while liveness
	// tracking is off: an RM the MM would answer with is advertised).
	Alive bool `json:"alive"`
	// Epoch is the RM's liveness epoch: how many times the MM has seen it
	// die and come back.
	Epoch uint64 `json:"epoch"`
}

// MMLiveness is what the MM's /stats page reads: the resource list with
// each RM's liveness verdict and epoch. Both shapes mmd serves have it —
// mm.Manager, and a shard-group member (mm.ShardMember, served as
// live.MMShard).
type MMLiveness interface {
	AllRMs() []ecnp.RMInfo
	Alive(id ids.RMID) bool
	Epoch(id ids.RMID) uint64
	LiveCount() int
}

// NewMMHandler builds the HTTP handler for the MM daemon: /stats lists
// every RM with its liveness (dead RMs as rows with alive=false) and the
// live count. reg may be nil, in which case /metrics serves an empty
// exposition; tr may be nil (empty /traces).
func NewMMHandler(mm MMLiveness, reg *telemetry.Registry, tr *trace.Tracer) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", healthz)
	mux.Handle("/metrics", reg.Handler())
	AttachDebug(mux, tr)
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		var out MMStats
		for _, info := range mm.AllRMs() {
			out.RMs = append(out.RMs, MMRMEntry{
				ID:          info.ID.String(),
				CapacityBps: float64(info.Capacity),
				Addr:        info.Addr,
				Alive:       mm.Alive(info.ID),
				Epoch:       mm.Epoch(info.ID),
			})
		}
		out.LiveRMs = mm.LiveCount()
		writeJSON(w, out)
	})
	return mux
}

// DFSCStats is the JSON shape of a client's /stats reply.
type DFSCStats struct {
	ID        string `json:"id"`
	Requests  int64  `json:"requests"`
	Failed    int64  `json:"failed"`
	NoReplica int64  `json:"noReplica"`
	Completed int64  `json:"completed"`
	Failovers int64  `json:"failovers"`
	Messages  int64  `json:"messages"`
}

// NewDFSCHandler builds the HTTP handler for a client daemon: the same
// /healthz + /stats + /metrics triple the server daemons expose, so one
// scrape config covers the requester side of the three-phase flow too.
// reg may be nil, in which case /metrics serves an empty exposition; tr
// may be nil (empty /traces).
func NewDFSCHandler(client *dfsc.Client, reg *telemetry.Registry, tr *trace.Tracer) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", healthz)
	mux.Handle("/metrics", reg.Handler())
	AttachDebug(mux, tr)
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		st := client.Stats()
		writeJSON(w, DFSCStats{
			ID:        client.ID().String(),
			Requests:  st.Requests,
			Failed:    st.Failed,
			NoReplica: st.NoReplica,
			Completed: st.Completed,
			Failovers: st.Failovers,
			Messages:  st.Messages,
		})
	})
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
