package monitor

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"dfsqos/internal/ecnp"
	"dfsqos/internal/history"
	"dfsqos/internal/ids"
	"dfsqos/internal/mm"
	"dfsqos/internal/replication"
	"dfsqos/internal/rm"
	"dfsqos/internal/rng"
	"dfsqos/internal/simtime"
	"dfsqos/internal/units"
)

func testRM(t *testing.T) (*rm.RM, ecnp.Scheduler) {
	t.Helper()
	sched := ecnp.SimScheduler{S: simtime.NewScheduler()}
	node, err := rm.New(rm.Options{
		Info:        ecnp.RMInfo{ID: 4, Capacity: units.Mbps(18), StorageBytes: units.GB},
		Scheduler:   sched,
		Mapper:      mm.New(),
		History:     history.DefaultConfig(),
		Replication: replication.DefaultConfig(replication.Static()),
		Rand:        rng.New(1),
		Files: map[ids.FileID]rm.FileMeta{
			0: {Bitrate: units.Mbps(2), Size: 25 * units.MB, DurationSec: 100},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return node, sched
}

func TestRMStatsEndpoint(t *testing.T) {
	node, sched := testRM(t)
	node.Open(ecnp.OpenRequest{Request: 1, File: 0, Bitrate: units.Mbps(2), DurationSec: 100})
	node.Open(ecnp.OpenRequest{Request: 2, File: 0, Bitrate: units.Mbps(20), DurationSec: 100, Firm: true})
	srv := httptest.NewServer(NewRMHandler(node, nil, sched, nil, nil))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var st RMStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.ID != "RM4" {
		t.Fatalf("id %q", st.ID)
	}
	if st.AllocatedBps != float64(units.Mbps(2)) {
		t.Fatalf("allocated %v", st.AllocatedBps)
	}
	if st.ActiveStreams != 1 || st.Opens != 1 {
		t.Fatalf("streams/opens = %d/%d", st.ActiveStreams, st.Opens)
	}
	if st.Files != 1 || st.StorageUsed != int64(25*units.MB) {
		t.Fatalf("files/storage = %d/%d", st.Files, st.StorageUsed)
	}
	if len(st.Refusals) != 1 || st.Refusals["firm_capacity"] != 1 {
		t.Fatalf("refusals = %v, want the one firm_capacity refusal alone", st.Refusals)
	}
}

func TestHealthz(t *testing.T) {
	node, sched := testRM(t)
	srv := httptest.NewServer(NewRMHandler(node, nil, sched, nil, nil))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
}

func TestMMStatsEndpoint(t *testing.T) {
	mgr := mm.New()
	mgr.RegisterRM(ecnp.RMInfo{ID: 1, Capacity: units.Mbps(128), Addr: "10.0.0.1:9000"}, nil)
	mgr.RegisterRM(ecnp.RMInfo{ID: 2, Capacity: units.Mbps(18), Addr: "10.0.0.2:9000"}, nil)
	srv := httptest.NewServer(NewMMHandler(mgr, nil, nil))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st MMStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if len(st.RMs) != 2 {
		t.Fatalf("%d RMs in stats", len(st.RMs))
	}
	if st.RMs[0].ID != "RM1" || st.RMs[0].Addr != "10.0.0.1:9000" {
		t.Fatalf("entry %+v", st.RMs[0])
	}
}

func TestServeBindsAndCloses(t *testing.T) {
	node, sched := testRM(t)
	srv, addr, err := Serve("127.0.0.1:0", NewRMHandler(node, nil, sched, nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + addr + "/healthz"); err == nil {
		t.Fatal("server reachable after Close")
	}
}
