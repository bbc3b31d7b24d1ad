package monitor

import (
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
	"dfsqos/internal/telemetry"
	"dfsqos/internal/units"
)

// testRM builds an RM whose series report onto reg.
func testRM(t *testing.T, reg *telemetry.Registry) *rm.RM {
	t.Helper()
	node, err := rm.New(rm.Options{
		Info:        ecnp.RMInfo{ID: 4, Capacity: units.Mbps(18), StorageBytes: units.GB},
		Scheduler:   ecnp.SimScheduler{S: simtime.NewScheduler()},
		Mapper:      mm.New(),
		History:     history.DefaultConfig(),
		Replication: replication.DefaultConfig(replication.Static()),
		Rand:        rng.New(1),
		Files: map[ids.FileID]rm.FileMeta{
			0: {Bitrate: units.Mbps(2), Size: 25 * units.MB, DurationSec: 100},
		},
		Metrics: rm.NewMetrics(reg),
	})
	if err != nil {
		t.Fatal(err)
	}
	return node
}

func TestHealthz(t *testing.T) {
	srv := httptest.NewServer(NewHandler(nil, nil))
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

func TestServeBindsAndCloses(t *testing.T) {
	srv, addr, err := Serve("127.0.0.1:0", NewHandler(nil, nil))
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
