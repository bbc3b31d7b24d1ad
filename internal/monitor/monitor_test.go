package monitor

import (
	"fmt"
	"net"
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
	srv, addr, err := serve("127.0.0.1:0", NewHandler(nil, nil))
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

// TestStartServesBothAndStops starts the monitor and the standalone debug
// surface the way the daemons do: each answers on its own address, stop
// closes both, and a debug address that cannot be bound fails Start
// without leaving the monitor listening.
func TestStartServesBothAndStops(t *testing.T) {
	get := func(url string) error {
		resp, err := http.Get(url)
		if err != nil {
			return err
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("%s: status %d", url, resp.StatusCode)
		}
		return nil
	}
	monLn, dbgLn := freeAddr(t), freeAddr(t)
	stop, err := Start("test:", monLn, dbgLn, telemetry.NewRegistry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, url := range []string{"http://" + monLn + "/metrics", "http://" + dbgLn + "/debug/pprof/"} {
		if err := get(url); err != nil {
			t.Fatal(err)
		}
	}
	stop()
	for _, addr := range []string{monLn, dbgLn} {
		if err := get("http://" + addr + "/healthz"); err == nil {
			t.Fatalf("%s still serving after stop", addr)
		}
	}

	busy, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	monAddr := freeAddr(t)
	if _, err := Start("test:", monAddr, busy.Addr().String(), nil, nil); err == nil {
		t.Fatal("Start on a bound debug address succeeded")
	}
	if err := get("http://" + monAddr + "/healthz"); err == nil {
		t.Fatal("monitor left serving after Start failed")
	}
}

// freeAddr returns a loopback address nothing listens on.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}
