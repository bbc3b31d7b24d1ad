package monitor

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"dfsqos/internal/catalog"
	"dfsqos/internal/dfsc"
	"dfsqos/internal/ecnp"
	"dfsqos/internal/mm"
	"dfsqos/internal/qos"
	"dfsqos/internal/rng"
	"dfsqos/internal/selection"
	"dfsqos/internal/simtime"
	"dfsqos/internal/telemetry"
	"dfsqos/internal/units"
)

func scrape(t *testing.T, url string) (string, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body), resp.Header.Get("Content-Type")
}

// TestRMMetricsEndpoint: a series written on the registry reaches the
// exposition, served with the exposition content type.
func TestRMMetricsEndpoint(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.NewCounter("dfsqos_rm_cfps_total", "CFPs.").Add(7)
	srv := httptest.NewServer(NewHandler(reg, nil))
	defer srv.Close()

	body, ct := scrape(t, srv.URL+"/metrics")
	if ct != telemetry.ContentType {
		t.Fatalf("content type %q", ct)
	}
	if !strings.Contains(body, "dfsqos_rm_cfps_total 7\n") {
		t.Fatalf("missing counter in exposition:\n%s", body)
	}
}

// TestRMStatsEndpoint: the RM state the removed /stats view reported is read
// from the RM at the scrape: the one open admitted holds 2 of 18 Mbit/s, its
// file and bytes, and the firm open past the remaining bandwidth is the one
// refusal counted.
func TestRMStatsEndpoint(t *testing.T) {
	reg := telemetry.NewRegistry()
	node := testRM(t, reg)
	node.Open(ecnp.OpenRequest{Request: 1, File: 0, Bitrate: units.Mbps(2), DurationSec: 100})
	node.Open(ecnp.OpenRequest{Request: 2, File: 0, Bitrate: units.Mbps(20), DurationSec: 100, Firm: true})
	srv := httptest.NewServer(NewHandler(reg, nil))
	defer srv.Close()

	body, _ := scrape(t, srv.URL+"/metrics")
	gauge := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, want := range []string{
		"dfsqos_rm_remaining_bandwidth_bytes_per_second " + gauge(float64(units.Mbps(16))),
		"dfsqos_rm_active_streams 1",
		"dfsqos_rm_admissions_total 1",
		"dfsqos_rm_files 1",
		"dfsqos_rm_storage_used_bytes " + gauge(float64(25*units.MB)),
		`dfsqos_rm_refusals_total{reason="firm_capacity"} 1`,
		`dfsqos_rm_refusals_total{reason="duplicate"} 0`,
	} {
		if !strings.Contains(body, want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, body)
		}
	}
}

func TestNilRegistryMetricsEndpoint(t *testing.T) {
	srv := httptest.NewServer(NewHandler(nil, nil))
	defer srv.Close()
	body, ct := scrape(t, srv.URL+"/metrics")
	if ct != telemetry.ContentType {
		t.Fatalf("content type %q", ct)
	}
	if body != "" {
		t.Fatalf("nil registry exposition not empty: %q", body)
	}
}

// TestMMMetricsEndpoint: the MM's series are served once a manager binds
// them, and not before.
func TestMMMetricsEndpoint(t *testing.T) {
	reg := telemetry.NewRegistry()
	srv := httptest.NewServer(NewHandler(reg, nil))
	defer srv.Close()
	if body, _ := scrape(t, srv.URL+"/metrics"); strings.Contains(body, "dfsqos_mm_") {
		t.Fatalf("unbound MM series in exposition:\n%s", body)
	}
	mm.New().SetMetrics(mm.NewMetrics(reg))
	body, _ := scrape(t, srv.URL+"/metrics")
	if !strings.Contains(body, "dfsqos_mm_registered_rms 0\n") {
		t.Fatalf("bound MM series missing:\n%s", body)
	}
}

// TestMMStatsEndpoint: the resource list the removed /stats view reported is
// read from the MM at the scrape: two registered RMs, both live.
func TestMMStatsEndpoint(t *testing.T) {
	reg := telemetry.NewRegistry()
	mgr := mm.New()
	mgr.SetMetrics(mm.NewMetrics(reg))
	mgr.RegisterRM(ecnp.RMInfo{ID: 1, Capacity: units.Mbps(128), Addr: "10.0.0.1:9000"}, nil)
	mgr.RegisterRM(ecnp.RMInfo{ID: 2, Capacity: units.Mbps(18), Addr: "10.0.0.2:9000"}, nil)
	srv := httptest.NewServer(NewHandler(reg, nil))
	defer srv.Close()
	body, _ := scrape(t, srv.URL+"/metrics")
	for _, want := range []string{"dfsqos_mm_registered_rms 2", "dfsqos_mm_live_rms 2"} {
		if !strings.Contains(body, want+"\n") {
			t.Fatalf("exposition missing %q:\n%s", want, body)
		}
	}
}

func TestDFSCHandler(t *testing.T) {
	mgr := mm.New()
	cfg := catalog.DefaultConfig()
	cfg.NumFiles = 2
	cat, err := catalog.Generate(cfg, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	client, err2 := dfsc.New(dfsc.Options{
		ID:        3,
		Mapper:    mgr,
		Directory: new(ecnp.StaticDirectory),
		Scheduler: ecnp.SimScheduler{S: simtime.NewScheduler()},
		Catalog:   cat,
		Policy:    selection.Policy{},
		Scenario:  qos.Soft,
		Rand:      rng.New(1),
		Metrics:   dfsc.NewMetrics(reg),
	})
	if err2 != nil {
		t.Fatal(err2)
	}
	client.Access(0) // no replica registered → counted failure

	srv := httptest.NewServer(NewHandler(reg, nil))
	defer srv.Close()

	body, _ := scrape(t, srv.URL+"/metrics")
	for _, want := range []string{
		`dfsqos_dfsc_requests_total{outcome="no_replica"} 1`,
		"dfsqos_dfsc_negotiation_latency_seconds_count 1",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("missing %q in exposition:\n%s", want, body)
		}
	}
	if body, _ := scrape(t, srv.URL+"/healthz"); !strings.Contains(body, "ok") {
		t.Fatalf("healthz body %q", body)
	}
}

func TestShutdownDrainsAndReleasesListener(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("/slow", func(w http.ResponseWriter, r *http.Request) {
		close(started)
		<-release
		w.Write([]byte("done"))
	})
	srv, addr, err := serve("127.0.0.1:0", mux)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, err := http.Get("http://" + addr + "/slow")
		if err == nil {
			io.ReadAll(resp.Body)
			resp.Body.Close()
		}
	}()
	<-started

	done := make(chan error, 1)
	go func() { done <- shutdown(srv, 2*time.Second) }()
	// The in-flight request holds Shutdown open until the handler ends.
	time.Sleep(50 * time.Millisecond)
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	wg.Wait()

	// The listener must be gone: a fresh connect fails.
	if _, err := http.Get("http://" + addr + "/healthz"); err == nil {
		t.Fatal("listener still accepting after Shutdown")
	}
}

func TestShutdownForceClosesAfterDeadline(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	started := make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("/stuck", func(w http.ResponseWriter, r *http.Request) {
		close(started)
		select {
		case <-release:
		case <-r.Context().Done():
		}
	})
	srv, addr, err := serve("127.0.0.1:0", mux)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		resp, err := http.Get("http://" + addr + "/stuck")
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-started

	if err := shutdown(srv, 20*time.Millisecond); err == nil {
		t.Fatal("expected deadline error from Shutdown with a stuck handler")
	}
	if _, err := http.Get("http://" + addr + "/healthz"); err == nil {
		t.Fatal("listener still accepting after forced Shutdown")
	}
}

func TestShutdownNilServer(t *testing.T) {
	if err := shutdown(nil, time.Second); err != nil {
		t.Fatal(err)
	}
}
