package monitor

import (
	"io"
	"net/http"
	"net/http/httptest"
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

func TestRMMetricsEndpoint(t *testing.T) {
	node, sched := testRM(t)
	reg := telemetry.NewRegistry()
	reg.NewCounter("dfsqos_rm_cfps_total", "CFPs.").Add(7)
	srv := httptest.NewServer(NewRMHandler(node, nil, sched, reg, nil))
	defer srv.Close()

	body, ct := scrape(t, srv.URL+"/metrics")
	if ct != telemetry.ContentType {
		t.Fatalf("content type %q", ct)
	}
	if !strings.Contains(body, "dfsqos_rm_cfps_total 7") {
		t.Fatalf("missing counter in exposition:\n%s", body)
	}
	// /stats stays intact next to /metrics.
	if body, _ := scrape(t, srv.URL+"/stats"); !strings.Contains(body, `"id"`) {
		t.Fatalf("stats JSON broken:\n%s", body)
	}
}

func TestNilRegistryMetricsEndpoint(t *testing.T) {
	node, sched := testRM(t)
	srv := httptest.NewServer(NewRMHandler(node, nil, sched, nil, nil))
	defer srv.Close()
	body, ct := scrape(t, srv.URL+"/metrics")
	if ct != telemetry.ContentType {
		t.Fatalf("content type %q", ct)
	}
	if body != "" {
		t.Fatalf("nil registry exposition not empty: %q", body)
	}
}

func TestMMMetricsEndpoint(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.NewGauge("dfsqos_mm_rms", "Registered RMs.").Set(2)
	srv := httptest.NewServer(NewMMHandler(mm.New(), reg, nil))
	defer srv.Close()
	body, _ := scrape(t, srv.URL+"/metrics")
	if !strings.Contains(body, "dfsqos_mm_rms 2") {
		t.Fatalf("missing gauge:\n%s", body)
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

	srv := httptest.NewServer(NewDFSCHandler(client, reg, nil))
	defer srv.Close()

	body, _ := scrape(t, srv.URL+"/stats")
	if !strings.Contains(body, `"id": "DFSC3"`) || !strings.Contains(body, `"noReplica": 1`) {
		t.Fatalf("dfsc stats:\n%s", body)
	}
	body, _ = scrape(t, srv.URL+"/metrics")
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
	srv, addr, err := Serve("127.0.0.1:0", mux)
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
	go func() { done <- Shutdown(srv, 2*time.Second) }()
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
	srv, addr, err := Serve("127.0.0.1:0", mux)
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

	if err := Shutdown(srv, 20*time.Millisecond); err == nil {
		t.Fatal("expected deadline error from Shutdown with a stuck handler")
	}
	if _, err := http.Get("http://" + addr + "/healthz"); err == nil {
		t.Fatal("listener still accepting after forced Shutdown")
	}
}

func TestShutdownNilServer(t *testing.T) {
	if err := Shutdown(nil, time.Second); err != nil {
		t.Fatal(err)
	}
}
