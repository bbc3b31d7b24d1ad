package live

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"dfsqos/internal/dfsc"
	"dfsqos/internal/ids"
	"dfsqos/internal/monitor"
	"dfsqos/internal/qos"
	"dfsqos/internal/rng"
	"dfsqos/internal/selection"
	"dfsqos/internal/telemetry"
	"dfsqos/internal/transport"
	"dfsqos/internal/units"
	"dfsqos/internal/wire"
)

// TestMetricsEndToEnd spins up a real TCP mini-cluster — MM server, two RM
// servers with throttled virtual disks, a DFSC over pooled transport — with
// the client, the RMs and (once started) the servers on ONE shared
// registry; only the client's transport is metered — runs accesses through
// the full three-phase flow, and scrapes a monitor /metrics page. The
// exposition must carry the transport call-latency histogram, the pool
// gauge, the RM remaining-bandwidth gauge, the CFP/bid/admission counters,
// the dfsc negotiation-latency histogram and, after one striped read, its
// first-byte histogram — the acceptance shape of the telemetry plane.
func TestMetricsEndToEnd(t *testing.T) {
	reg := telemetry.NewRegistry()
	tcfg := transport.Config{Metrics: transport.NewMetrics(reg)}
	wire.RegisterCodecMetrics(reg)
	defer wire.RegisterCodecMetrics(nil) // detach the process-wide sink from this test's registry

	lc := startLocal(t, LocalSpec{
		Catalog: testCatalog(t, 11, 4, 1, 5, 10),
		Caps:    []units.BytesPerSec{units.Mbps(50), units.Mbps(50)},
		Holders: map[ids.FileID][]ids.RMID{0: {1, 2}, 1: {1}, 2: {2}},
		Rand:    rng.New(13),
		MM:      MMSpec{Registry: reg},
		RM:      RMSpec{Registry: reg},
	})

	mmCli, err := DialMMConfig([]string{lc.MM.Addr()}, 1, tcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer mmCli.Close()
	dir := NewDirectoryConfig(mmCli, tcfg)
	defer dir.Close()

	client, err := dfsc.New(dfsc.Options{
		ID:        1,
		Mapper:    mmCli,
		Directory: dir,
		Scheduler: lc.Sched,
		Catalog:   lc.Catalog,
		Policy:    selection.RemOnly,
		Scenario:  qos.Firm,
		Rand:      rng.New(7),
		Metrics:   dfsc.NewMetrics(reg),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []ids.FileID{0, 1, 2} {
		if out := client.Access(f); !out.OK {
			t.Fatalf("access %v failed: %s", f, out.Reason)
		}
	}

	// Scrape the shared registry through a real monitor endpoint, as a
	// Prometheus server would scrape an rmd.
	mon := httptest.NewServer(monitor.NewRMHandler(lc.Node(1), lc.Disk(1), lc.Sched, reg, nil))
	defer mon.Close()
	scrape := func() string {
		t.Helper()
		resp, err := http.Get(mon.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if got := resp.Header.Get("Content-Type"); got != telemetry.ContentType {
			t.Fatalf("content type %q", got)
		}
		return string(raw)
	}
	body := scrape()

	for _, want := range []string{
		// Transport: per-call latency histogram and pool gauge.
		"dfsqos_transport_call_latency_seconds_bucket",
		"dfsqos_transport_call_latency_seconds_count",
		"dfsqos_transport_pool_idle_connections",
		`dfsqos_transport_dials_total{result="ok"}`,
		// Wire servers: request counters by kind.
		`server="mm"`,
		`server="rm"`,
		// Wire frames, counted by direction.
		`dfsqos_wire_frames_total{dir="tx"}`,
		`dfsqos_wire_frames_total{dir="rx"}`,
		// RM core: the paper's remained-bandwidth runtime info plus the
		// negotiation counters.
		"dfsqos_rm_remaining_bandwidth_bytes_per_second",
		"dfsqos_rm_cfps_total",
		"dfsqos_rm_bids_total",
		"dfsqos_rm_admissions_total",
		// DFSC: three-phase negotiation latency histogram.
		"dfsqos_dfsc_negotiation_latency_seconds_bucket",
		`dfsqos_dfsc_requests_total{outcome="admitted"} 3`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("missing %q in /metrics exposition", want)
		}
	}
	if t.Failed() {
		t.Logf("exposition:\n%s", body)
	}

	// The counters must reflect the three admitted accesses: 3 CFP+bid
	// pairs per fan-out are spread over the two RMs, and each open landed.
	if !strings.Contains(body, "dfsqos_rm_admissions_total 3") {
		t.Errorf("admissions != 3:\n%s", grepLines(body, "dfsqos_rm_admissions_total"))
	}
	if !strings.Contains(body, "dfsqos_dfsc_negotiation_latency_seconds_count 3") {
		t.Errorf("negotiation count != 3:\n%s", grepLines(body, "negotiation_latency_seconds_count"))
	}

	// A striped read reports its start-up delay once, at the committer's
	// first write: the number an operator reads beside the negotiation
	// latency to tell a slow open from a slow first segment.
	if _, err := client.ReadStriped(dir, 0, io.Discard, dfsc.StripeConfig{Width: 2}); err != nil {
		t.Fatalf("striped read: %v", err)
	}
	body = scrape()
	for _, want := range []string{
		"dfsqos_dfsc_stripe_first_byte_seconds_bucket",
		"dfsqos_dfsc_stripe_first_byte_seconds_count 1",
		"dfsqos_dfsc_stripe_reads_total 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("missing %q after a striped read:\n%s", want, grepLines(body, "dfsqos_dfsc_stripe"))
		}
	}

	// Debug-surface smoke: every daemon monitor handler also answers
	// /traces (valid JSON even without a tracer) and the pprof index.
	// The accesses' playback ends release through dir: let them, before
	// the deferred Close drops dir's connections.
	waitFor(t, "playback ends", func() bool { return atRest(lc) == nil })

	for _, path := range []string{"/traces", "/traces?format=text", "/debug/pprof/"} {
		r, err := http.Get(mon.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d", path, r.StatusCode)
		}
	}
}

func grepLines(body, needle string) string {
	var out []string
	for _, line := range strings.Split(body, "\n") {
		if strings.Contains(line, needle) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}
