package telemetry

import (
	"io"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(2.5)
	g.Add(-1)
	g.Inc()
	g.Dec()
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", got)
	}
}

func TestHistogramBucketEdges(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4})
	// 0 and an exact lower bound land in the first bucket (le
	// semantics: v <= bound).
	h.Observe(0)
	h.Observe(1)
	// Exactly the max bound lands in the last finite bucket.
	h.Observe(4)
	// Beyond the max bound lands in the +Inf overflow bucket.
	h.Observe(4.000001)
	h.Observe(math.MaxFloat64)
	// Positive infinity also overflows.
	h.Observe(math.Inf(1))
	// NaN is dropped entirely.
	h.Observe(math.NaN())

	wantBuckets := []uint64{2, 0, 1, 3} // raw per-bucket, last is +Inf
	for i, want := range wantBuckets {
		if got := h.buckets[i].Load(); got != want {
			t.Errorf("bucket[%d] = %d, want %d", i, got, want)
		}
	}
	if got := h.Count(); got != 6 {
		t.Fatalf("count = %d, want 6 (NaN dropped)", got)
	}
	if sum := h.Sum(); !math.IsInf(sum, 1) {
		t.Fatalf("sum = %v, want +Inf (one +Inf observation)", sum)
	}
}

func TestHistogramMeanFromSumAndCount(t *testing.T) {
	h := newHistogram([]float64{10})
	for _, v := range []float64{1, 2, 3} {
		h.Observe(v)
	}
	if mean := h.Sum() / float64(h.Count()); mean != 2 {
		t.Fatalf("mean = %v, want 2", mean)
	}
}

func TestHistogramRejectsBadBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-ascending bounds did not panic")
		}
	}()
	newHistogram([]float64{1, 1})
}

func TestExponentialBuckets(t *testing.T) {
	got := ExponentialBuckets(0.001, 10, 4)
	want := []float64{0.001, 0.01, 0.1, 1}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("bucket[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestExpositionGolden locks the exact text exposition rendering: HELP
// and TYPE comments, label escaping, cumulative le-buckets, _sum and
// _count, deterministic ordering.
func TestExpositionGolden(t *testing.T) {
	reg := NewRegistry()
	reg.NewCounter("dfsqos_test_requests_total", "Requests handled.").Add(3)
	reg.NewGauge("dfsqos_test_temperature_celsius", "Current temperature.").Set(36.5)
	h := reg.NewHistogram("dfsqos_test_latency_seconds", "Request latency.", []float64{0.5, 1})
	h.Observe(0.25)
	h.Observe(0.75)
	h.Observe(2)
	vec := reg.NewCounterVec("dfsqos_test_errors_total", "Errors by class.", "class")
	vec.With("conn").Add(2)
	vec.With("timeout").Inc()
	vec.With(`we"ird\nl`).Inc()

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP dfsqos_test_requests_total Requests handled.
# TYPE dfsqos_test_requests_total counter
dfsqos_test_requests_total 3
# HELP dfsqos_test_temperature_celsius Current temperature.
# TYPE dfsqos_test_temperature_celsius gauge
dfsqos_test_temperature_celsius 36.5
# HELP dfsqos_test_latency_seconds Request latency.
# TYPE dfsqos_test_latency_seconds histogram
dfsqos_test_latency_seconds_bucket{le="0.5"} 1
dfsqos_test_latency_seconds_bucket{le="1"} 2
dfsqos_test_latency_seconds_bucket{le="+Inf"} 3
dfsqos_test_latency_seconds_sum 3
dfsqos_test_latency_seconds_count 3
# HELP dfsqos_test_errors_total Errors by class.
# TYPE dfsqos_test_errors_total counter
dfsqos_test_errors_total{class="conn"} 2
dfsqos_test_errors_total{class="timeout"} 1
dfsqos_test_errors_total{class="we\"ird\\nl"} 1
`
	if got := sb.String(); got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

func TestGetOrCreateSharesFamilies(t *testing.T) {
	reg := NewRegistry()
	a := reg.NewCounter("dfsqos_shared_total", "shared")
	b := reg.NewCounter("dfsqos_shared_total", "shared")
	if a != b {
		t.Fatal("same name returned distinct counters")
	}
	a.Inc()
	if b.Value() != 1 {
		t.Fatal("shared counter not shared")
	}
}

func TestKindCollisionPanics(t *testing.T) {
	reg := NewRegistry()
	reg.NewCounter("dfsqos_collide_total", "")
	defer func() {
		if recover() == nil {
			t.Fatal("kind collision did not panic")
		}
	}()
	reg.NewGauge("dfsqos_collide_total", "")
}

func TestInvalidNamePanics(t *testing.T) {
	reg := NewRegistry()
	for _, bad := range []string{"", "9leading", "has-dash", "sp ace"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("name %q did not panic", bad)
				}
			}()
			reg.NewCounter(bad, "")
		}()
	}
}

func TestNilRegistryIsNoOp(t *testing.T) {
	var reg *Registry
	c := reg.NewCounter("dfsqos_nop_total", "")
	g := reg.NewGauge("dfsqos_nop_gauge", "")
	h := reg.NewHistogram("dfsqos_nop_seconds", "", nil)
	cv := reg.NewCounterVec("dfsqos_nop_vec_total", "", "k")
	gv := reg.NewGaugeVec("dfsqos_nop_gvec", "", "k")
	c.Inc()
	g.Set(1)
	h.Observe(1)
	cv.With("v").Inc()
	gv.With("v").Set(2)
	if c.Value() != 1 || g.Value() != 1 || h.Count() != 1 {
		t.Fatal("nil-registry metrics must still record")
	}
	if err := reg.WritePrometheus(io.Discard); err != nil {
		t.Fatal(err)
	}
	// The nil registry's handler serves an empty body without panicking.
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if len(body) != 0 {
		t.Fatalf("nil registry served %q", body)
	}
}

func TestVecLabelArityPanics(t *testing.T) {
	reg := NewRegistry()
	vec := reg.NewCounterVec("dfsqos_arity_total", "", "a", "b")
	defer func() {
		if recover() == nil {
			t.Fatal("wrong label arity did not panic")
		}
	}()
	vec.With("only-one")
}

func TestHandlerContentType(t *testing.T) {
	reg := NewRegistry()
	reg.NewCounter("dfsqos_ct_total", "").Inc()
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != ContentType {
		t.Fatalf("content type %q, want %q", ct, ContentType)
	}
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "dfsqos_ct_total 1") {
		t.Fatalf("body %q", body)
	}
}

// TestConcurrentScrapeWhileIncrementing exercises the scrape path under
// the race detector while every metric type is being mutated.
func TestConcurrentScrapeWhileIncrementing(t *testing.T) {
	reg := NewRegistry()
	c := reg.NewCounter("dfsqos_race_total", "")
	g := reg.NewGauge("dfsqos_race_gauge", "")
	h := reg.NewHistogram("dfsqos_race_seconds", "", []float64{0.5, 1, 2})
	vec := reg.NewCounterVec("dfsqos_race_vec_total", "", "worker")

	const writers = 8
	const iters = 500
	var wg sync.WaitGroup
	wg.Add(writers)
	for w := 0; w < writers; w++ {
		go func(w int) {
			defer wg.Done()
			child := vec.With(string(rune('a' + w)))
			for i := 0; i < iters; i++ {
				c.Inc()
				g.Add(0.5)
				h.Observe(float64(i%4) / 2)
				child.Inc()
				// Occasionally hit the shared child too, exercising
				// the double-checked creation path concurrently.
				if i%100 == 0 {
					vec.With("shared").Inc()
				}
			}
		}(w)
	}
	wg.Wait()

	// Concurrent writers + scrapers.
	var wg2 sync.WaitGroup
	wg2.Add(writers + 4)
	for w := 0; w < writers; w++ {
		go func() {
			defer wg2.Done()
			for i := 0; i < iters; i++ {
				c.Inc()
				h.Observe(1)
			}
		}()
	}
	for s := 0; s < 4; s++ {
		go func() {
			defer wg2.Done()
			for i := 0; i < 50; i++ {
				if err := reg.WritePrometheus(io.Discard); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg2.Wait()

	if got := c.Value(); got != writers*iters*2 {
		t.Fatalf("counter = %d, want %d", got, writers*iters*2)
	}
	if got := h.Count(); got != writers*iters*2 {
		t.Fatalf("histogram count = %d, want %d", got, writers*iters*2)
	}
	if got := g.Value(); got != writers*iters*0.5 {
		t.Fatalf("gauge = %v, want %v", got, writers*iters*0.5)
	}
}
