package scenario

import (
	"sort"
	"sync"
	"time"

	"dfsqos/internal/telemetry"
)

// latencyBounds is the per-class histogram layout: 48 exponential
// buckets from 1µs to ~40s (factor 1.45), fine enough that a p999
// estimate interpolated inside one bucket stays within ±45% — ample for
// SLO ceilings set with order-of-magnitude headroom. Reused from the
// PR 2 telemetry core so a scenario's recorder is the same machinery the
// live daemons expose on /metrics.
var latencyBounds = telemetry.ExponentialBuckets(1e-6, 1.45, 48)

// ClassStats is one workload class's latency and outcome summary, the
// unit the BENCH_7.json scenario block and the SLO gates consume.
type ClassStats struct {
	// Class is the workload class label ("video", "bulk-write", ...).
	Class string `json:"class"`
	// Count is the number of requests observed, Failed how many were
	// refused or errored.
	Count  int64 `json:"count"`
	Failed int64 `json:"failed"`
	// P50Ms, P99Ms and P999Ms are the class's latency percentiles in
	// milliseconds (estimated from the histogram; see
	// telemetry.Histogram.Quantile), and MeanMs the arithmetic mean. Only a
	// class recorded with latencies (Recorder.Observe: the live slice)
	// has them; a DES class has none, as a simulated request takes no
	// virtual time and the engine's own CPU time is not a service
	// latency.
	P50Ms  float64 `json:"p50_ms,omitempty"`
	P99Ms  float64 `json:"p99_ms,omitempty"`
	P999Ms float64 `json:"p999_ms,omitempty"`
	MeanMs float64 `json:"mean_ms,omitempty"`
}

// FailRate returns Failed/Count, or 0 for an empty class.
func (c ClassStats) FailRate() float64 {
	if c.Count == 0 {
		return 0
	}
	return float64(c.Failed) / float64(c.Count)
}

// Recorder accumulates per-class outcome counters and, for requests that
// have one, their latencies in telemetry histograms. Safe for concurrent use
// (the live slice records from many goroutines; the DES records from its
// single event loop).
type Recorder struct {
	mu      sync.Mutex
	classes map[string]*classRec
}

type classRec struct {
	hist   *telemetry.Histogram // nil until a latency is observed
	count  int64
	failed int64
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{classes: make(map[string]*classRec)}
}

// Observe records one request of the given class: its wall-clock service
// time and whether it succeeded.
func (r *Recorder) Observe(class string, wall time.Duration, ok bool) {
	r.mu.Lock()
	c := r.countLocked(class, ok)
	if c.hist == nil {
		// The nil-registry constructor returns a live, unregistered
		// histogram — the PR 2 no-op-registry contract.
		c.hist = (*telemetry.Registry)(nil).NewHistogram("dfsqos_scenario_latency_seconds", "per-class scenario latency", latencyBounds)
	}
	r.mu.Unlock()
	c.hist.Observe(wall.Seconds())
}

// Count records one request of the given class that has no latency:
// whether it succeeded. The DES records its requests this way.
func (r *Recorder) Count(class string, ok bool) {
	r.mu.Lock()
	r.countLocked(class, ok)
	r.mu.Unlock()
}

// countLocked counts one request of class and returns the class's record.
// Caller holds r.mu.
func (r *Recorder) countLocked(class string, ok bool) *classRec {
	c := r.classes[class]
	if c == nil {
		c = &classRec{}
		r.classes[class] = c
	}
	c.count++
	if !ok {
		c.failed++
	}
	return c
}

// Totals returns the all-class request and failure counts.
func (r *Recorder) Totals() (count, failed int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.classes {
		count += c.count
		failed += c.failed
	}
	return count, failed
}

// Stats summarizes every observed class, sorted by class name.
func (r *Recorder) Stats() []ClassStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]ClassStats, 0, len(r.classes))
	for name, c := range r.classes {
		st := ClassStats{Class: name, Count: c.count, Failed: c.failed}
		if c.hist != nil {
			st.P50Ms = 1e3 * c.hist.Quantile(0.50)
			st.P99Ms = 1e3 * c.hist.Quantile(0.99)
			st.P999Ms = 1e3 * c.hist.Quantile(0.999)
			if n := c.hist.Count(); n > 0 {
				st.MeanMs = 1e3 * c.hist.Sum() / float64(n)
			}
		}
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Class < out[j].Class })
	return out
}
