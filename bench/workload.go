package main

import (
	"fmt"
	"sort"
	"time"
)

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// pass is what one measured window of a workload produced.
type pass struct {
	wall      time.Duration // the window as it actually ran
	work      float64       // units of work completed (opens, MB, simulated requests)
	workPerS  float64       // the workload's throughput figure, in its unit of work per second
	latencies []float64     // ms, one per timed operation
	attempted int64
	failed    int64
	// setups is filled only by the DES workloads, whose cluster build
	// happens inside scenario.Run: seconds each run spent before its
	// event loop started.
	setups []float64
	// extra carries workload-specific per-layer numbers (qos.*, des.*,
	// dfsc counters).
	extra map[string]float64
	// problems lists failed output checks.
	problems []string
}

func (p *pass) fail(format string, args ...any) {
	p.failed++
	if len(p.problems) < 8 {
		p.problems = append(p.problems, fmt.Sprintf(format, args...))
	}
}

// workload is one set of inputs the benchmark runs. build stands the
// system up and first completes one cold operation on it; together they
// are setup_s, what a user waits for before the first result (servers
// listening, connections dialled, lazily built state built). measure may
// be called more than once on one build (untraced, then traced with rec
// non-nil); verify runs the output checks that need the passes to be
// over; close is idempotent.
type workload interface {
	build(seed uint64) error
	first() error
	warm(d time.Duration) error
	measure(d time.Duration, rec *recorder) (*pass, error)
	verify() []string
	close()
}

// workloadInfo describes a workload for the reports and for
// BENCHMARK.json.
type workloadInfo struct {
	name    string
	work    string // the unit of work work_per_s counts
	latency string // the operation latency_p50_ms times
	// new builds the workload; smoke asks for the reduced sizes the
	// package's own tests run (-short on the command line).
	new func(smoke bool) workload
}

var workloads = []workloadInfo{
	{"open_storm", "negotiated opens", "one open (lookup + 16 CFPs + open)",
		func(bool) workload { return &openStorm{} }},
	{"stream_seq", "verified MB read", "time to first byte of a 64 MiB read",
		func(smoke bool) workload {
			return &streamRead{rms: 1, width: 1, fileBytes: pick(smoke, smokeFileBytes, streamFileBytes)}
		}},
	{"stripe_k4", "verified MB read", "time to first byte of a 64 MiB striped read",
		func(smoke bool) workload {
			return &streamRead{rms: 4, width: 4, fileBytes: pick(smoke, smokeFileBytes, streamFileBytes)}
		}},
	{"qos_contend", "MB delivered under the throttle", "one 2 MiB fetch while both reservations contend",
		func(smoke bool) workload {
			return &qosContend{smoke: smoke, fileBytes: pick(smoke, smokeQosBytes, qosFileBytes)}
		}},
	{"ingest_write", "acked MB written", "one 32 MiB upload",
		func(smoke bool) workload {
			return &ingestWrite{objectBytes: pick(smoke, smokeObjectBytes, ingestObjectBytes)}
		}},
	{"des_steady", "simulated requests", "one zipfian-hotset scenario run",
		func(smoke bool) workload { return &desRuns{spec: hotsetSpec, short: smoke} }},
	{"des_flash", "simulated requests", "one flash-crowd scenario run",
		func(smoke bool) workload { return &desRuns{spec: flashSpec, short: smoke, scenarioSeed: 1} }},
}

// pick returns small in a smoke run and full otherwise.
func pick(smoke bool, small, full int64) int64 {
	if smoke {
		return small
	}
	return full
}

func findWorkload(name string) (workloadInfo, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadInfo{}, false
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// sortedKeys returns a map's keys in order, for stable reports.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
