package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"dfsqos/internal/dfsc"
	"dfsqos/internal/ecnp"
	"dfsqos/internal/qos"
	"dfsqos/internal/rng"
	"dfsqos/internal/selection"
	"dfsqos/internal/units"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// TestEveryMetricEmitted runs every workload BENCHMARK.json lists in
// smoke mode, untraced and traced, and requires exactly the metrics the
// file names: each once, finite, with the unit the file gives.
func TestEveryMetricEmitted(t *testing.T) {
	spec, err := readBenchmarkSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != nominalSeconds {
		t.Errorf("BENCHMARK.json run_seconds is %d, the benchmark's nominal window is %d s", spec.RunSeconds, nominalSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, ms := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		if !metricName.MatchString(ms.Name) || ms.Unit == "" || (ms.Better != "higher" && ms.Better != "lower") {
			t.Errorf("BENCHMARK.json metric %+v is malformed", ms)
		}
	}
	for _, wl := range spec.Workloads {
		info, ok := findWorkload(wl.Name)
		if !ok {
			t.Errorf("BENCHMARK.json lists workload %q, which the benchmark does not have", wl.Name)
			continue
		}
		for _, mode := range []struct {
			name  string
			trace bool
			want  []metricSpec
		}{{"untraced", false, spec.EndToEnd}, {"traced", true, spec.PerLayer}} {
			t.Run(wl.Name+"/"+mode.name, func(t *testing.T) {
				t.Parallel()
				res, err := runWorkload(info, runConfig{seed: 5, seconds: 0.2, trace: mode.trace, short: true}, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d problems=%q", res.Correct, res.Attempted, res.Failed, res.Problems)
				}
				for _, ms := range mode.want {
					got, ok := res.Metrics[ms.Name]
					switch {
					case !ok:
						t.Errorf("metric %s not emitted", ms.Name)
					case got.Unit != ms.Unit:
						t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", ms.Name, got.Unit, ms.Unit)
					case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
						t.Errorf("metric %s is %v", ms.Name, got.Value)
					}
				}
				if len(res.Metrics) != len(mode.want) {
					t.Errorf("%d metrics emitted, BENCHMARK.json names %d: %v", len(res.Metrics), len(mode.want), sortedKeys(res.Metrics))
				}
				if !mode.trace {
					for _, ms := range mode.want {
						if res.Metrics[ms.Name].Value <= 0 {
							t.Errorf("end-to-end metric %s is %v, must be positive", ms.Name, res.Metrics[ms.Name].Value)
						}
					}
				}
				var report bytes.Buffer
				printReport(&report, info, res)
				for _, ms := range mode.want {
					if !strings.Contains(report.String(), ms.Name) {
						t.Errorf("report does not print %s", ms.Name)
					}
				}
			})
		}
	}
}

// TestDecoratorsChangeNothingButTiming drives a plain and a decorated
// client through the same seeded sequence on one cluster: the same
// outcomes and the same message count, and one root span with its
// lookup, three CFPs, open and close per operation.
func TestDecoratorsChangeNothingButTiming(t *testing.T) {
	lc, err := startCluster(clusterSpec{rms: 3, capacity: units.Mbps(1000), files: 8, fileBytes: 1 << 20, storage: units.GB})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.close()
	ep, err := lc.dial()
	if err != nil {
		t.Fatal(err)
	}
	rec := newRecorder()
	tracer := &opTracer{}
	// RemOnly: with equal remaining bandwidth everywhere the ranking is
	// the lookup order, so the winner does not hang on bid timing.
	client := func(mapper ecnp.Mapper, dir ecnp.Directory) *dfsc.Client {
		c, err := dfsc.New(dfsc.Options{
			ID: 1, Mapper: mapper, Directory: dir, Scheduler: lc.sched, Catalog: lc.cat,
			Policy: selection.RemOnly, Scenario: qos.Soft, Rand: rng.New(3),
			Fanout: dfsc.Fanout{Concurrent: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	const ops = 40
	drive := func(c *dfsc.Client, traced bool) ([]dfsc.Outcome, dfsc.Stats) {
		tracer.rec = nil
		if traced {
			tracer.rec = rec
		}
		files := rng.New(9)
		outs := make([]dfsc.Outcome, ops)
		for i := range outs {
			op, start := tracer.begin()
			out, release := c.AccessHeld(lc.cat.SamplePopular(files))
			release()
			tracer.end(op, start, out.Request)
			outs[i] = out
		}
		return outs, c.Stats()
	}
	plainOuts, plainStats := drive(client(ep.mapper, ep.dir), false)
	tracedOuts, tracedStats := drive(client(tracedMapper{ep.mapper, tracer}, newTracedDirectory(ep.dir, tracer)), true)

	for i := range plainOuts {
		if plainOuts[i] != tracedOuts[i] {
			t.Fatalf("operation %d: plain client got %+v, decorated client %+v", i, plainOuts[i], tracedOuts[i])
		}
		if !plainOuts[i].OK {
			t.Fatalf("operation %d refused: %s", i, plainOuts[i].Reason)
		}
	}
	if plainStats != tracedStats {
		t.Errorf("stats differ: plain %+v, decorated %+v", plainStats, tracedStats)
	}
	if want := int64(ops * (2 + 2*3 + 2)); plainStats.Messages != want {
		t.Errorf("%d messages for %d opens over 3 holders, want %d", plainStats.Messages, ops, want)
	}

	sum := summarize(rec.spans)
	if sum.ops != ops || sum.orphaned != 0 {
		t.Errorf("%d root spans, %d orphaned child spans, want %d and 0", sum.ops, sum.orphaned, ops)
	}
	for kind, want := range map[spanKind]int{spanLookup: ops, spanCFP: 3 * ops, spanOpen: ops, spanClose: ops} {
		if sum.count[kind] != want {
			t.Errorf("%d %s spans, want %d", sum.count[kind], spanNames[kind], want)
		}
	}
	for _, sp := range rec.spans {
		if sp.Kind == spanCFP || sp.Kind == spanOpen || sp.Kind == spanClose {
			if sp.Request == 0 {
				t.Fatalf("%s span carries no request id", spanNames[sp.Kind])
			}
		}
	}
	if problems := lc.leaks(); len(problems) > 0 {
		t.Errorf("reservations left behind: %v", problems)
	}
}

// TestSelfTime: a root of 100 with children covering [10,40] and [30,60]
// (overlapping) and [70,80] has 40 of self time.
func TestSelfTime(t *testing.T) {
	sum := summarize([]span{
		{Op: 1, Kind: spanOp, Start: 0, End: 100},
		{Op: 1, Kind: spanCFP, Start: 10, End: 40},
		{Op: 1, Kind: spanCFP, Start: 30, End: 60},
		{Op: 1, Kind: spanOpen, Start: 70, End: 80},
		{Op: 2, Kind: spanClose, Start: 0, End: 5}, // no root: orphaned
	})
	if sum.selfNs != 40 || sum.covered[spanCFP] != 50 || sum.busy[spanCFP] != 60 || sum.covered[spanOpen] != 10 {
		t.Errorf("self %v, cfp covered %v busy %v, open covered %v; want 40, 50, 60, 10",
			sum.selfNs, sum.covered[spanCFP], sum.busy[spanCFP], sum.covered[spanOpen])
	}
	if sum.orphaned != 1 || sum.ops != 1 {
		t.Errorf("%d ops, %d orphaned; want 1, 1", sum.ops, sum.orphaned)
	}
}

// TestQuartilesMatchPython pins quartiles to what Python's
// statistics.quantiles(xs, n=4) returns for the same values.
func TestQuartilesMatchPython(t *testing.T) {
	xs := []float64{736.5, 698.4, 743.0, 673.7, 764.3, 726.6, 701.2, 755.9, 710.4, 731.8}
	q1, q3 := quartiles(xs)
	if math.Abs(q1-700.5) > 1e-9 || math.Abs(q3-746.225) > 1e-9 {
		t.Errorf("quartiles %v, %v; Python gives 700.5, 746.225", q1, q3)
	}
	if got := median(xs); math.Abs(got-729.2) > 1e-9 {
		t.Errorf("median %v, want 729.2", got)
	}
}

// TestCompareVerdicts: a worse median past the bound is a regression; a
// side whose own spread exceeds the bound makes the pair unresolved; a
// change inside the bound but beyond both spreads is pointed out.
func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, work []float64, lat []float64) string {
		r := report{Schema: reportSchema, Provenance: provenance{Commit: name}}
		for i := range work {
			r.Runs = append(r.Runs, &runResult{Workload: "open_storm", Seed: uint64(i), Metrics: map[string]metric{
				"work_per_s": {work[i], "1/s"}, "latency_p50_ms": {lat[i], "ms"},
			}})
		}
		raw, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name+".json")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	// Its own contract, so the verdicts do not hang on the repo's bounds.
	specPath := filepath.Join(dir, "BENCHMARK.json")
	contract := `{"workloads": [{"name": "open_storm", "why": "test"}], "end_to_end": [
		{"name": "work_per_s", "unit": "1/s", "better": "higher", "bound": 0.10},
		{"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.15}]}`
	if err := os.WriteFile(specPath, []byte(contract), 0o644); err != nil {
		t.Fatal(err)
	}
	steady := []float64{2.0, 2.01, 1.99, 2.0, 2.02}
	base := write("base", []float64{700, 705, 695, 702, 698}, steady)
	for _, tc := range []struct {
		name      string
		work      []float64
		regressed bool
		verdict   string
	}{
		{"slower", []float64{600, 605, 595, 602, 598}, true, "REGRESSION"},
		{"slightly-slower", []float64{660, 665, 655, 662, 658}, false, "ok (worse beyond spread)"},
		{"noisy", []float64{700, 900, 500, 720, 680}, false, "unresolved"},
		{"same", []float64{700, 705, 695, 702, 698}, false, "  ok\n"},
	} {
		var out bytes.Buffer
		regressed, err := compareReports(&out, specPath, base, write(tc.name, tc.work, steady))
		if err != nil || regressed != tc.regressed || !strings.Contains(out.String(), tc.verdict) {
			t.Errorf("%s: regressed=%v err=%v, want regressed=%v and verdict %q\n%s", tc.name, regressed, err, tc.regressed, tc.verdict, out.String())
		}
	}
}

// TestBlockReaderRepeats: an object's content is a function of seed and
// file id alone, and no two of its blocks are equal.
func TestBlockReaderRepeats(t *testing.T) {
	read := func(seed uint64, file int) []byte {
		r := newBlockReader(seed, file, 3*ingestBlock)
		var got []byte
		buf := make([]byte, 1000)
		for {
			n, err := r.Read(buf)
			got = append(got, buf[:n]...)
			if err != nil {
				return got
			}
		}
	}
	a, b := read(1, 2), read(1, 2)
	if len(a) != 3*ingestBlock || !bytes.Equal(a, b) {
		t.Fatalf("same seed and file gave %d and %d bytes, equal=%v", len(a), len(b), bytes.Equal(a, b))
	}
	if bytes.Equal(a[:ingestBlock], a[ingestBlock:2*ingestBlock]) {
		t.Error("two blocks of one object are equal")
	}
	if bytes.Equal(a, read(1, 3)) || bytes.Equal(a, read(2, 2)) {
		t.Error("content does not depend on the seed or the file id")
	}
}
