// Command bench is the repo's benchmark: it stands up real loopback-TCP
// ECNP clusters and the discrete-event simulator through public
// constructors, drives seven named workloads, checks their outputs and
// prints every metric by name with its unit. BENCHMARK.json at the repo
// root names the metrics and their regression bounds; bench/README.md
// says why each workload and metric exists.
//
//	go run ./bench -workload open_storm -seed 1 -seconds 10 -trace 0
//	go run ./bench -workload stripe_k4 -trace 1      # per-layer numbers
//	go run ./bench -compare a.json b.json            # two -out reports
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"dfsqos/internal/metrics"
)

// runConfig is one invocation's settings for one workload.
type runConfig struct {
	seed    uint64
	seconds float64
	trace   bool
	short   bool
}

// runResult is one workload run: what the last stdout line carries, plus
// what the human-readable report and the -out file add.
type runResult struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Seconds  float64 `json:"seconds"`
	// WindowScale is Seconds over the nominal window (BENCHMARK.json's
	// run_seconds): every phase of a workload scales by it.
	WindowScale float64           `json:"window_scale"`
	Trace       bool              `json:"trace"`
	Short       bool              `json:"short,omitempty"`
	Correct     bool              `json:"correct"`
	Attempted   int64             `json:"attempted"`
	Failed      int64             `json:"failed"`
	Metrics     map[string]metric `json:"metrics"`
	Problems    []string          `json:"problems,omitempty"`

	notes []string // human-readable report sections
}

const (
	// nominalSeconds is the window BENCHMARK.json's run_seconds asks for.
	nominalSeconds = 10
	// An untraced run sets a live cluster up at least minSetupReps times
	// and until setupBudget is spent or maxSetupReps is reached; setup_s
	// is the median. Cheap set-ups are repeated more, since a median of
	// few millisecond-long samples swings with the scheduler.
	minSetupReps = 5
	maxSetupReps = 25
	setupBudget  = time.Second
	// warmShare of the window is spent warming up before measuring.
	warmShare = 0.15
)

func main() {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	name := fs.String("workload", "all", "workload to run: all, or one of "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "seed for the file sequence, object contents and DES scenarios")
	seconds := fs.Float64("seconds", nominalSeconds, "length of the measured window")
	trace := fs.Int("trace", 0, "0: end-to-end metrics from an untraced pass; 1: per-layer metrics (micro-benchmarks plus a traced pass)")
	short := fs.Bool("short", false, "smoke run: reduced file sizes, DES scale and iteration counts, one set-up")
	out := fs.String("out", "", "append this invocation's runs to a JSON report with a provenance envelope")
	spans := fs.String("spans", "", "with -trace 1: write the recorded spans to this file as JSON lines")
	compare := fs.Bool("compare", false, "compare two -out reports given as arguments against BENCHMARK.json's bounds")
	fs.Parse(os.Args[1:])

	if *compare {
		if fs.NArg() != 2 {
			fatalf("usage: bench -compare a.json b.json")
		}
		regressed, err := compareReports(os.Stdout, "BENCHMARK.json", fs.Arg(0), fs.Arg(1))
		if err != nil {
			fatalf("%v", err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	if fs.NArg() != 0 {
		fatalf("unexpected arguments %q", fs.Args())
	}
	if *seconds <= 0 {
		fatalf("-seconds must be positive")
	}
	selected := workloads
	if *name != "all" {
		info, ok := findWorkload(*name)
		if !ok {
			fatalf("unknown workload %q (have %s)", *name, strings.Join(workloadNames(), ", "))
		}
		selected = []workloadInfo{info}
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace != 0, short: *short}

	var spanOut io.Writer
	if *spans != "" {
		f, err := os.Create(*spans)
		if err != nil {
			fatalf("%v", err)
		}
		defer f.Close()
		spanOut = f
	}

	ok := true
	var results []*runResult
	for _, info := range selected {
		res, err := runWorkload(info, cfg, spanOut)
		if err != nil {
			fatalf("%s: %v", info.name, err)
		}
		results = append(results, res)
		printReport(os.Stdout, info, res)
		ok = ok && res.Correct
		// The result line: one JSON object, last on stdout when one
		// workload is selected.
		line, err := json.Marshal(struct {
			Correct   bool              `json:"correct"`
			Attempted int64             `json:"attempted"`
			Failed    int64             `json:"failed"`
			Metrics   map[string]metric `json:"metrics"`
		}{res.Correct, res.Attempted, res.Failed, res.Metrics})
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("%s\n", line)
	}
	if *out != "" {
		if err := appendReport(*out, results); err != nil {
			fatalf("%v", err)
		}
	}
	if !ok {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// runWorkload runs one workload once: untraced for the end-to-end
// metrics, or (trace) an untraced half window, a traced half window and
// the layer micro-benchmarks for the per-layer metrics.
func runWorkload(info workloadInfo, cfg runConfig, spanOut io.Writer) (*runResult, error) {
	res := &runResult{
		Workload: info.name, Seed: cfg.seed, Seconds: cfg.seconds, WindowScale: cfg.seconds / nominalSeconds,
		Trace: cfg.trace, Short: cfg.short,
		Metrics: make(map[string]metric),
	}
	w := info.new(cfg.short)
	defer w.close()

	var setups []float64
	for spent := time.Duration(0); ; {
		t0 := time.Now()
		if err := w.build(cfg.seed); err != nil {
			return nil, fmt.Errorf("build: %w", err)
		}
		if err := w.first(); err != nil {
			return nil, fmt.Errorf("first operation: %w", err)
		}
		took := time.Since(t0)
		spent += took
		setups = append(setups, took.Seconds())
		if n := len(setups); cfg.trace || cfg.short || n == maxSetupReps || (n >= minSetupReps && spent >= setupBudget) {
			break
		}
		w.close()
	}
	if err := w.warm(seconds(cfg.seconds * warmShare)); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}

	window := seconds(cfg.seconds)
	if cfg.trace {
		window /= 2
	}
	before := readProc()
	p, err := w.measure(window, nil)
	if err != nil {
		return nil, err
	}
	after := readProc()
	problems := p.problems
	res.Attempted, res.Failed = p.attempted, p.failed

	if !cfg.trace {
		if len(p.setups) > 0 {
			setups = p.setups
		}
		res.Metrics["setup_s"] = metric{median(setups), "s"}
		res.Metrics["work_per_s"] = metric{p.workPerS, "1/s"}
		res.Metrics["latency_p50_ms"] = metric{median(p.latencies), "ms"}
		res.notes = append(res.notes, fmt.Sprintf(
			"window %.2f s, %d %s, %d latency samples (p50 %.3f ms, p99 %.3f ms), set-up median of %d",
			p.wall.Seconds(), int64(p.work), info.work, len(p.latencies),
			median(p.latencies), metrics.Percentile(p.latencies, 99), len(setups)))
	} else {
		rec := newRecorder()
		traced, err := w.measure(window, rec)
		if err != nil {
			return nil, err
		}
		problems = append(problems, traced.problems...)
		res.Attempted += traced.attempted
		res.Failed += traced.failed
		layerMetrics(res, info, p, traced, summarize(rec.spans), procMetrics(before, after, p))
		if spanOut != nil {
			if err := writeSpans(spanOut, info.name, rec.spans); err != nil {
				return nil, err
			}
		}
	}
	problems = append(problems, w.verify()...)
	w.close() // the micro-benchmarks below want the box to themselves

	if cfg.trace {
		micro, err := runMicro(cfg.short)
		if err != nil {
			return nil, fmt.Errorf("micro-benchmarks: %w", err)
		}
		for k, v := range micro {
			res.Metrics[k] = v
		}
		if info.name == "stream_seq" {
			reconcileStream(res, p)
		}
	}
	res.Problems = problems
	res.Correct = len(problems) == 0
	if res.Attempted < 1 {
		res.Correct = false
		res.Problems = append(res.Problems, "no operation was attempted")
	}
	return res, nil
}
