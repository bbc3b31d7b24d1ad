package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchmarkSpec is the part of BENCHMARK.json the benchmark itself reads.
type benchmarkSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readBenchmarkSpec(path string) (*benchmarkSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

// samples collects a report's untraced values per (workload, metric).
func samples(r *report) map[[2]string][]float64 {
	out := make(map[[2]string][]float64)
	for _, run := range r.Runs {
		if run.Trace {
			continue
		}
		for name, m := range run.Metrics {
			key := [2]string{run.Workload, name}
			out[key] = append(out[key], m.Value)
		}
	}
	return out
}

// compareReports prints, for every (workload, end-to-end metric) pair
// both reports hold, the relative change of B's median against A's and
// the pair's bound. A pair is a regression when B's median is worse by
// more than the bound; it is unresolved, not unchanged, when either
// side's own run-to-run spread (interquartile distance over median) is
// wider than the bound — unless every run of B reads better than every
// run of A. It reports whether any pair regressed.
func compareReports(w io.Writer, specPath, pathA, pathB string) (regressed bool, err error) {
	spec, err := readBenchmarkSpec(specPath)
	if err != nil {
		return false, err
	}
	a, err := readReport(pathA)
	if err != nil {
		return false, err
	}
	b, err := readReport(pathB)
	if err != nil {
		return false, err
	}
	sa, sb := samples(a), samples(b)
	fmt.Fprintf(w, "A: %s (%s)\nB: %s (%s)\n", pathA, a.Provenance.Commit, pathB, b.Provenance.Commit)
	fmt.Fprintf(w, "%-14s %-16s %5s %12s %12s %8s %7s %8s %8s  %s\n",
		"workload", "metric", "runs", "median A", "median B", "B vs A", "bound", "spread A", "spread B", "verdict")
	compared := 0
	for _, wl := range spec.Workloads {
		for _, ms := range spec.EndToEnd {
			key := [2]string{wl.Name, ms.Name}
			va, vb := sa[key], sb[key]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			compared++
			medA, medB := median(va), median(vb)
			change := 0.0
			if medA != 0 {
				change = (medB - medA) / medA
			}
			worse := change // share by which B is worse than A
			if ms.Better == "higher" {
				worse = -change
			}
			spA, spB := spread(va), spread(vb)
			verdict := "ok"
			switch {
			case worse > ms.Bound:
				verdict = "REGRESSION"
				regressed = true
			case (spA > ms.Bound || spB > ms.Bound) && !allBetter(va, vb, ms.Better):
				verdict = "unresolved"
			case worse > spA && worse > spB:
				// Inside the bound, but more than either side's own runs
				// differ among themselves: worth a look, not a failure.
				verdict = "ok (worse beyond spread)"
			}
			fmt.Fprintf(w, "%-14s %-16s %2d/%-2d %12.5g %12.5g %+7.1f%% %6.0f%% %7.1f%% %7.1f%%  %s\n",
				wl.Name, ms.Name, len(va), len(vb), medA, medB, 100*change, 100*ms.Bound, 100*spA, 100*spB, verdict)
		}
	}
	if compared == 0 {
		return false, fmt.Errorf("the two reports share no (workload, end-to-end metric) pair")
	}
	return regressed, nil
}

// allBetter reports whether every value of b reads better than every
// value of a.
func allBetter(a, b []float64, better string) bool {
	for _, x := range a {
		for _, y := range b {
			if (better == "higher" && y <= x) || (better != "higher" && y >= x) {
				return false
			}
		}
	}
	return true
}
