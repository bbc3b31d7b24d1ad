package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"runtime"
	"runtime/debug"
	"strings"

	"dfsqos/internal/metrics"
)

// layerMetrics fills a traced run's per-layer metrics that come from the
// workload itself: the span shares of the traced pass, the dfsc and
// scenario counters, process costs of the untraced pass, and the
// tracing overhead (the ratio of the two passes' throughput).
func layerMetrics(res *runResult, info workloadInfo, plain, traced *pass, sum *traceSummary, proc map[string]metric) {
	set := func(name string, v float64, unit string) { res.Metrics[name] = metric{v, unit} }

	set("op.p50_ms", median(plain.latencies), "ms")
	set("op.p99_ms", metrics.Percentile(plain.latencies, 99), "ms")
	for k, v := range proc {
		res.Metrics[k] = v
	}
	overhead := 0.0
	if plain.workPerS > 0 {
		overhead = traced.workPerS / plain.workPerS
	}
	set("bench.trace_overhead_ratio", overhead, "ratio")

	// Where an operation's time goes, as shares of the root span: a
	// share is 0 when the operation makes no such call (an upload has no
	// lookup), which is then a measurement and not a gap.
	set("trace.op_ms_p50", median(sum.opMs), "ms")
	set("dfsc.lookup_share", sum.share(spanLookup), "ratio")
	set("dfsc.bid_fanout_share", sum.share(spanCFP), "ratio")
	set("dfsc.open_share", sum.share(spanOpen), "ratio")
	set("dfsc.close_share", sum.share(spanClose), "ratio")
	set("dfsc.stream_share", sum.share(spanStream)+sum.share(spanStreamRange), "ratio")
	set("dfsc.self_share", sum.selfShare(), "ratio")
	set("dfsc.cfp_per_op", sum.perOp(spanCFP), "count")
	// Lane occupancy: stream-span time over lanes × operation time. A
	// read holds one reservation per lane, so its opens count its lanes;
	// a bare fetch (no open of its own) is one lane.
	lanes := max(1, sum.perOp(spanOpen))
	laneBusy := 0.0
	if sum.rootNs > 0 {
		laneBusy = (sum.busy[spanStream] + sum.busy[spanStreamRange]) / (lanes * sum.rootNs)
	}
	set("dfsc.lane_busy_ratio", laneBusy, "ratio")

	// Counters the workloads report; absent means the workload has none,
	// and 0 is then what was counted.
	extras := map[string]string{
		"dfsc.msgs_per_request": "count", "dfsc.hedges": "count", "dfsc.failovers": "count",
		"qos.floor_min_ratio": "ratio", "qos.disk_utilization": "ratio",
		"des.requests": "count", "des.failed": "count", "des.replications": "count",
		"stream.unattributed_ratio": "ratio", // stream_seq overwrites it, see reconcileStream
	}
	for name, unit := range extras {
		set(name, plain.extra[name], unit)
	}

	var b strings.Builder
	fmt.Fprintf(&b, "traced pass: %d operations, %d spans orphaned\n", sum.ops, sum.orphaned)
	fmt.Fprintf(&b, "  %-16s %10s %12s %10s\n", "span", "per op", "p50 ms", "share")
	fmt.Fprintf(&b, "  %-16s %10d %12.3f %10.3f\n", "op (root)", 1, median(sum.opMs), 1.0)
	for k := spanKind(1); k < numSpanKinds; k++ {
		if sum.count[k] == 0 {
			continue
		}
		// p50 of the operation's longest span of the kind: for rm.cfp
		// that is the slowest bid, the one the fan-out waits for.
		fmt.Fprintf(&b, "  %-16s %10.2f %12.3f %10.3f\n", spanNames[k], sum.perOp(k), median(sum.kindMs[k]), sum.share(k))
	}
	fmt.Fprintf(&b, "  %-16s %10s %12s %10.3f\n", "self (uncovered)", "", "", sum.selfShare())
	fmt.Fprintf(&b, "process cost per unit of work (%s), untraced pass:\n", info.work)
	for _, k := range sortedKeys(proc) {
		fmt.Fprintf(&b, "  %-26s %14.4f %s\n", k, proc[k].Value, proc[k].Unit)
	}
	res.notes = append(res.notes, strings.TrimRight(b.String(), "\n"))
}

// reconcileStream sets stream.unattributed_ratio for stream_seq: the
// serial stage costs the micro-benchmarks predict for one MB, against
// the ns per MB the workload measured. Server and client stages overlap
// on two cores, so the measured figure can come out below the serial
// sum; the ratio is recorded, not gated.
func reconcileStream(res *runResult, plain *pass) {
	perMB := func(name string) float64 { // ns per MB from an MB/s metric
		if v := res.Metrics[name].Value; v > 0 {
			return 1e9 / v
		}
		return 0
	}
	chunksPerMB := mb / chunkBytes
	stages := []struct {
		name string
		ns   float64
	}{
		{"vdisk read (synthesize, incl. blkio wait)", perMB("vdisk.read_mb_per_s")},
		{"chunk encode", res.Metrics["wire.chunk_encode_ns"].Value * chunksPerMB},
		{"loopback socket", perMB("loopback.mb_per_s")},
		{"chunk decode", res.Metrics["wire.chunk_decode_ns"].Value * chunksPerMB},
		{"client checksum", perMB("wire.checksum_mb_per_s")},
	}
	measured := 0.0
	if plain.workPerS > 0 {
		measured = 1e9 / plain.workPerS
	}
	var b strings.Builder
	fmt.Fprintf(&b, "stream_seq stage reconciliation (ns per MB):\n")
	predicted := 0.0
	for _, st := range stages {
		predicted += st.ns
		fmt.Fprintf(&b, "  %-44s %12.0f\n", st.name, st.ns)
	}
	fmt.Fprintf(&b, "  %-44s %12.0f\n", "  of which blkio wait, uncontended", res.Metrics["blkio.wait_uncontended_ns"].Value*chunksPerMB)
	unattributed := 0.0
	if measured > 0 {
		unattributed = (measured - predicted) / measured
	}
	fmt.Fprintf(&b, "  %-44s %12.0f\n", "predicted, stages in series", predicted)
	fmt.Fprintf(&b, "  %-44s %12.0f\n", "measured (1e9 / work_per_s)", measured)
	fmt.Fprintf(&b, "  %-44s %12.3f", "unattributed share of measured", unattributed)
	res.Metrics["stream.unattributed_ratio"] = metric{unattributed, "ratio"}
	res.notes = append(res.notes, b.String())
}

// printReport writes the human-readable form of one run.
func printReport(w io.Writer, info workloadInfo, res *runResult) {
	mode := "untraced (end-to-end metrics)"
	if res.Trace {
		mode = "traced (per-layer metrics)"
	}
	fmt.Fprintf(w, "== %s  seed %d  %.1f s  %s\n", res.Workload, res.Seed, res.Seconds, mode)
	fmt.Fprintf(w, "   unit of work: %s; latency: %s\n", info.work, info.latency)
	for _, k := range sortedKeys(res.Metrics) {
		fmt.Fprintf(w, "  %-34s %16.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	for _, n := range res.notes {
		fmt.Fprintln(w, n)
	}
	fmt.Fprintf(w, "attempted %d, failed %d, fail ratio %.6f\n", res.Attempted, res.Failed,
		float64(res.Failed)/float64(max(res.Attempted, 1)))
	for _, p := range res.Problems {
		fmt.Fprintf(w, "CHECK FAILED: %s\n", p)
	}
}

// writeSpans dumps one traced pass as JSON lines.
func writeSpans(w io.Writer, workload string, spans []span) error {
	enc := json.NewEncoder(w)
	for _, sp := range spans {
		err := enc.Encode(struct {
			Workload string `json:"workload"`
			Op       uint32 `json:"op"`
			Name     string `json:"name"`
			StartNs  int64  `json:"start_ns"`
			EndNs    int64  `json:"end_ns"`
			Request  int64  `json:"request,omitempty"`
		}{workload, sp.Op, spanNames[sp.Kind], sp.Start, sp.End, int64(sp.Request)})
		if err != nil {
			return err
		}
	}
	return nil
}

const reportSchema = "dfsqos-bench/v1"

// provenance says what produced a report's numbers.
type provenance struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
}

// report is the -out file: every run appended by invocations of one
// build on one box.
type report struct {
	Schema     string     `json:"schema"`
	Provenance provenance `json:"provenance"`
	// Environment is the plain statement of what the latencies are.
	Environment string       `json:"environment"`
	Runs        []*runResult `json:"runs"`
}

const environmentNote = "All traffic crossed the host's loopback interface and every vdisk is in memory " +
	"(file content is synthesized or held on the heap): latencies and rates are this sandbox's, not a network's or a device's. " +
	"Clients and servers share one process."

func currentProvenance() provenance {
	p := provenance{Commit: "unknown", GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU()}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p.Commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					p.Commit += "+dirty"
				}
			}
		}
	}
	return p
}

func readReport(path string) (*report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != reportSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, r.Schema, reportSchema)
	}
	return &r, nil
}

// appendReport adds runs to the report at path, creating it if needed.
// One file holds one build's runs: appending from another build is
// refused, since the medians -compare takes would mix two programs.
func appendReport(path string, runs []*runResult) error {
	r, err := readReport(path)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		r = &report{Schema: reportSchema, Provenance: currentProvenance(), Environment: environmentNote}
	case err != nil:
		return err
	case r.Provenance != currentProvenance():
		return fmt.Errorf("%s was written by %+v, this build is %+v: use another file", path, r.Provenance, currentProvenance())
	}
	r.Runs = append(r.Runs, runs...)
	raw, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
