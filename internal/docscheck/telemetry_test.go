package docscheck

import (
	"fmt"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// stateViewPackages keep every count they export as state of their own —
// a client's Stats, an RM's Stats and tables, a disk throttle's Stats, a
// tenant ledger's rows, an MM's liveness tables and counts — and bind it
// to telemetry Func series read at scrape time, so no event is counted
// twice. Their non-test code may observe histograms, which have no other
// record, but may not write a counter or a gauge.
var stateViewPackages = []string{"blkio", "dfsc", "mm", "rm", "tenant"}

// writtenMetrics are the telemetry types whose methods write a copy of a
// count.
var writtenMetrics = map[string]bool{"Counter": true, "Gauge": true, "CounterVec": true}

// TestStateViewPackagesWriteNoCounters fails on each method of a written
// counter, gauge or vector that non-test code of stateViewPackages uses.
func TestStateViewPackagesWriteNoCounters(t *testing.T) {
	l, err := thisModule()
	if err != nil {
		t.Fatal(err)
	}
	for _, hit := range writtenMetricUses(l, stateViewPackages) {
		t.Error(hit)
	}
}

// writtenMetricUses lists, sorted, each use of a written-metric method of
// the module's internal/telemetry in the non-test code of pkgs (paths
// below internal/).
func writtenMetricUses(l *moduleLoad, pkgs []string) []string {
	telemetryPath := l.modPath + "/internal/telemetry"
	scoped := make(map[string]bool)
	for _, p := range pkgs {
		scoped[filepath.Join(l.root, "internal", p)] = true
	}
	var out []string
	for i, info := range l.infos {
		if len(l.files[i]) == 0 || !scoped[filepath.Dir(l.fset.Position(l.files[i][0].Pos()).Filename)] {
			continue
		}
		for sel, s := range info.Selections {
			if s.Kind() != types.MethodVal {
				continue
			}
			recv := s.Recv()
			if p, ok := recv.(*types.Pointer); ok {
				recv = p.Elem()
			}
			named, ok := recv.(*types.Named)
			if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != telemetryPath || !writtenMetrics[named.Obj().Name()] {
				continue
			}
			pos := l.fset.Position(sel.Pos())
			out = append(out, fmt.Sprintf("%s:%d: %s.%s writes a copy of a count the package keeps: bind its state to a telemetry Func series instead",
				pos.Filename, pos.Line, named.Obj().Name(), s.Obj().Name()))
		}
	}
	sort.Strings(out)
	return out
}

// TestWrittenMetricScanTeeth runs the scan over a module whose rm package
// increments a Counter, observes a Histogram and binds a CounterFunc, and
// whose transport package, which the scan leaves out, increments a
// Counter too: it must flag the rm increment alone.
func TestWrittenMetricScanTeeth(t *testing.T) {
	l := loadSynth(t, map[string]string{
		"go.mod": "module synth\n\ngo 1.22\n",
		"internal/telemetry/telemetry.go": `package telemetry

type Counter struct{ n uint64 }

func (c *Counter) Inc() { c.n++ }

type Histogram struct{ sum float64 }

func (h *Histogram) Observe(v float64) { h.sum += v }

type CounterFunc struct{ srcs []func() uint64 }

func (f *CounterFunc) Bind(read func() uint64) { f.srcs = append(f.srcs, read) }
`,
		"internal/rm/rm.go": `package rm

import "synth/internal/telemetry"

type RM struct {
	opens   int
	planted *telemetry.Counter
	wait    *telemetry.Histogram
	series  *telemetry.CounterFunc
}

func (r *RM) Open() {
	r.opens++
	r.planted.Inc()
	r.wait.Observe(1)
}

func (r *RM) Bind() { r.series.Bind(func() uint64 { return uint64(r.opens) }) }
`,
		"internal/transport/transport.go": `package transport

import "synth/internal/telemetry"

func Call(c *telemetry.Counter) { c.Inc() }
`,
	})
	hits := writtenMetricUses(l, stateViewPackages)
	if len(hits) != 1 || !strings.Contains(hits[0], filepath.Join("internal", "rm", "rm.go")+":14: Counter.Inc") {
		t.Fatalf("scan = %q, want the rm increment alone", hits)
	}
}
