// Package metrics computes and renders the paper's evaluation criteria:
// the over-allocate ratio R_OA = S_OA/S_TA of the soft real-time scenario,
// the fail rate of the firm real-time scenario, and the bandwidth
// utilization time series behind Figs. 4-6.
package metrics

import (
	"fmt"
	"math"
	"strings"

	"dfsqos/internal/ids"
	"dfsqos/internal/ledger"
	"dfsqos/internal/simtime"
	"dfsqos/internal/units"
)

// Point is one sample of a time series.
type Point struct {
	At    simtime.Time
	Value float64
}

// Series is an append-only time series (e.g. allocated bandwidth of one RM
// sampled every few seconds).
type Series struct {
	Name   string
	Points []Point
}

// Append adds a sample. Samples must arrive in non-decreasing time order.
func (s *Series) Append(at simtime.Time, v float64) {
	if n := len(s.Points); n > 0 && at < s.Points[n-1].At {
		panic(fmt.Sprintf("metrics: series %q sample at %v before %v", s.Name, at, s.Points[n-1].At))
	}
	s.Points = append(s.Points, Point{At: at, Value: v})
}

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.Points) }

// Mean returns the arithmetic mean of the samples, or 0 when empty.
func (s *Series) Mean() float64 {
	if len(s.Points) == 0 {
		return 0
	}
	sum := 0.0
	for _, p := range s.Points {
		sum += p.Value
	}
	return sum / float64(len(s.Points))
}

// Downsample returns every k-th point (k ≥ 1), always keeping the first
// and last, for compact figure output.
func (s *Series) Downsample(k int) []Point {
	if k <= 1 || len(s.Points) <= 2 {
		out := make([]Point, len(s.Points))
		copy(out, s.Points)
		return out
	}
	var out []Point
	for i := 0; i < len(s.Points); i += k {
		out = append(out, s.Points[i])
	}
	if last := s.Points[len(s.Points)-1]; out[len(out)-1].At != last.At {
		out = append(out, last)
	}
	return out
}

// Sum pointwise-adds series with identical sampling instants (used for the
// aggregated utilization of Fig. 5). It panics on mismatched shapes.
func Sum(name string, series ...*Series) *Series {
	if len(series) == 0 {
		return &Series{Name: name}
	}
	n := series[0].Len()
	out := &Series{Name: name, Points: make([]Point, n)}
	for i := 0; i < n; i++ {
		at := series[0].Points[i].At
		total := 0.0
		for _, s := range series {
			if s.Len() != n || s.Points[i].At != at {
				panic(fmt.Sprintf("metrics: Sum over misaligned series %q", s.Name))
			}
			total += s.Points[i].Value
		}
		out.Points[i] = Point{At: at, Value: total}
	}
	return out
}

// RMResult couples one RM's identity with its end-of-run accounting.
type RMResult struct {
	ID       ids.RMID
	Capacity units.BytesPerSec
	Snap     ledger.Snapshot
}

// OverAllocateRatio returns this RM's R_OA.
func (r RMResult) OverAllocateRatio() float64 { return r.Snap.OverAllocateRatio() }

// AggregateOverAllocate computes the run-level over-allocate ratio
// Σ S_OA / Σ S_TA across RMs, the "average over-allocate ratio" of
// Tables I and IV.
func AggregateOverAllocate(rms []RMResult) float64 {
	var oa, ta float64
	for _, r := range rms {
		oa += r.Snap.OverBytes
		ta += r.Snap.AssignedBytes
	}
	if ta <= 0 {
		return 0
	}
	return oa / ta
}

// FailRate returns failed/total, the firm real-time criterion.
func FailRate(failed, total int64) float64 {
	if total <= 0 {
		return 0
	}
	return float64(failed) / float64(total)
}

// Pct formats a ratio as the paper prints it, e.g. "9.771%".
func Pct(v float64) string {
	if math.IsNaN(v) {
		return "NaN"
	}
	return fmt.Sprintf("%.3f%%", 100*v)
}

// Table renders aligned experiment tables in plain text.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table { return &Table{header: header} }

// AddRow appends a row; short rows are padded with empty cells.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.header))
	copy(row, cells)
	t.rows = append(t.rows, row)
}

// String renders the table with column alignment and a separator line.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	total := 0
	for _, w := range widths {
		total += w
	}
	b.WriteString(strings.Repeat("-", total+2*(len(widths)-1)))
	b.WriteByte('\n')
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}
