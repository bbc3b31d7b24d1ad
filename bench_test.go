// Benchmarks regenerating every table and figure of the paper's evaluation
// (one benchmark per exhibit, at reduced Quick scale so the full suite runs
// in seconds).
//
// Regenerate the full-size exhibits with:  go run ./cmd/qosbench -exp all
package dfsqos

import (
	"testing"

	"dfsqos/internal/experiments"
)

// benchOptions is the reduced scale shared by the exhibit benches.
func benchOptions() ExperimentOptions {
	o := experiments.Quick()
	o.Users = []int{64, 192}
	o.StandardUsers = 192
	o.HorizonSec = 900
	return o
}

func runExhibit(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Run(id, benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Cells)+len(res.Series) == 0 {
			b.Fatalf("%s produced no data", id)
		}
	}
}

// BenchmarkTable1 regenerates Table I (over-allocate ratio, soft real-time,
// policy × user sweep, static replication).
func BenchmarkTable1(b *testing.B) { runExhibit(b, "table1") }

// BenchmarkTable2 regenerates Table II (per-RM over-allocate ratio).
func BenchmarkTable2(b *testing.B) { runExhibit(b, "table2") }

// BenchmarkTable3 regenerates Table III (fail rate, firm real-time).
func BenchmarkTable3(b *testing.B) { runExhibit(b, "table3") }

// BenchmarkTable4 regenerates Table IV (over-allocate ratio with dynamic
// replication, soft real-time).
func BenchmarkTable4(b *testing.B) { runExhibit(b, "table4") }

// BenchmarkTable5 regenerates Table V (fail rate with dynamic replication).
func BenchmarkTable5(b *testing.B) { runExhibit(b, "table5") }

// BenchmarkTable6 regenerates Table VI (destination selection, soft).
func BenchmarkTable6(b *testing.B) { runExhibit(b, "table6") }

// BenchmarkTable7 regenerates Table VII (destination selection, firm).
func BenchmarkTable7(b *testing.B) { runExhibit(b, "table7") }

// BenchmarkFig4 regenerates Fig. 4 (over-allocate situation over time).
func BenchmarkFig4(b *testing.B) { runExhibit(b, "fig4") }

// BenchmarkFig5 regenerates Fig. 5 (aggregated utilization, large vs small
// RMs, firm real-time).
func BenchmarkFig5(b *testing.B) { runExhibit(b, "fig5") }

// BenchmarkFig6 regenerates Fig. 6 (RM1/RM2 utilization under the four
// replication strategies).
func BenchmarkFig6(b *testing.B) { runExhibit(b, "fig6") }

// BenchmarkFig7 regenerates Fig. 7 (per-RM over-allocate, static vs
// Rep(1,3)).
func BenchmarkFig7(b *testing.B) { runExhibit(b, "fig7") }
