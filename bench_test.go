// Benchmarks regenerating every table and figure of the paper's evaluation
// (one benchmark per exhibit, at reduced Quick scale so the full suite runs
// in seconds), plus ablation benches for the design choices DESIGN.md
// calls out and micro-benchmarks of the hot paths.
//
// Regenerate the full-size exhibits with:  go run ./cmd/qosbench -exp all
package dfsqos

import (
	"fmt"
	"testing"

	"net"

	"dfsqos/internal/ecnp"
	"dfsqos/internal/experiments"
	"dfsqos/internal/history"
	"dfsqos/internal/ids"
	"dfsqos/internal/ledger"
	"dfsqos/internal/qos"
	"dfsqos/internal/replication"
	"dfsqos/internal/rng"
	"dfsqos/internal/selection"
	"dfsqos/internal/simtime"
	"dfsqos/internal/units"
	"dfsqos/internal/wire"
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

// benchRun executes one cluster configuration per iteration.
func benchRun(b *testing.B, mutate func(*Config)) {
	b.Helper()
	cfg := DefaultConfig()
	cfg.Workload.NumUsers = 192
	cfg.Workload.HorizonSec = 900
	cfg.Catalog.NumFiles = 400
	if mutate != nil {
		mutate(&cfg)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimSoftStatic measures a full soft-RT static-replication run.
func BenchmarkSimSoftStatic(b *testing.B) { benchRun(b, nil) }

// BenchmarkSimFirmRep13 measures a firm-RT Rep(1,3) run (replication on).
func BenchmarkSimFirmRep13(b *testing.B) {
	benchRun(b, func(cfg *Config) {
		cfg.Scenario = qos.Firm
		cfg.Replication = ReplicationDefaults(Rep(1, 3))
	})
}

// Ablation benches: each sweeps one design parameter DESIGN.md §6 calls
// out and reports the resulting QoS metric, so a regression in the
// mechanism shows up as a metric shift, not just a time shift.

// BenchmarkAblationTriggerThreshold sweeps B_TH.
func BenchmarkAblationTriggerThreshold(b *testing.B) {
	for _, bth := range []float64{0.10, 0.20, 0.40} {
		b.Run(fmt.Sprintf("BTH=%.0f%%", bth*100), func(b *testing.B) {
			var last float64
			for i := 0; i < b.N; i++ {
				cfg := ablationBase()
				cfg.Replication.TriggerFrac = bth
				res, err := Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				last = res.FailRate
			}
			b.ReportMetric(last*100, "failrate_%")
		})
	}
}

// BenchmarkAblationCooldown sweeps the 60 s replication cooldown.
func BenchmarkAblationCooldown(b *testing.B) {
	for _, cd := range []float64{5, 60, 300} {
		b.Run(fmt.Sprintf("cooldown=%.0fs", cd), func(b *testing.B) {
			var last float64
			for i := 0; i < b.N; i++ {
				cfg := ablationBase()
				cfg.Replication.CooldownSec = cd
				res, err := Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				last = res.FailRate
			}
			b.ReportMetric(last*100, "failrate_%")
		})
	}
}

// BenchmarkAblationReplicationSpeed sweeps the 1.8 Mbit/s transfer rate.
func BenchmarkAblationReplicationSpeed(b *testing.B) {
	for _, mbps := range []float64{0.9, 1.8, 7.2} {
		b.Run(fmt.Sprintf("speed=%.1fMbps", mbps), func(b *testing.B) {
			var last float64
			for i := 0; i < b.N; i++ {
				cfg := ablationBase()
				cfg.Replication.Speed = Mbps(mbps)
				res, err := Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				last = res.FailRate
			}
			b.ReportMetric(last*100, "failrate_%")
		})
	}
}

// BenchmarkAblationChargeTransfers quantifies the cost of charging
// replication traffic against the QoS pool instead of the paper's B_REV
// reserve.
func BenchmarkAblationChargeTransfers(b *testing.B) {
	for _, charge := range []bool{false, true} {
		b.Run(fmt.Sprintf("charge=%v", charge), func(b *testing.B) {
			var last float64
			for i := 0; i < b.N; i++ {
				cfg := ablationBase()
				cfg.Replication.ChargeTransfers = charge
				res, err := Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				last = res.FailRate
			}
			b.ReportMetric(last*100, "failrate_%")
		})
	}
}

// BenchmarkAblationZipfSkew sweeps the popularity skew of the catalog.
func BenchmarkAblationZipfSkew(b *testing.B) {
	for _, skew := range []float64{0.7, 0.95, 1.2} {
		b.Run(fmt.Sprintf("skew=%.2f", skew), func(b *testing.B) {
			var last float64
			for i := 0; i < b.N; i++ {
				cfg := ablationBase()
				cfg.Catalog.ZipfSkew = skew
				res, err := Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				last = res.FailRate
			}
			b.ReportMetric(last*100, "failrate_%")
		})
	}
}

func ablationBase() Config {
	cfg := DefaultConfig()
	cfg.Scenario = qos.Firm
	cfg.Policy = PolicyRemOnly
	cfg.Replication = ReplicationDefaults(Rep(1, 3))
	cfg.Workload.NumUsers = 224
	cfg.Workload.HorizonSec = 1200
	cfg.Catalog.NumFiles = 400
	return cfg
}

// Micro-benchmarks of the hot paths.

// BenchmarkBidScore measures one bid evaluation.
func BenchmarkBidScore(b *testing.B) {
	bid := selection.Bid{RM: 1, Rem: Mbps(10), Trend: 12345, OccBias: 0.4, Req: Mbps(2)}
	pol := selection.Full
	b.ReportAllocs()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += pol.Score(bid)
	}
	_ = sink
}

// BenchmarkSelect measures a full 3-bid selection round.
func BenchmarkSelect(b *testing.B) {
	bids := []selection.Bid{
		{RM: 1, Rem: Mbps(10)},
		{RM: 2, Rem: Mbps(12)},
		{RM: 3, Rem: Mbps(8)},
	}
	src := benchRand()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		selection.Select(selection.RemOnly, bids, src)
	}
}

// BenchmarkDestinationOrder measures destination sampling over 14
// candidates for each strategy.
func BenchmarkDestinationOrder(b *testing.B) {
	cands := make([]ids.RMID, 14)
	for i := range cands {
		cands[i] = ids.RMID(i + 1)
	}
	capacity := func(id ids.RMID) units.BytesPerSec { return Mbps(float64(17 + id)) }
	src := benchRand()
	var sc replication.Scratch
	for _, d := range []DestStrategy{DestRandom, DestLBF, DestWeighted} {
		b.Run(d.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				d.Order(cands, capacity, src, &sc)
			}
		})
	}
}

// BenchmarkLedger measures one allocate/release pair with integration.
func BenchmarkLedger(b *testing.B) {
	l := ledger.New(Mbps(18), 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		at := simtime.Time(i)
		l.Allocate(at, Mbps(2))
		l.Release(at+0.5, Mbps(2))
	}
}

// BenchmarkHistoryRecordTrend measures the two-queue recorder's hot path.
func BenchmarkHistoryRecordTrend(b *testing.B) {
	tq := history.MustNew(history.DefaultConfig())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		at := simtime.Time(i)
		tq.Record(at, 50_000_000)
		_ = tq.Trend(at, Mbps(10))
	}
}

// BenchmarkWireRoundTrip measures one framed CFP/bid exchange over an
// in-memory pipe (the control-plane unit of the live deployment).
func BenchmarkWireRoundTrip(b *testing.B) {
	client, server := net.Pipe()
	cw := wire.NewConn(client)
	sw := wire.NewConn(server)
	go func() {
		for {
			msg, err := sw.Read()
			if err != nil {
				return
			}
			if err := sw.Write(wire.KindBid, selection.Bid{RM: 1, Rem: Mbps(10)}); err != nil {
				return
			}
			_ = msg
		}
	}()
	defer client.Close()
	defer server.Close()
	cfp := ecnp.CFP{Request: 1, File: 2, Bitrate: Mbps(2), DurationSec: 300}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cw.Call(wire.KindCFP, cfp); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClusterBuild measures wiring the full 16-RM deployment
// (catalog, placement, registration) without running it.
func BenchmarkClusterBuild(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Workload.NumUsers = 64
	cfg.Workload.HorizonSec = 60
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Build(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func benchRand() *rng.Source { return rng.New(1) }

var _ = replication.Baseline // keep the replication import tied to the ablations above
