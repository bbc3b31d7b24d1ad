package main

import (
	"fmt"
	"time"

	"dfsqos/internal/scenario"
)

// The two scenario specs are copied here as literals, not fetched with
// scenario.Find, so a later change to a builtin does not silently change
// what the benchmark measures. The live slices are left out: the
// benchmark runs the DES only (Options.SkipLive).

var hotsetSpec = scenario.Spec{
	Name:        "zipfian-hotset",
	Description: "Zipf-1.1 hot-file skew over a 4000-file corpus (benchmark copy)",
	Users:       100_000, ShortUsers: 2_000,
	DFSCs:          64,
	MeanArrivalSec: 300,
	HorizonSec:     600, ShortHorizonSec: 300,
	Files:           4_000,
	MeanDurationSec: 60, MinDurationSec: 15, MaxDurationSec: 180,
	TopologyScale: 64, ShortTopologyScale: 2,
	ZipfSkew: 1.1,
	SLO: scenario.SLO{
		MaxP50Sec:      0.050,
		MaxP99Sec:      0.250,
		MaxP999Sec:     1.0,
		MaxFailRate:    0.02,
		MinUtilization: 0.05,
	},
}

var flashSpec = scenario.Spec{
	Name:        "flash-crowd",
	Description: "A crowd half the resident population converges on one file under firm admission with Rep(1,8) (benchmark copy)",
	Users:       100_000, ShortUsers: 2_000,
	DFSCs:          64,
	MeanArrivalSec: 1800,
	// A third of the builtin's 600 s horizon, so that a 10 s window holds
	// five runs and not two thirds of one; population, topology, burst
	// shape and the refusal regime (27 % refused, replication active)
	// are the builtin's.
	HorizonSec: 200, ShortHorizonSec: 100,
	Files:           2_000,
	MeanDurationSec: 60, MinDurationSec: 15, MaxDurationSec: 180,
	TopologyScale: 16, ShortTopologyScale: 1,
	Firm:    true,
	RepNRep: 1, RepNMaxR: 8,
	Bursts: []scenario.BurstSpec{{AtFrac: 0.3, DurFrac: 0.4, Fraction: 0.35, SurgeFactor: 0.5}},
	SLO: scenario.SLO{
		MaxP50Sec:      0.050,
		MaxP99Sec:      0.250,
		MaxP999Sec:     1.0,
		MaxFailRate:    0.60,
		MinUtilization: 0.05,
	},
}

// desRuns drives scenario.Run with no sockets at all: cluster, simtime,
// selection, ledger, history, rm, in-process mm and replication. A
// scenario is a fixed amount of work, so the window sets how many runs a
// pass makes (at least three), not how long one takes; the figures are
// medians over the runs. One run's cost varies by 10 to 19 % between
// repeats of the same input in one process, so a pass needs several.
//
// Run i uses scenario seed seed+i, unless scenarioSeed is set: then every
// run uses that seed and -seed changes nothing. flash-crowd's cost
// depends on which file the crowd picks and where its replicas sit, and
// varies 15-fold with the scenario seed (6 k to 100 k simulated
// requests/s over seeds 1..30), which no affordable number of seeds per
// run averages out. Its instance is therefore part of the workload.
type desRuns struct {
	spec         scenario.Spec
	short        bool
	scenarioSeed uint64

	seed uint64
	base *scenario.Result // the last pass's first run, for the repeat check
}

const desMinRuns = 3

func (w *desRuns) build(seed uint64) error {
	w.seed = seed
	return nil
}

func (w *desRuns) seedOf(run int) uint64 {
	if w.scenarioSeed != 0 {
		return w.scenarioSeed
	}
	return w.seed + uint64(run)
}

// first is empty: a scenario's set-up happens inside scenario.Run and is
// taken from each measured run.
func (w *desRuns) first() error { return nil }

func (w *desRuns) warm(time.Duration) error { return nil }

func (w *desRuns) run(seed uint64) (*scenario.Result, time.Duration, error) {
	t0 := time.Now()
	res, err := scenario.Run(w.spec, scenario.Options{Seed: seed, SkipLive: true, Short: w.short})
	return res, time.Since(t0), err
}

func (w *desRuns) measure(d time.Duration, rec *recorder) (*pass, error) {
	p := &pass{}
	tracer := &opTracer{rec: rec}
	var rates []float64
	start := time.Now()
	for i := 0; i < desMinRuns || time.Since(start) < d; i++ {
		op, opStart := tracer.begin()
		res, wall, err := w.run(w.seedOf(i))
		tracer.end(op, opStart, 0)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			w.base = res
		}
		if !res.Pass {
			p.fail("scenario %s seed %d violates its SLO: %v", w.spec.Name, w.seedOf(i), res.Violations)
		}
		p.attempted += res.Requests
		p.work += float64(res.Requests)
		// scenario.Run builds the cluster and the request pattern before
		// it starts the clock behind ElapsedSec: the difference is this
		// workload's set-up time, and the rate is over the event loop.
		p.setups = append(p.setups, wall.Seconds()-res.ElapsedSec)
		rates = append(rates, float64(res.Requests)/res.ElapsedSec)
		p.latencies = append(p.latencies, float64(wall)/1e6)
	}
	p.wall = time.Since(start)
	p.workPerS = median(rates)
	// Simulated refusals are the firm scenario's outcome, fixed by the
	// seed, and not failed benchmark operations: they are reported as a
	// count and checked for repeatability.
	p.extra = map[string]float64{
		"des.requests":     float64(w.base.Requests),
		"des.failed":       float64(w.base.Failed),
		"des.replications": float64(w.base.Replications),
	}
	return p, nil
}

// verify repeats the first run's seed once more and requires the same
// request, failure and replication counts.
func (w *desRuns) verify() []string {
	want := w.base
	if want == nil {
		return []string{"no scenario run completed"}
	}
	got, _, err := w.run(w.seedOf(0))
	if err != nil {
		return []string{err.Error()}
	}
	if got.Requests != want.Requests || got.Failed != want.Failed || got.Replications != want.Replications {
		return []string{fmt.Sprintf("scenario %s seed %d does not repeat: requests %d/%d, failed %d/%d, replications %d/%d",
			w.spec.Name, w.seedOf(0), want.Requests, got.Requests, want.Failed, got.Failed, want.Replications, got.Replications)}
	}
	return nil
}

func (w *desRuns) close() {}
