package cluster

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"dfsqos/internal/dfsc"
	"dfsqos/internal/ecnp"
	"dfsqos/internal/invariants"
	"dfsqos/internal/qos"
	"dfsqos/internal/replication"
	"dfsqos/internal/simtime"
	"dfsqos/internal/units"
	"dfsqos/internal/workload"
)

// runChecked runs cl with invariants.Check after every request and once
// at the horizon, and fails the run with the first violation found.
func runChecked(cl *Cluster) (*Results, error) {
	bound := cl.cfg.ReplicaDegree
	if s := cl.cfg.Replication.Strategy; s.Enabled {
		bound = max(bound, s.NMaxR)
	}
	sys := invariants.System{
		RMs:    cl.rms,
		Firm:   cl.cfg.Scenario.IsFirm(),
		Mapper: cl.mapper,
		Files:  cl.cat.Len(),
		// A bound-exceeding migration holds one copy beyond the bound
		// until the source deletes its own.
		MaxReplicas: bound + 1,
	}
	var failed error
	res, err := cl.RunWithObserver(func(req workload.Request, _ dfsc.Outcome, _ time.Duration) {
		if failed != nil {
			return
		}
		if err := invariants.Check(sys); err != nil {
			failed = fmt.Errorf("after the request at %.3fs: %w", req.AtSec, err)
		}
	})
	if err != nil {
		return nil, err
	}
	if failed != nil {
		return nil, failed
	}
	if err := invariants.Check(sys); err != nil {
		return nil, fmt.Errorf("at the horizon: %w", err)
	}
	return res, nil
}

// runConfigChecked is RunConfig through runChecked.
func runConfigChecked(cfg Config) (*Results, error) {
	cl, err := Build(cfg)
	if err != nil {
		return nil, err
	}
	return runChecked(cl)
}

// TestAuditPassesHealthyRuns checks every scenario × strategy combination
// at heavy load after every request, and Rep(1,3) with its transfers
// charged to the ledgers; none may violate an invariant.
func TestAuditPassesHealthyRuns(t *testing.T) {
	charged := replication.DefaultConfig(replication.Rep(1, 3))
	charged.ChargeTransfers = true
	for _, scen := range []qos.Scenario{qos.Soft, qos.Firm} {
		for _, rep := range []replication.Config{
			replication.DefaultConfig(replication.Static()),
			replication.DefaultConfig(replication.Rep(1, 3)),
			replication.DefaultConfig(replication.Rep(3, 8)),
			charged,
		} {
			cfg := quickConfig()
			cfg.Workload.NumUsers = 256
			cfg.Scenario = scen
			cfg.Replication = rep
			if _, err := runConfigChecked(cfg); err != nil {
				t.Errorf("%v/%v (charged %t): %v", scen, rep.Strategy, rep.ChargeTransfers, err)
			}
		}
	}
}

// TestAuditPassesWithGCAndFlashCrowd checks the two extensions most likely
// to corrupt replica or storage accounting.
func TestAuditPassesWithGCAndFlashCrowd(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Workload = workload.Config{NumUsers: 192, NumDFSC: 4, MeanArrivalSec: 120, HorizonSec: 1800}
	cfg.Scenario = qos.Firm
	cfg.Replication = replication.DefaultConfig(replication.Rep(1, 8))
	gc := replication.DefaultGCConfig()
	gc.Enabled = true
	cfg.GC = gc
	cfg.FlashCrowd = &workload.FlashCrowd{AtSec: 900, Fraction: 0.4}
	if _, err := runConfigChecked(cfg); err != nil {
		t.Fatal(err)
	}
}

// TestAuditPassesOversubscribedFirmRun is a legal run that a bound of
// capacity × 1 called broken: firm admission with Oversub 1.5 fills RMs
// past their nominal capacity, and the bound is capacity × the ledger's
// own ratio.
func TestAuditPassesOversubscribedFirmRun(t *testing.T) {
	cfg := quickConfig()
	cfg.Workload.NumUsers = 512
	cfg.Scenario = qos.Firm
	cfg.Oversub = 1.5
	cfg.Replication = replication.DefaultConfig(replication.Static())
	if _, err := runConfigChecked(cfg); err != nil {
		t.Fatal(err)
	}
}

// TestAuditDetectsFirmOverAllocation plants a violation directly and
// verifies the checker reports it: an RM is overdriven behind the
// admission control's back.
func TestAuditDetectsFirmOverAllocation(t *testing.T) {
	cfg := quickConfig()
	cfg.Scenario = qos.Firm
	cl, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Sneak a soft (non-firm) open past the firm scenario — the kind of
	// bug the checker exists to catch.
	cl.sched.Schedule(5, func(simtime.Time) {
		cl.rms[1].Open(ecnp.OpenRequest{
			Request:     999_999_999,
			File:        0,
			Bitrate:     units.Mbps(40), // 2× RM2's 19 Mbit/s
			DurationSec: cfg.Workload.HorizonSec,
			Firm:        false,
		})
	})
	if _, err := runChecked(cl); err == nil {
		t.Fatal("checker missed a firm-mode over-allocation")
	} else if !strings.Contains(err.Error(), "RM2: reservations hold") || !strings.Contains(err.Error(), "above capacity × oversub") {
		t.Fatalf("unexpected check error: %v", err)
	}
}
