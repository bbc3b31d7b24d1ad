package cluster

import (
	"strings"
	"testing"

	"dfsqos/internal/ecnp"
	"dfsqos/internal/qos"
	"dfsqos/internal/replication"
	"dfsqos/internal/simtime"
	"dfsqos/internal/units"
	"dfsqos/internal/workload"
)

// TestAuditPassesHealthyRuns runs the auditor over every scenario ×
// strategy combination at heavy load; none may violate an invariant.
func TestAuditPassesHealthyRuns(t *testing.T) {
	for _, scen := range []qos.Scenario{qos.Soft, qos.Firm} {
		for _, strat := range []replication.Strategy{
			replication.Static(), replication.Rep(1, 3), replication.Rep(3, 8),
		} {
			cfg := quickConfig()
			cfg.Workload.NumUsers = 256
			cfg.Scenario = scen
			cfg.Replication = replication.DefaultConfig(strat)
			cfg.AuditEverySec = 30
			if _, err := RunConfig(cfg); err != nil {
				t.Errorf("%v/%v: %v", scen, strat, err)
			}
		}
	}
}

// TestAuditPassesWithGCAndFlashCrowd stresses the auditor against the two
// extensions most likely to corrupt replica or storage accounting.
func TestAuditPassesWithGCAndFlashCrowd(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Workload = workload.Config{NumUsers: 192, NumDFSC: 4, MeanArrivalSec: 120, HorizonSec: 1800}
	cfg.Scenario = qos.Firm
	cfg.Replication = replication.DefaultConfig(replication.Rep(1, 8))
	gc := replication.DefaultGCConfig()
	gc.Enabled = true
	cfg.GC = gc
	cfg.FlashCrowd = &workload.FlashCrowd{AtSec: 900, Fraction: 0.4}
	cfg.AuditEverySec = 30
	if _, err := RunConfig(cfg); err != nil {
		t.Fatal(err)
	}
}

// TestAuditDetectsFirmOverAllocation plants a violation directly and
// verifies the auditor reports it: an RM is overdriven behind the
// admission control's back.
func TestAuditDetectsFirmOverAllocation(t *testing.T) {
	cfg := quickConfig()
	cfg.Scenario = qos.Firm
	cfg.AuditEverySec = 10
	cl, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Sneak a soft (non-firm) open past the firm scenario — the kind of
	// bug the auditor exists to catch.
	cl.sched.Schedule(5, func(simtime.Time) {
		cl.rms[1].Open(ecnp.OpenRequest{
			Request:     999_999_999,
			File:        0,
			Bitrate:     units.Mbps(40), // 2× RM2's 19 Mbit/s
			DurationSec: cfg.Workload.HorizonSec,
			Firm:        false,
		})
	})
	if _, err := cl.Run(); err == nil {
		t.Fatal("auditor missed a firm-mode over-allocation")
	} else if !strings.Contains(err.Error(), "above capacity") {
		t.Fatalf("unexpected audit error: %v", err)
	}
}
