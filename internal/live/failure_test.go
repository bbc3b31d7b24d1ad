package live

import (
	"testing"

	"dfsqos/internal/dfsc"
	"dfsqos/internal/ecnp"
	"dfsqos/internal/ids"
	"dfsqos/internal/qos"
	"dfsqos/internal/replication"
	"dfsqos/internal/rng"
	"dfsqos/internal/selection"
	"dfsqos/internal/units"
)

// TestRMCrashFallback kills one replica holder mid-deployment and verifies
// a client access still succeeds through the surviving holder: the dead
// RM's CFP degrades to a zero bid instead of aborting the negotiation.
func TestRMCrashFallback(t *testing.T) {
	lc := startLiveCluster(t, LocalSpec{
		Caps:    []units.BytesPerSec{units.Mbps(50), units.Mbps(50)},
		Holders: map[ids.FileID][]ids.RMID{0: {1, 2}},
	})

	client, err := dfsc.New(dfsc.Options{
		ID:        1,
		Mapper:    lc.Mapper,
		Directory: lc.Dir,
		Scheduler: lc.Sched,
		Catalog:   lc.Catalog,
		Policy:    selection.RemOnly,
		Scenario:  qos.Firm,
		Rand:      rng.New(3),
	})
	if err != nil {
		t.Fatal(err)
	}

	// Warm the directory so a cached (now dead) connection is exercised.
	if _, ok := lc.Dir.RMClient(2); !ok {
		t.Fatal("RM2 unreachable before crash")
	}
	// Crash RM2.
	lc.Server(2).Close()

	out := client.Access(0)
	if !out.OK {
		t.Fatalf("access failed after single-RM crash: %s", out.Reason)
	}
	if out.RM != 1 {
		t.Fatalf("served by %v, want surviving RM1", out.RM)
	}
}

// TestAllHoldersDownFailsCleanly verifies the client reports failure (not
// a hang or panic) when every replica holder is gone.
func TestAllHoldersDownFailsCleanly(t *testing.T) {
	lc := startLiveCluster(t, LocalSpec{
		Caps:    []units.BytesPerSec{units.Mbps(50)},
		Holders: map[ids.FileID][]ids.RMID{0: {1}},
	})

	client, err := dfsc.New(dfsc.Options{
		ID:        1,
		Mapper:    lc.Mapper,
		Directory: lc.Dir,
		Scheduler: lc.Sched,
		Catalog:   lc.Catalog,
		Policy:    selection.RemOnly,
		Scenario:  qos.Firm,
		Rand:      rng.New(3),
	})
	if err != nil {
		t.Fatal(err)
	}
	lc.Dir.RMClient(1) // cache the connection
	lc.Server(1).Close()

	out := client.Access(0)
	if out.OK {
		t.Fatal("access succeeded with every holder down")
	}
	st := client.Stats()
	if st.Failed != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestOfferToDeadDestinationSkipped verifies the replication source
// tolerates a dead destination: the offer fails and replication proceeds
// to the next candidate (or quietly does nothing) without wedging the RM.
func TestOfferToDeadDestinationSkipped(t *testing.T) {
	cfg := replication.DefaultConfig(replication.Rep(1, 8))
	cfg.CooldownSec = 0.01
	cfg.Speed = units.Mbps(1000)
	lc := startLiveCluster(t, LocalSpec{
		Caps:        []units.BytesPerSec{units.Mbps(5), units.Mbps(100), units.Mbps(100)},
		Holders:     map[ids.FileID][]ids.RMID{0: {1}},
		TimeScale:   1000,
		Replication: cfg,
	})

	// Kill RM2 so the source's offer to it fails over TCP.
	lc.Dir.RMClient(2)
	lc.Server(2).Close()

	src := lc.Node(1)
	src.Open(ecnp.OpenRequest{Request: 1, File: 0, Bitrate: units.Mbps(4.5), DurationSec: 3600})
	meta := lc.Catalog.File(0)
	src.HandleCFP(ecnp.CFP{Request: 2, File: 0, Bitrate: meta.Bitrate, DurationSec: meta.DurationSec})

	// The trigger must not wedge: either RM3 received the copy or no
	// transfer started; in both cases the source is in a clean state.
	st := src.Stats()
	if st.RepTriggers > 1 {
		t.Fatalf("source triggered %d times", st.RepTriggers)
	}
	// A second CFP after the cooldown must not panic or deadlock.
	src.HandleCFP(ecnp.CFP{Request: 3, File: 0, Bitrate: meta.Bitrate, DurationSec: meta.DurationSec})
	src.Close(1)
}
