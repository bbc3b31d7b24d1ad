package live

import (
	"testing"

	"dfsqos/internal/dfsc"
	"dfsqos/internal/ids"
	"dfsqos/internal/qos"
	"dfsqos/internal/rng"
	"dfsqos/internal/selection"
	"dfsqos/internal/units"
)

// TestDirectoryRedialsAfterRestart crashes an RM, restarts it on a fresh
// port with re-registration, and verifies the directory transparently
// reaches the new instance (broken clients are invalidated and redialed
// at the address the MM currently advertises).
func TestDirectoryRedialsAfterRestart(t *testing.T) {
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
	if out := client.Access(0); !out.OK {
		t.Fatalf("pre-crash access failed: %s", out.Reason)
	}

	// Crash RM1 and fail one access against the dead cached connection.
	lc.KillRM(1)
	if out := client.Access(0); out.OK {
		t.Fatal("access succeeded against a dead RM")
	}

	// Restart RM1 on a new ephemeral port, same identity, fresh state.
	if err := lc.Restart(1, ""); err != nil {
		t.Fatal(err)
	}

	// The same client and directory now reach the restarted RM.
	out := client.Access(0)
	if !out.OK {
		t.Fatalf("post-restart access failed: %s", out.Reason)
	}
	if out.RM != 1 {
		t.Fatalf("served by %v", out.RM)
	}
	if lc.Node(1).Stats().Opens != 1 {
		t.Fatalf("restarted RM saw %d opens, want 1", lc.Node(1).Stats().Opens)
	}
}
