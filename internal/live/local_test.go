package live

import (
	"strings"
	"testing"
	"time"

	"dfsqos/internal/catalog"
	"dfsqos/internal/ecnp"
	"dfsqos/internal/ids"
	"dfsqos/internal/invariants"
	"dfsqos/internal/rng"
	"dfsqos/internal/units"
)

// startLocal stands up a Local for t. Its cleanup, which runs after the
// test's own defers, gives reservations a playback end or a lease sweep
// still owes two seconds to drain, fails t with every violation atRest
// still finds, and tears the cluster down.
func startLocal(t testing.TB, spec LocalSpec) *Local {
	t.Helper()
	l, err := NewLocal(spec)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		defer l.Close()
		err := atRest(l)
		for deadline := time.Now().Add(2 * time.Second); err != nil && time.Now().Before(deadline); err = atRest(l) {
			time.Sleep(10 * time.Millisecond)
		}
		if err != nil {
			t.Errorf("invariants at teardown: %v", err)
		}
	})
	return l
}

// atRest runs invariants.Check at rest on every RM of l still serving.
func atRest(l *Local) error {
	return invariants.Check(invariants.System{RMs: l.Serving(), AtRest: true})
}

// testCatalog generates n files from seed whose playback durations span
// minSec..maxSec virtual seconds around meanSec.
func testCatalog(t testing.TB, seed uint64, n int, minSec, meanSec, maxSec float64) *catalog.Catalog {
	t.Helper()
	cfg := catalog.DefaultConfig()
	cfg.NumFiles = n
	cfg.MinDurationSec = minSec
	cfg.MeanDurationSec = meanSec
	cfg.MaxDurationSec = maxSec
	cat, err := catalog.Generate(cfg, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

// TestAtRestNamesHeldReservation: while a client holds a reservation the
// at-rest check names the RM that granted it, and after the client's Close
// it names none.
func TestAtRestNamesHeldReservation(t *testing.T) {
	l := startLocal(t, LocalSpec{
		Catalog: testCatalog(t, 21, 2, 1, 5, 10),
		Caps:    []units.BytesPerSec{units.Mbps(50), units.Mbps(50)},
		Holders: map[ids.FileID][]ids.RMID{0: {2}},
	})
	cli, ok := l.Dir.RMClient(2)
	if !ok {
		t.Fatal("RM2 unreachable")
	}
	meta := l.Catalog.File(0)
	if res := cli.Open(ecnp.OpenRequest{Request: 1, File: 0, Bitrate: meta.Bitrate, DurationSec: meta.DurationSec}); !res.OK {
		t.Fatalf("open refused: %s", res.Reason)
	}
	if err := atRest(l); err == nil || !strings.HasPrefix(err.Error(), "RM2 holds 1 reservation(s)") || strings.Contains(err.Error(), "RM1") {
		t.Fatalf("at rest with a held reservation: %v, want RM2 named alone", err)
	}
	cli.Close(1)
	if err := atRest(l); err != nil {
		t.Fatalf("at rest after Close: %v, want nothing named", err)
	}
}

// TestLocalReRegisterKeepsAddress: an RM that registers again on its own —
// what the heartbeat loop's self-heal does — advertises the address it
// serves, so a fresh Directory still reaches it.
func TestLocalReRegisterKeepsAddress(t *testing.T) {
	l := startLocal(t, LocalSpec{
		Catalog: testCatalog(t, 21, 2, 1, 5, 10),
		Caps:    []units.BytesPerSec{units.Mbps(50)},
		Holders: map[ids.FileID][]ids.RMID{0: {1}},
	})
	if err := l.Node(1).Register(); err != nil {
		t.Fatal(err)
	}
	dir := NewDirectory(l.Mapper)
	defer dir.Close()
	cli, ok := dir.RMClient(1)
	if !ok {
		t.Fatal("RM1 unresolvable after a second Register")
	}
	if got, want := cli.Info().Addr, l.Server(1).Addr(); got != want {
		t.Fatalf("MM record after a second Register: addr %q, want %q", got, want)
	}
	if bid := cli.HandleCFP(ecnp.CFP{Request: 1, File: 0, Bitrate: units.Mbps(1), DurationSec: 1}); bid.RM != 1 {
		t.Fatalf("bid through the fresh directory came from %v", bid.RM)
	}
}
