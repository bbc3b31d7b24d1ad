package live

import (
	"strings"
	"testing"
	"time"

	"dfsqos/internal/catalog"
	"dfsqos/internal/ecnp"
	"dfsqos/internal/ids"
	"dfsqos/internal/rng"
	"dfsqos/internal/units"
)

// startLocal stands up a Local for t. Its cleanup, which runs after the
// test's own defers, gives reservations a playback end or a lease sweep
// still owes two seconds to drain, fails t naming every RM that still
// holds one, and tears the cluster down.
func startLocal(t testing.TB, spec LocalSpec) *Local {
	t.Helper()
	l, err := NewLocal(spec)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		defer l.Close()
		leaks := l.Leaks()
		for deadline := time.Now().Add(2 * time.Second); len(leaks) != 0 && time.Now().Before(deadline); leaks = l.Leaks() {
			time.Sleep(10 * time.Millisecond)
		}
		for _, leak := range leaks {
			t.Errorf("leak at teardown: %s", leak)
		}
	})
	return l
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

// TestLocalLeaksNamesHeldReservation: while a client holds a reservation
// Leaks names the RM that granted it, and after the client's Close it
// names none.
func TestLocalLeaksNamesHeldReservation(t *testing.T) {
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
	if leaks := l.Leaks(); len(leaks) != 1 || !strings.HasPrefix(leaks[0], "RM2 still holds 1 reservation(s)") {
		t.Fatalf("Leaks with a held reservation = %q, want RM2 named", leaks)
	}
	cli.Close(1)
	if leaks := l.Leaks(); len(leaks) != 0 {
		t.Fatalf("Leaks after Close = %q, want none", leaks)
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
