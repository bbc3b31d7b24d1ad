package rm

import (
	"testing"

	"dfsqos/internal/ecnp"
	"dfsqos/internal/ids"
	"dfsqos/internal/mm"
	"dfsqos/internal/replication"
	"dfsqos/internal/units"
)

// countingMapper counts the reservations an RM asks its mapper for and can
// run a step ahead of the candidate query, standing in for another source
// that acts between this RM's ReplicaCount and its destination walk.
type countingMapper struct {
	ecnp.Mapper
	begins        int
	beforeWithout func()
}

func (c *countingMapper) BeginReplication(file ids.FileID, rm ids.RMID, maxTotal int) error {
	c.begins++
	return c.Mapper.BeginReplication(file, rm, maxTotal)
}

func (c *countingMapper) RMsWithout(file ids.FileID) []ids.RMID {
	if c.beforeWithout != nil {
		c.beforeWithout()
		c.beforeWithout = nil
	}
	return c.Mapper.RMsWithout(file)
}

// walkHarness is one 10 Mbit/s source (RM1, pushed under B_TH) holding
// the hot file among nRMs RMs; the others are idle 100 Mbit/s
// destinations that accept any offer. extraHolders also hold the file.
func walkHarness(t testing.TB, strat replication.Strategy, nRMs int, extraHolders ...ids.RMID) (*harness, *countingMapper) {
	t.Helper()
	counter := &countingMapper{}
	h := walkHarnessWrapped(t, strat, nRMs,
		func(m *mm.Manager) ecnp.Mapper { counter.Mapper = m; return counter }, extraHolders...)
	return h, counter
}

// walkHarnessWrapped is walkHarness with the caller's own mapper wrapper.
func walkHarnessWrapped(t testing.TB, strat replication.Strategy, nRMs int, wrap func(*mm.Manager) ecnp.Mapper, extraHolders ...ids.RMID) *harness {
	t.Helper()
	const hot = ids.FileID(0)
	caps := map[ids.RMID]units.BytesPerSec{1: units.Mbps(10)}
	for id := ids.RMID(2); id <= ids.RMID(nRMs); id++ {
		caps[id] = units.Mbps(100)
	}
	files := map[ids.RMID]map[ids.FileID]FileMeta{1: {hot: fm(units.Mbps(2), 100)}}
	for _, id := range extraHolders {
		files[id] = map[ids.FileID]FileMeta{hot: fm(units.Mbps(2), 100)}
	}
	h := newHarnessWrapped(t, replication.DefaultConfig(strat), caps, files, wrap)
	h.rms[1].Open(ecnp.OpenRequest{Request: 100, File: hot, Bitrate: units.Mbps(9), DurationSec: 5000})
	return h
}

// TestWalkEndsAtReplicaCap: the replica cap is a fact about the file, so
// an attempt on a file at its cap asks the MM once, not once per
// candidate destination.
func TestWalkEndsAtReplicaCap(t *testing.T) {
	// Rep(1,2) with three holders: N_MAXR plus the one replica a migrating
	// plan may hold on top of it. Six more RMs are candidates.
	h, counter := walkHarness(t, replication.Rep(1, 2), 9, 2, 3)
	src := h.rms[1]
	if got := len(h.mapper.RMsWithout(0)); got != 6 {
		t.Fatalf("%d candidate destinations, want 6", got)
	}
	for attempt := 1; attempt <= 3; attempt++ {
		src.HandleCFP(ecnp.CFP{Request: ids.RequestID(attempt), File: 0, Bitrate: units.Mbps(2), DurationSec: 100})
		if counter.begins != attempt {
			t.Fatalf("after %d attempt(s) on a capped file: %d BeginReplication calls, want %d (one per attempt)",
				attempt, counter.begins, attempt)
		}
	}
	if st := src.Stats(); st.RepTriggers != 0 {
		t.Fatalf("RepTriggers = %d on a capped file", st.RepTriggers)
	}
	if got := h.mapper.ReplicaCount(0); got != 3 {
		t.Fatalf("replica count = %d, want 3 untouched", got)
	}
}

// TestWalkKeepsTransferStartedBeforeCap: with N_REP = 2, when the second
// copy is the one that hits the cap, the walk ends there and the first
// copy still starts and completes.
func TestWalkKeepsTransferStartedBeforeCap(t *testing.T) {
	// Rep(2,3) with one holder plans two copies under cap 3. Another
	// source reserves RM9 after this RM counted replicas, so only one of
	// the two fits.
	h, counter := walkHarness(t, replication.Rep(2, 3), 9)
	counter.beforeWithout = func() {
		if err := h.mapper.BeginReplication(0, 9, 0); err != nil {
			t.Fatal(err)
		}
	}
	src := h.rms[1]
	src.HandleCFP(ecnp.CFP{Request: 1, File: 0, Bitrate: units.Mbps(2), DurationSec: 100})

	if counter.begins != 2 {
		t.Fatalf("%d BeginReplication calls, want 2: one admitted, one refused by the cap", counter.begins)
	}
	if st := src.Stats(); st.RepTriggers != 1 {
		t.Fatalf("RepTriggers = %d, want 1: the admitted copy must start", st.RepTriggers)
	}
	h.sched.Run()
	if st := src.Stats(); st.RepTransfers != 1 {
		t.Fatalf("RepTransfers = %d, want 1", st.RepTransfers)
	}
	landed := 0
	for id := ids.RMID(2); id <= 8; id++ {
		if h.rms[id].HasFile(0) {
			landed++
		}
	}
	if landed != 1 {
		t.Fatalf("replica landed on %d destinations, want 1", landed)
	}
	if got := len(h.mapper.Lookup(0)); got != 2 {
		t.Fatalf("%d committed holders, want 2", got)
	}
	// Source, the landed copy and the other source's pending reservation.
	if got := h.mapper.ReplicaCount(0); got != 3 {
		t.Fatalf("replica count = %d, want the cap 3", got)
	}
}
