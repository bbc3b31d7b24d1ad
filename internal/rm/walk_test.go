package rm

import (
	"slices"
	"testing"

	"dfsqos/internal/ecnp"
	"dfsqos/internal/ids"
	"dfsqos/internal/mm"
	"dfsqos/internal/replication"
	"dfsqos/internal/units"
)

// countingMapper counts the calls a replication attempt makes on its
// mapper, the replica counts and reservations among them, and can run a
// step ahead of the candidate query, standing in for another source that
// acts between this RM's ReplicaCount and its destination walk. It wraps
// every method an attempt calls. When nextCount is set, the next
// ReplicaCount answers it instead of the MM.
type countingMapper struct {
	ecnp.Mapper
	calls, counts, begins int
	beforeWithout         func()
	nextCount             *int
}

func (c *countingMapper) ReplicaCount(file ids.FileID) int {
	c.calls++
	c.counts++
	if n := c.nextCount; n != nil {
		c.nextCount = nil
		return *n
	}
	return c.Mapper.ReplicaCount(file)
}

func (c *countingMapper) BeginReplication(file ids.FileID, rm ids.RMID, maxTotal int) error {
	c.calls++
	c.begins++
	return c.Mapper.BeginReplication(file, rm, maxTotal)
}

func (c *countingMapper) EndReplication(file ids.FileID, rm ids.RMID, commit bool) error {
	c.calls++
	return c.Mapper.EndReplication(file, rm, commit)
}

func (c *countingMapper) RMsWithout(file ids.FileID) []ids.RMID {
	c.calls++
	c.stepAhead()
	return c.Mapper.RMsWithout(file)
}

// AppendRMsWithout forwards the form the agent asks an in-process MM for,
// with the same step ahead; a countingMapper without it would hand the
// agent only the allocating RMsWithout.
func (c *countingMapper) AppendRMsWithout(dst []ids.RMID, file ids.FileID) []ids.RMID {
	c.calls++
	c.stepAhead()
	return c.Mapper.(candidateLister).AppendRMsWithout(dst, file)
}

func (c *countingMapper) stepAhead() {
	if c.beforeWithout != nil {
		c.beforeWithout()
		c.beforeWithout = nil
	}
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

// TestWalkEndsAtReplicaCap: the replica cap is a fact about the file,
// and the count the agent reads before its walk already says the file is
// at it, so an attempt on a capped file asks the MM for no candidates and
// no reservation: it stops, and the RM counts it.
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
		if counter.begins != 0 || counter.calls != counter.counts {
			t.Fatalf("after %d attempt(s) on a capped file: %d mapper calls, %d BeginReplication; want ReplicaCount alone",
				attempt, counter.calls, counter.begins)
		}
		if st := src.Stats(); st.RepCapped != int64(attempt) {
			t.Fatalf("after %d attempt(s) on a capped file: RepCapped = %d, want %d", attempt, st.RepCapped, attempt)
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

// resolvingDirectory records the ids an RM asks its directory to resolve.
type resolvingDirectory struct {
	ecnp.Directory
	asked []ids.RMID
}

func (d *resolvingDirectory) Provider(id ids.RMID) (ecnp.Provider, bool) {
	d.asked = append(d.asked, id)
	return d.Directory.Provider(id)
}

// TestWalkSkipsUnresolvableCandidate: the MM lists RMs the source's
// directory cannot resolve (over TCP, one not dialled yet or gone). They
// stay candidates, so the draws are over everything the MM listed, and the
// walk passes over them to the one it can reach, where the copy starts.
func TestWalkSkipsUnresolvableCandidate(t *testing.T) {
	h, counter := walkHarness(t, replication.Rep(1, 8), 32)
	for id := ids.RMID(3); id <= 32; id++ {
		h.dir.Set(id, nil)
	}
	dir := &resolvingDirectory{Directory: h.dir}
	src := h.rms[1]
	src.SetDirectory(dir)
	src.HandleCFP(ecnp.CFP{Request: 1, File: 0, Bitrate: units.Mbps(2), DurationSec: 100})

	if counter.begins != 1 {
		t.Fatalf("%d BeginReplication calls, want 1: only RM2 is reachable", counter.begins)
	}
	if st := src.Stats(); st.RepTriggers != 1 || st.RepCapped != 0 {
		t.Fatalf("RepTriggers = %d, RepCapped = %d; want 1 and 0", st.RepTriggers, st.RepCapped)
	}
	if n := len(dir.asked); n < 2 || dir.asked[n-1] != 2 {
		t.Fatalf("the walk resolved %v; want unreachable ids passed over before RM2", dir.asked)
	}
	// Only the walk resolves: no id is asked for twice.
	seen := make(map[ids.RMID]bool)
	for _, id := range dir.asked {
		if seen[id] {
			t.Fatalf("the attempt resolved %v; %v twice", dir.asked, id)
		}
		seen[id] = true
	}
	h.sched.Run()
	if !h.rms[2].HasFile(0) {
		t.Fatal("RM2 does not hold the copy")
	}
	if got := h.mapper.Lookup(0); len(got) != 2 {
		t.Fatalf("holders %v, want RM1 and RM2", got)
	}
}

// TestCandidatesExcludeSelf: an MM that has lost the source's own replica
// (say, one restarted and not yet told) lists the source among the RMs
// without the file. The source is still no candidate of its own copy, so
// the draws are over the other RMs.
func TestCandidatesExcludeSelf(t *testing.T) {
	h, _ := walkHarness(t, replication.Rep(1, 8), 9, 2)
	if err := h.mapper.RemoveReplica(0, 1); err != nil {
		t.Fatal(err)
	}
	src := h.rms[1]
	src.HandleCFP(ecnp.CFP{Request: 1, File: 0, Bitrate: units.Mbps(2), DurationSec: 100})
	if st := src.Stats(); st.RepTriggers != 1 {
		t.Fatalf("RepTriggers = %d, want 1", st.RepTriggers)
	}
	if got, want := src.candidates, []ids.RMID{3, 4, 5, 6, 7, 8, 9}; !slices.Equal(got, want) {
		t.Fatalf("candidates %v, want %v", got, want)
	}
}

// TestCappedAttemptMovesNoOtherDraw: an attempt draws its destination
// order from a stream keyed by its agent run and its file, so an attempt
// that stops at the cap, and draws nothing, leaves a later attempt's
// order as it was, and the RM's own stream is never drawn from. Two twin
// sources each make three agent runs on a file none of whose 31
// candidates the directory resolves, so an uncapped run walks its whole
// order and starts nothing. The middle run reads the count at the cap on
// one twin, and a count of 0, which ends an attempt before any draw, on
// the other.
func TestCappedAttemptMovesNoOtherDraw(t *testing.T) {
	runs := func(middle int, wantCapped int64) [][]ids.RMID {
		h, counter := walkHarness(t, replication.Rep(1, 8), 32)
		for id := ids.RMID(2); id <= 32; id++ {
			h.dir.Set(id, nil)
		}
		dir := &resolvingDirectory{Directory: h.dir}
		src := h.rms[1]
		src.SetDirectory(dir)
		parent := *src.src
		var orders [][]ids.RMID
		for run := 1; run <= 3; run++ {
			if run == 2 {
				counter.nextCount = &middle
			}
			dir.asked = nil
			src.HandleCFP(ecnp.CFP{Request: ids.RequestID(run), File: 0, Bitrate: units.Mbps(2), DurationSec: 100})
			orders = append(orders, dir.asked)
		}
		if *src.src != parent {
			t.Fatal("three agent runs drew from the RM's own stream")
		}
		if st := src.Stats(); st.RepTriggers != 0 || st.RepCapped != wantCapped {
			t.Fatalf("middle count %d: RepTriggers = %d, RepCapped = %d", middle, st.RepTriggers, st.RepCapped)
		}
		return orders
	}
	// Rep(1,8) at 9 replicas migrates, so its cap is 9.
	capped, none := runs(9, 1), runs(0, 0)
	for run, o := range capped {
		if want := 31 * (1 - run%2); len(o) != want || len(none[run]) != want {
			t.Fatalf("run %d walked %d and %d candidates, want %d", run+1, len(o), len(none[run]), want)
		}
		if !slices.Equal(o, none[run]) {
			t.Fatalf("run %d walked %v after a capped attempt, %v after none", run+1, o, none[run])
		}
	}
	if slices.Equal(capped[0], capped[2]) {
		t.Fatalf("runs 1 and 3 walked one order %v; each run keys its own", capped[0])
	}
}
