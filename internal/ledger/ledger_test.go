package ledger

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"dfsqos/internal/simtime"
	"dfsqos/internal/units"
)

func TestBasicAllocateRelease(t *testing.T) {
	l := New(units.Mbps(16), 0)
	l.Allocate(0, units.Mbps(4))
	if got := l.Allocated(); got != units.Mbps(4) {
		t.Fatalf("allocated %v, want 4 Mbps", got)
	}
	if got := l.Remaining(); got != units.Mbps(12) {
		t.Fatalf("remaining %v, want 12 Mbps", got)
	}
	l.Allocate(5, units.Mbps(2))
	l.Release(10, units.Mbps(4))
	l.Release(20, units.Mbps(2))
	if l.streams != 0 {
		t.Fatalf("streams %d, want 0", l.streams)
	}
	if l.Allocated() != 0 {
		t.Fatalf("allocated %v, want 0", l.Allocated())
	}
}

func TestNoOverAllocationWithinCapacity(t *testing.T) {
	l := New(units.Mbps(18), 0)
	l.Allocate(0, units.Mbps(10))
	l.Allocate(10, units.Mbps(8)) // exactly at capacity
	l.Release(100, units.Mbps(10))
	l.Release(200, units.Mbps(8))
	snap := l.Snapshot(300)
	if snap.OverBytes != 0 {
		t.Fatalf("over bytes %v, want 0 at/below capacity", snap.OverBytes)
	}
}

func TestOverAllocationIntegral(t *testing.T) {
	// Capacity 10 B/s. Allocate 15 B/s for 20 s: over = 5 B/s * 20 s = 100 B.
	l := New(10, 0)
	l.Allocate(0, 15)
	l.Release(20, 15)
	snap := l.Snapshot(20)
	if math.Abs(snap.OverBytes-100) > 1e-9 {
		t.Fatalf("over bytes %v, want 100", snap.OverBytes)
	}
	if math.Abs(snap.AllocByteSecs-300) > 1e-9 {
		t.Fatalf("alloc byte-secs %v, want 300", snap.AllocByteSecs)
	}
	if math.Abs(snap.BusySecs-20) > 1e-9 {
		t.Fatalf("busy secs %v, want 20", snap.BusySecs)
	}
}

func TestOverAllocateRatio(t *testing.T) {
	l := New(10, 0)
	l.Allocate(0, 15)
	l.AddAssignedBytes(300) // 15 B/s for 20 s
	l.Release(20, 15)
	snap := l.Snapshot(20)
	// S_OA = 100, S_TA = 300 → R_OA = 1/3.
	if got := snap.OverAllocateRatio(); math.Abs(got-1.0/3.0) > 1e-12 {
		t.Fatalf("R_OA = %v, want 1/3", got)
	}
}

func TestOverAllocateRatioZeroAssigned(t *testing.T) {
	l := New(10, 0)
	if got := l.Snapshot(5).OverAllocateRatio(); got != 0 {
		t.Fatalf("R_OA = %v with no assignment, want 0", got)
	}
}

func TestStairstepIntegral(t *testing.T) {
	// Capacity 10. alloc 6 at t=0, +6 at t=10 (over by 2), release 6 at t=20,
	// release 6 at t=30. Over-bytes = 2*10 = 20.
	l := New(10, 0)
	l.Allocate(0, 6)
	l.Allocate(10, 6)
	l.Release(20, 6)
	l.Release(30, 6)
	snap := l.Snapshot(30)
	if math.Abs(snap.OverBytes-20) > 1e-9 {
		t.Fatalf("over bytes %v, want 20", snap.OverBytes)
	}
	// alloc∫ = 6*10 + 12*10 + 6*10 = 240
	if math.Abs(snap.AllocByteSecs-240) > 1e-9 {
		t.Fatalf("alloc byte-secs %v, want 240", snap.AllocByteSecs)
	}
}

func TestFits(t *testing.T) {
	l := New(units.Mbps(18), 0)
	if !l.Fits(units.Mbps(18)) {
		t.Fatal("full-capacity reservation should fit")
	}
	l.Allocate(0, units.Mbps(10))
	if !l.Fits(units.Mbps(8)) {
		t.Fatal("8 of remaining 8 should fit")
	}
	if l.Fits(units.Mbps(8.001)) {
		t.Fatal("8.001 of remaining 8 should not fit")
	}
}

func TestFracRemaining(t *testing.T) {
	l := New(units.Mbps(20), 0)
	l.Allocate(0, units.Mbps(16))
	if got := l.FracRemaining(); math.Abs(got-0.2) > 1e-12 {
		t.Fatalf("FracRemaining = %v, want 0.2", got)
	}
	l.Allocate(1, units.Mbps(8))
	if got := l.FracRemaining(); got >= 0 {
		t.Fatalf("FracRemaining = %v, want negative when over-allocated", got)
	}
}

func TestMeanUtilization(t *testing.T) {
	l := New(10, 0)
	l.Allocate(0, 5)
	l.Release(50, 5)
	snap := l.Snapshot(100)
	// 5 B/s for 50 s of a 100 s window on a 10 B/s disk → 25%.
	if got := snap.MeanUtilization(100); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("MeanUtilization = %v, want 0.25", got)
	}
	if got := snap.MeanUtilization(0); got != 0 {
		t.Fatalf("MeanUtilization(0) = %v, want 0", got)
	}
}

func TestPanics(t *testing.T) {
	cases := []struct {
		name string
		fn   func()
	}{
		{"zero capacity", func() { New(0, 0) }},
		{"negative allocate", func() { New(10, 0).Allocate(0, -1) }},
		{"release without stream", func() { New(10, 0).Release(0, 1) }},
		{"negative release", func() {
			l := New(10, 0)
			l.Allocate(0, 1)
			l.Release(1, -1)
		}},
		{"time backwards", func() {
			l := New(10, 0)
			l.Allocate(5, 1)
			l.Allocate(3, 1)
		}},
		{"negative assigned", func() { New(10, 0).AddAssignedBytes(-1) }},
		{"underflow", func() {
			l := New(10, 0)
			l.Allocate(0, 1)
			l.Allocate(0, 1)
			l.Release(1, 5)
		}},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: did not panic", c.name)
				}
			}()
			c.fn()
		}()
	}
}

func TestSnapshotIsResumable(t *testing.T) {
	l := New(10, 0)
	l.Allocate(0, 20)
	_ = l.Snapshot(10) // over = 100 so far
	l.Release(20, 20)
	snap := l.Snapshot(20)
	if math.Abs(snap.OverBytes-200) > 1e-9 {
		t.Fatalf("over bytes %v after mid-run snapshot, want 200", snap.OverBytes)
	}
}

func TestSetOversubValidation(t *testing.T) {
	l := New(10, 0)
	if err := l.SetOversub(0.5); err == nil {
		t.Fatal("sub-1 oversubscription accepted")
	}
	if got := l.Oversub(); got != 1 {
		t.Fatalf("default oversub = %v, want 1", got)
	}
	if err := l.SetOversub(1.5); err != nil {
		t.Fatal(err)
	}
	if got := l.Oversub(); got != 1.5 {
		t.Fatalf("oversub = %v, want 1.5", got)
	}
}

func TestFitsOversubscribed(t *testing.T) {
	l := New(units.Mbps(16), 0)
	l.SetOversub(1.25)
	l.Allocate(0, units.Mbps(16)) // nominal capacity fully admitted
	if l.Remaining() != 0 {
		t.Fatalf("remaining %v, want 0", l.Remaining())
	}
	// The oversubscribed headroom is another 4 Mbps.
	if got := l.AdmitRemaining(); got != units.Mbps(4) {
		t.Fatalf("admit remaining %v, want 4 Mbps", got)
	}
	if !l.Fits(units.Mbps(4)) {
		t.Fatal("reservation inside the oversubscribed headroom refused")
	}
	if l.Fits(units.Mbps(4.001)) {
		t.Fatal("reservation past capacity×oversub admitted")
	}
	l.Allocate(1, units.Mbps(4))
	if l.Fits(units.Mbps(0.01)) {
		t.Fatal("oversubscribed headroom exhausted but Fits still true")
	}
}

// TestOversubscribedIntegrals walks an allocate→borrow→reclaim→release
// event sequence on an oversubscribed ledger and checks the assured and
// over-allocated integrals are exact at every step, including the
// zero-duration intervals where two events land on the same instant.
func TestOversubscribedIntegrals(t *testing.T) {
	l := New(10, 0) // capacity 10 B/s
	l.SetOversub(1.5)

	// t=0: two assured streams fill nominal capacity.
	l.Allocate(0, 6)
	l.Allocate(0, 4) // zero-duration interval between the two allocates
	// t=10: a third stream is admitted into the oversubscribed headroom —
	// from here the excess 5 B/s is "borrowed" bandwidth.
	if !l.Fits(5) {
		t.Fatal("oversubscribed admission refused")
	}
	l.Allocate(10, 5)
	// t=20: reclaim — one assured stream ends at the same instant as a
	// snapshot (another zero-duration interval), pulling allocation back
	// under capacity.
	l.Release(20, 6)
	mid := l.Snapshot(20)
	// [0,10): alloc 10 (assured 10, over 0); [10,20): alloc 15 (assured 10,
	// over 5).
	if math.Abs(mid.AssuredByteSecs-200) > 1e-9 {
		t.Fatalf("assured byte-secs %v at t=20, want 200", mid.AssuredByteSecs)
	}
	if math.Abs(mid.OverBytes-50) > 1e-9 {
		t.Fatalf("over bytes %v at t=20, want 50", mid.OverBytes)
	}
	// t=30: release the rest (same-instant pair again).
	l.Release(30, 4)
	l.Release(30, 5)
	snap := l.Snapshot(40)
	// [20,30): alloc 9 → assured 90 more; nothing after t=30.
	if math.Abs(snap.AssuredByteSecs-290) > 1e-9 {
		t.Fatalf("assured byte-secs %v, want 290", snap.AssuredByteSecs)
	}
	if math.Abs(snap.OverBytes-50) > 1e-9 {
		t.Fatalf("over bytes %v, want 50", snap.OverBytes)
	}
	// The split is exact: assured + over == the full allocation integral.
	if math.Abs(snap.AssuredByteSecs+snap.OverBytes-snap.AllocByteSecs) > 1e-9 {
		t.Fatalf("assured %v + over %v != alloc %v",
			snap.AssuredByteSecs, snap.OverBytes, snap.AllocByteSecs)
	}
	if snap.Oversub != 1.5 {
		t.Fatalf("snapshot oversub %v, want 1.5", snap.Oversub)
	}
	// Work-conserving utilization is capped by capacity: 290/(10×40).
	if got := snap.WorkConservingUtilization(40); math.Abs(got-0.725) > 1e-12 {
		t.Fatalf("WorkConservingUtilization = %v, want 0.725", got)
	}
	if got := snap.WorkConservingUtilization(0); got != 0 {
		t.Fatalf("WorkConservingUtilization(0) = %v, want 0", got)
	}
	// The sampled-style mean counts the over-allocation too: 340/400.
	if got := snap.MeanUtilization(40); math.Abs(got-0.85) > 1e-12 {
		t.Fatalf("MeanUtilization = %v, want 0.85", got)
	}
}

// Work-conserving utilization never exceeds 1 no matter how hard the
// ledger is oversubscribed.
func TestWorkConservingUtilizationCapped(t *testing.T) {
	l := New(10, 0)
	l.SetOversub(3)
	l.Allocate(0, 30)
	l.Release(100, 30)
	snap := l.Snapshot(100)
	if got := snap.WorkConservingUtilization(100); math.Abs(got-1) > 1e-12 {
		t.Fatalf("WorkConservingUtilization = %v, want exactly 1", got)
	}
	if got := snap.MeanUtilization(100); math.Abs(got-3) > 1e-12 {
		t.Fatalf("MeanUtilization = %v, want 3", got)
	}
}

// Property: the exact integrator matches a brute-force fine-grained
// step integration for random allocate/release schedules.
func TestIntegratorMatchesBruteForce(t *testing.T) {
	type op struct {
		at      float64
		rate    float64
		isAlloc bool
	}
	f := func(seed int64) bool {
		// Build a random schedule of paired allocate/release ops.
		r := newTestRand(seed)
		const capacity = 100.0
		var ops []op
		for i := 0; i < 12; i++ {
			start := r.next() * 100
			dur := r.next()*50 + 1
			rate := r.next()*40 + 1
			ops = append(ops, op{at: start, rate: rate, isAlloc: true})
			ops = append(ops, op{at: start + dur, rate: rate, isAlloc: false})
		}
		sort.Slice(ops, func(i, j int) bool {
			if ops[i].at != ops[j].at {
				return ops[i].at < ops[j].at
			}
			// Allocations before releases at the same instant: keeps the
			// stream count non-negative for the ledger.
			return ops[i].isAlloc && !ops[j].isAlloc
		})
		l := New(capacity, 0)
		for _, o := range ops {
			if o.isAlloc {
				l.Allocate(simtime.Time(o.at), units.BytesPerSec(o.rate))
			} else {
				l.Release(simtime.Time(o.at), units.BytesPerSec(o.rate))
			}
		}
		const horizon = 200.0
		got := l.Snapshot(simtime.Time(horizon)).OverBytes

		// Brute force: sample allocation at fine steps.
		const dt = 0.001
		brute := 0.0
		for tm := 0.0; tm < horizon; tm += dt {
			alloc := 0.0
			for _, o := range ops {
				if o.isAlloc && o.at <= tm {
					alloc += o.rate
				}
				if !o.isAlloc && o.at <= tm {
					alloc -= o.rate
				}
			}
			if over := alloc - capacity; over > 0 {
				brute += over * dt
			}
		}
		return math.Abs(got-brute) < 0.01*math.Max(1, brute)+2.0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// newTestRand is a tiny deterministic generator for the property test,
// independent of the packages under test.
type testRand struct{ s uint64 }

func newTestRand(seed int64) *testRand { return &testRand{s: uint64(seed)*2654435761 + 1} }

func (r *testRand) next() float64 {
	r.s ^= r.s << 13
	r.s ^= r.s >> 7
	r.s ^= r.s << 17
	return float64(r.s>>11) / (1 << 53)
}
