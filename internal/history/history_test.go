package history

import (
	"math"
	"testing"
	"testing/quick"

	"dfsqos/internal/simtime"
	"dfsqos/internal/units"
)

func mustTQ(t *testing.T, maxSamples int, expirySec float64) *TwoQueue {
	t.Helper()
	tq, err := New(Config{MaxSamples: maxSamples, ExpirySec: expirySec})
	if err != nil {
		t.Fatal(err)
	}
	return tq
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{MaxSamples: 0, ExpirySec: 10}); err == nil {
		t.Error("MaxSamples=0 accepted")
	}
	if _, err := New(Config{MaxSamples: 5, ExpirySec: 0}); err == nil {
		t.Error("ExpirySec=0 accepted")
	}
	if _, err := New(DefaultConfig()); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew with bad config did not panic")
		}
	}()
	MustNew(Config{})
}

func TestNoReferenceNoTrend(t *testing.T) {
	tq := mustTQ(t, 4, 100)
	if tq.hasRef {
		t.Fatal("fresh recorder claims a reference")
	}
	if got := tq.Trend(10, units.Mbps(5)); got != 0 {
		t.Fatalf("trend without history = %v, want 0", got)
	}
	tq.Record(0, 1000)
	tq.Record(1, 1000)
	if tq.hasRef {
		t.Fatal("reference appeared before a swap")
	}
}

func TestCountTriggeredSwap(t *testing.T) {
	tq := mustTQ(t, 3, 1e9)
	tq.Record(0, 100)
	tq.Record(10, 200)
	if tq.swaps != 0 {
		t.Fatal("premature swap")
	}
	tq.Record(20, 300) // third sample triggers the swap
	if tq.swaps != 1 {
		t.Fatalf("swaps = %d, want 1", tq.swaps)
	}
	start, end, fs, ok := tq.ReferenceWindow()
	if !ok {
		t.Fatal("no reference after swap")
	}
	if start != 0 || end != 20 || fs != 600 {
		t.Fatalf("reference window = (%v, %v, %v), want (0, 20, 600)", start, end, fs)
	}
	if tq.recording.count != 0 {
		t.Fatalf("recording queue not cleared: %d", tq.recording.count)
	}
}

func TestExpiryTriggeredSwap(t *testing.T) {
	tq := mustTQ(t, 100, 50)
	tq.Record(0, 100)
	tq.Record(10, 100)
	// Next arrival is 60 s after the window start > 50 s expiry: the old
	// window swaps out first, then the arrival starts a fresh window.
	tq.Record(60, 999)
	if tq.swaps != 1 {
		t.Fatalf("swaps = %d, want 1", tq.swaps)
	}
	_, end, fs, _ := tq.ReferenceWindow()
	if end != 10 || fs != 200 {
		t.Fatalf("reference (end=%v, fs=%v), want (10, 200)", end, fs)
	}
	if tq.recording.count != 1 {
		t.Fatalf("recording count %d, want 1 (the new arrival)", tq.recording.count)
	}
}

func TestTrendValue(t *testing.T) {
	tq := mustTQ(t, 2, 1e9)
	// Window [0, 100] with 1000 bytes → hist avg 10 B/s.
	tq.Record(0, 400)
	tq.Record(100, 600)
	// Request at t=150: T_dist = 50, T_thr = 100 → scale = min(1, 2) = 1.
	// B_used = 30 → raw = (30-10)/2 = 10.
	got := tq.Trend(150, 30)
	if math.Abs(got-10) > 1e-12 {
		t.Fatalf("trend = %v, want 10", got)
	}
	// Request at t=300: T_dist = 200 → scale = 100/200 = 0.5 → 5.
	got = tq.Trend(300, 30)
	if math.Abs(got-5) > 1e-12 {
		t.Fatalf("stale trend = %v, want 5", got)
	}
}

func TestTrendNegative(t *testing.T) {
	tq := mustTQ(t, 2, 1e9)
	tq.Record(0, 5000)
	tq.Record(100, 5000) // hist avg = 100 B/s
	// Current usage 20 B/s < 100 → negative trend (usage falling).
	got := tq.Trend(110, 20)
	if got >= 0 {
		t.Fatalf("trend = %v, want negative when usage below history", got)
	}
	if math.Abs(got-(-40)) > 1e-12 {
		t.Fatalf("trend = %v, want -40", got)
	}
}

func TestTrendScaleNeverExceedsOne(t *testing.T) {
	tq := mustTQ(t, 2, 1e9)
	tq.Record(0, 100)
	tq.Record(10, 100)
	// Immediately after the swap (T_distance = 0) the scale clamps to 1.
	raw := tq.Trend(10, 50)
	later := tq.Trend(11, 50)
	if math.Abs(raw) < math.Abs(later)-1e-12 {
		t.Fatalf("scale grew beyond 1: |%v| < |%v|", raw, later)
	}
}

func TestSingleSampleWindowGivesZeroTrend(t *testing.T) {
	tq := mustTQ(t, 1, 1e9)
	tq.Record(5, 100) // swaps immediately with zero-width window
	if tq.swaps != 1 {
		t.Fatalf("swaps = %d, want 1", tq.swaps)
	}
	if got := tq.Trend(10, 50); got != 0 {
		t.Fatalf("zero-width window trend = %v, want 0", got)
	}
}

func TestNegativeSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative size did not panic")
		}
	}()
	mustTQ(t, 4, 10).Record(0, -1)
}

func TestMultipleSwapsKeepLatestReference(t *testing.T) {
	tq := mustTQ(t, 2, 1e9)
	tq.Record(0, 100)
	tq.Record(10, 100) // swap 1: window [0,10] fs=200
	tq.Record(20, 500)
	tq.Record(30, 500) // swap 2: window [20,30] fs=1000
	start, end, fs, _ := tq.ReferenceWindow()
	if start != 20 || end != 30 || fs != 1000 {
		t.Fatalf("reference = (%v,%v,%v), want latest window (20,30,1000)", start, end, fs)
	}
	if tq.swaps != 2 {
		t.Fatalf("swaps = %d, want 2", tq.swaps)
	}
}

// Property: the trend magnitude is bounded by |B_used − histAvg| / 2 for any
// recording pattern (the min(1, ·) clamp guarantees it).
func TestTrendBoundProperty(t *testing.T) {
	f := func(sizes []uint16, bUsedRaw uint16) bool {
		tq := MustNew(Config{MaxSamples: 4, ExpirySec: 100})
		now := simtime.Time(0)
		for _, s := range sizes {
			tq.Record(now, units.Size(s))
			now = now.Add(simtime.Duration(1 + float64(s%7)))
		}
		if !tq.hasRef {
			return tq.Trend(now, units.BytesPerSec(bUsedRaw)) == 0
		}
		start, end, fs, _ := tq.ReferenceWindow()
		tThr := end.Sub(start).Seconds()
		if tThr <= 0 {
			return tq.Trend(now, units.BytesPerSec(bUsedRaw)) == 0
		}
		histAvg := fs / tThr
		bound := math.Abs(float64(bUsedRaw)-histAvg)/2 + 1e-9
		got := tq.Trend(now.Add(simtime.Duration(float64(bUsedRaw%50))), units.BytesPerSec(bUsedRaw))
		return math.Abs(got) <= bound
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: a swap happens no later than MaxSamples records.
func TestSwapCadenceProperty(t *testing.T) {
	f := func(n uint8) bool {
		max := int(n%16) + 1
		tq := MustNew(Config{MaxSamples: max, ExpirySec: 1e9})
		for i := 0; i < max; i++ {
			if tq.swaps != 0 {
				return false
			}
			tq.Record(simtime.Time(i), 10)
		}
		return tq.swaps == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
