package simtime

import (
	"math"
	"testing"

	"dfsqos/internal/testenv"
)

// pendingDepths are the queue depths the event loop is held at: 4 is what
// a chain of timers keeps, 20k is what a full-scale scenario run has
// pending once its arrivals are fed (the closes of the streams in flight),
// 200k is the same run with every arrival queued up front.
var pendingDepths = []struct {
	name    string
	pending int
}{{"4", 4}, {"20k", 20_000}, {"200k", 200_000}}

// steadyScheduler returns a scheduler with pending events queued, each of
// which schedules one more when it fires, so Step keeps the depth. Delays
// are drawn from a fixed multiplicative generator and spread over the span
// the pending set covers, so a new event lands anywhere in the queue, not
// at its end.
func steadyScheduler(pending int) *Scheduler {
	s := NewScheduler()
	span := Duration(pending)
	x := uint64(88172645463325252)
	delay := func() Duration {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return span * Duration(x>>11) / (1 << 53)
	}
	var tick func(Time)
	tick = func(Time) { s.After(delay(), tick) }
	for i := 0; i < pending; i++ {
		s.After(delay(), tick)
	}
	return s
}

// BenchmarkSchedulerPending is the event loop's steady state: fire the
// earliest event, schedule one more, with N events pending throughout. The
// cost of a queue operation depends on N, so N is the dimension.
func BenchmarkSchedulerPending(b *testing.B) {
	for _, bc := range pendingDepths {
		b.Run(bc.name, func(b *testing.B) {
			s := steadyScheduler(bc.pending)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Step()
			}
			if s.Pending() != bc.pending {
				b.Fatalf("pending %d, want %d", s.Pending(), bc.pending)
			}
		})
	}
}

// TestSchedulerPendingAllocations: firing one event and scheduling the
// next costs one allocation at every depth — the Event handed back for
// Cancel — and nothing that grows with the queue.
func TestSchedulerPendingAllocations(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	for _, bc := range pendingDepths {
		s := steadyScheduler(bc.pending)
		if avg := testing.AllocsPerRun(1000, func() { s.Step() }); avg > 1 {
			t.Errorf("%s pending: %v allocs per event, want at most 1", bc.name, avg)
		}
		if s.Pending() != bc.pending {
			t.Fatalf("pending %d, want %d", s.Pending(), bc.pending)
		}
	}
}

// fedScheduler returns a scheduler with 20k events parked at infinity, the
// queue a fed stream's arrivals are merged against.
func fedScheduler() *Scheduler {
	s := NewScheduler()
	for i := 0; i < 20_000; i++ {
		s.Schedule(Time(math.Inf(1)), func(Time) {})
	}
	return s
}

// BenchmarkFeed is what one arrival of a fed stream costs while 20k other
// events sit in the queue: a comparison with the queue's head and a call.
// Arrivals are fed 200k at a time — one full-scale scenario run's worth —
// and the stream is re-dated between feeds with the timer stopped.
func BenchmarkFeed(b *testing.B) {
	const chunk = 200_000
	s := fedScheduler()
	at := make([]Time, chunk)
	arrivals := 0
	count := func(int, Time) { arrivals++ }
	b.ReportAllocs()
	b.ResetTimer()
	for left := b.N; left > 0; left -= chunk {
		b.StopTimer()
		n := min(left, chunk)
		for i := range at[:n] {
			at[i] = s.Now() + Time(i)
		}
		b.StartTimer()
		s.Feed(at[:n], count)
		s.RunUntil(at[n-1])
	}
	if arrivals != b.N || s.Pending() != 20_000 {
		b.Fatalf("%d arrivals fired and %d events pending, want %d and 20000", arrivals, s.Pending(), b.N)
	}
}

// TestFeedAllocatesNothing: feeding a stream and firing its arrivals
// against a 20k-event queue allocates nothing, per arrival or per feed.
func TestFeedAllocatesNothing(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	const chunk = 1000
	s := fedScheduler()
	at := make([]Time, chunk)
	arrivals := 0
	count := func(int, Time) { arrivals++ }
	const runs = 100
	if avg := testing.AllocsPerRun(runs, func() {
		for i := range at {
			at[i] = s.Now() + Time(i)
		}
		s.Feed(at, count)
		s.RunUntil(at[chunk-1])
	}); avg != 0 {
		t.Errorf("a feed of %d arrivals allocates %v times, want 0", chunk, avg)
	}
	// AllocsPerRun makes one warm-up call beside the runs it counts.
	if arrivals != (runs+1)*chunk || s.Pending() != 20_000 {
		t.Fatalf("%d arrivals fired and %d events pending, want %d and 20000", arrivals, s.Pending(), (runs+1)*chunk)
	}
}
