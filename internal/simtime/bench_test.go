package simtime

import (
	"math"
	"testing"
)

// BenchmarkSchedulerPending is the event loop's steady state: fire the
// earliest event, schedule one more, with N events pending throughout. The
// cost of a queue operation depends on N, so N is the dimension: 4 is what
// a chain of timers keeps, 20k is what a full-scale scenario run has
// pending once its arrivals are fed (the closes of the streams in flight),
// 200k is the same run with every arrival queued up front. One allocation
// per event — the Event handed back for Cancel — is the ceiling
// scripts/bench.sh gates.
func BenchmarkSchedulerPending(b *testing.B) {
	for _, bc := range []struct {
		name    string
		pending int
	}{{"4", 4}, {"20k", 20_000}, {"200k", 200_000}} {
		b.Run(bc.name, func(b *testing.B) {
			s := NewScheduler()
			// Delays are drawn from a fixed multiplicative generator and
			// spread over the span the pending set covers, so a new event
			// lands anywhere in the queue, not at its end.
			span := Duration(bc.pending)
			x := uint64(88172645463325252)
			delay := func() Duration {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				return span * Duration(x>>11) / (1 << 53)
			}
			var tick func(Time)
			tick = func(Time) { s.After(delay(), tick) }
			for i := 0; i < bc.pending; i++ {
				s.After(delay(), tick)
			}
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

// BenchmarkFeed is what one arrival of a fed stream costs while 20k other
// events sit in the queue: a comparison with the queue's head and a call.
// It must allocate nothing per arrival. Arrivals are fed 200k at a time —
// one full-scale scenario run's worth — and the stream is re-dated
// between feeds with the timer stopped.
func BenchmarkFeed(b *testing.B) {
	const chunk = 200_000
	s := NewScheduler()
	for i := 0; i < 20_000; i++ {
		s.Schedule(Time(math.Inf(1)), func(Time) {})
	}
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
