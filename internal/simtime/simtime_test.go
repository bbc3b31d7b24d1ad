package simtime

import (
	"sort"
	"testing"
	"testing/quick"
)

func TestEventsFireInTimeOrder(t *testing.T) {
	s := NewScheduler()
	var fired []Time
	for _, at := range []Time{5, 1, 3, 2, 4} {
		at := at
		s.Schedule(at, func(now Time) { fired = append(fired, now) })
	}
	s.Run()
	if len(fired) != 5 {
		t.Fatalf("fired %d events, want 5", len(fired))
	}
	if !sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] }) {
		t.Fatalf("events out of order: %v", fired)
	}
	if s.Now() != 5 {
		t.Fatalf("clock at %v, want 5", s.Now())
	}
}

func TestTieBreakBySchedulingOrder(t *testing.T) {
	s := NewScheduler()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(7, func(Time) { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie order = %v, want ascending", order)
		}
	}
}

func TestSchedulePastPanics(t *testing.T) {
	s := NewScheduler()
	s.Schedule(10, func(Time) {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	s.Schedule(5, func(Time) {})
}

func TestScheduleNilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil callback did not panic")
		}
	}()
	NewScheduler().Schedule(1, nil)
}

func TestAfter(t *testing.T) {
	s := NewScheduler()
	var at Time
	s.Schedule(10, func(now Time) {
		s.After(5, func(now2 Time) { at = now2 })
	})
	s.Run()
	if at != 15 {
		t.Fatalf("After fired at %v, want 15", at)
	}
}

func TestAfterNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative After did not panic")
		}
	}()
	NewScheduler().After(-1, func(Time) {})
}

func TestRunUntilHorizon(t *testing.T) {
	s := NewScheduler()
	var fired []Time
	for _, at := range []Time{1, 2, 3, 4, 5} {
		s.Schedule(at, func(now Time) { fired = append(fired, now) })
	}
	s.RunUntil(3)
	if len(fired) != 3 {
		t.Fatalf("fired %d events by horizon 3, want 3 (inclusive)", len(fired))
	}
	if s.Now() != 3 {
		t.Fatalf("clock at %v, want horizon 3", s.Now())
	}
	if s.Pending() != 2 {
		t.Fatalf("pending %d, want 2", s.Pending())
	}
	s.RunUntil(10)
	if len(fired) != 5 || s.Now() != 10 {
		t.Fatalf("after second RunUntil: fired=%d now=%v", len(fired), s.Now())
	}
}

func TestRunUntilAdvancesClockOnEmptyQueue(t *testing.T) {
	s := NewScheduler()
	s.RunUntil(100)
	if s.Now() != 100 {
		t.Fatalf("clock at %v, want 100", s.Now())
	}
}

func TestHalt(t *testing.T) {
	s := NewScheduler()
	count := 0
	for i := 1; i <= 10; i++ {
		s.Schedule(Time(i), func(Time) {
			count++
			if count == 4 {
				s.Halt()
			}
		})
	}
	s.Run()
	if count != 4 {
		t.Fatalf("fired %d events, want 4 after Halt", count)
	}
	if s.Pending() != 6 {
		t.Fatalf("pending %d after Halt, want 6", s.Pending())
	}
}

func TestEventsScheduledDuringRun(t *testing.T) {
	s := NewScheduler()
	var fired []Time
	s.Schedule(1, func(now Time) {
		fired = append(fired, now)
		s.Schedule(2, func(now Time) { fired = append(fired, now) })
	})
	s.Schedule(3, func(now Time) { fired = append(fired, now) })
	s.Run()
	want := []Time{1, 2, 3}
	if len(fired) != len(want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired %v, want %v", fired, want)
		}
	}
}

func TestTicker(t *testing.T) {
	s := NewScheduler()
	var ticks []Time
	tk := s.NewTicker(0, 10, func(now Time) { ticks = append(ticks, now) })
	s.RunUntil(35)
	tk.Stop()
	s.RunUntil(100)
	want := []Time{0, 10, 20, 30}
	if len(ticks) != len(want) {
		t.Fatalf("ticks %v, want %v", ticks, want)
	}
	for i := range want {
		if ticks[i] != want[i] {
			t.Fatalf("ticks %v, want %v", ticks, want)
		}
	}
}

func TestTickerStopInsideCallback(t *testing.T) {
	s := NewScheduler()
	count := 0
	var tk *Ticker
	tk = s.NewTicker(0, 1, func(Time) {
		count++
		if count == 3 {
			tk.Stop()
		}
	})
	s.Run()
	if count != 3 {
		t.Fatalf("ticks = %d, want 3", count)
	}
	tk.Stop() // double stop is a no-op
}

func TestTickerBadPeriodPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero period did not panic")
		}
	}()
	NewScheduler().NewTicker(0, 0, func(Time) {})
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{0, "0:00:00.000"},
		{7200, "2:00:00.000"},
		{3661.5, "1:01:01.500"},
		{-90, "-0:01:30.000"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Time(%v).String() = %q, want %q", float64(c.in), got, c.want)
		}
	}
}

func TestTimeArithmetic(t *testing.T) {
	if got := Time(5).Add(2.5); got != 7.5 {
		t.Fatalf("Add = %v", got)
	}
	if got := Time(5).Sub(2); got != 3 {
		t.Fatalf("Sub = %v", got)
	}
	if Time(5).Seconds() != 5 || Duration(3).Seconds() != 3 {
		t.Fatal("Seconds round-trip failed")
	}
}

// Property: for any set of event times, the firing order is the sorted order.
func TestFiringOrderProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		s := NewScheduler()
		var fired []Time
		for _, r := range raw {
			at := Time(r)
			s.Schedule(at, func(now Time) { fired = append(fired, now) })
		}
		s.Run()
		if len(fired) != len(raw) {
			return false
		}
		sorted := make([]Time, len(raw))
		for i, r := range raw {
			sorted[i] = Time(r)
		}
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		for i := range sorted {
			if fired[i] != sorted[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
