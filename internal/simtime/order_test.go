package simtime

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// The firing order is the scheduler's contract: every table in
// EXPERIMENTS.md is a function of it. These tests state it against a
// reference that keeps pending events in a plain slice and fires the one
// with the least (time, sequence) key — no heap, no feed: its Feed is,
// literally, N calls of Schedule.

// engine is what a test program drives; *Scheduler and the reference both
// sit behind it.
type engine interface {
	Now() Time
	Fired() uint64
	Pending() int
	Step() bool
	Run()
	RunUntil(Time)
	Halt()
	Feed(at []Time, fn func(i int, now Time))
	// schedule and ticker return the handle's cancel / stop.
	schedule(at Time, fn func(Time)) (cancel func() bool)
	ticker(start Time, period Duration, fn func(Time)) (stop func())
}

type realEngine struct{ *Scheduler }

func (r realEngine) schedule(at Time, fn func(Time)) func() bool {
	e := r.Schedule(at, fn)
	return func() bool { return r.Cancel(e) }
}

func (r realEngine) ticker(start Time, period Duration, fn func(Time)) func() {
	return r.NewTicker(start, period, fn).Stop
}

// refEngine is the reference: O(n) per step and obviously in order.
type refEngine struct {
	now     Time
	seq     uint64
	pending []*refEvent
	fired   uint64
	halted  bool
}

type refEvent struct {
	at   Time
	seq  uint64
	fn   func(Time)
	done bool // fired or canceled
}

func (r *refEngine) Now() Time     { return r.now }
func (r *refEngine) Fired() uint64 { return r.fired }
func (r *refEngine) Pending() int  { return len(r.pending) }
func (r *refEngine) Halt()         { r.halted = true }

func (r *refEngine) schedule(at Time, fn func(Time)) func() bool {
	e := &refEvent{at: at, seq: r.seq, fn: fn}
	r.seq++
	r.pending = append(r.pending, e)
	return func() bool {
		if e.done {
			return false
		}
		e.done = true
		for i, p := range r.pending {
			if p == e {
				r.pending = append(r.pending[:i], r.pending[i+1:]...)
				break
			}
		}
		return true
	}
}

func (r *refEngine) Feed(at []Time, fn func(int, Time)) {
	for i, t := range at {
		i := i
		r.schedule(t, func(now Time) { fn(i, now) })
	}
}

// next returns the index of the pending event that fires first, -1 if none.
func (r *refEngine) next() int {
	best := -1
	for i, e := range r.pending {
		if best < 0 || e.at < r.pending[best].at ||
			(e.at == r.pending[best].at && e.seq < r.pending[best].seq) {
			best = i
		}
	}
	return best
}

func (r *refEngine) Step() bool {
	i := r.next()
	if i < 0 {
		return false
	}
	e := r.pending[i]
	r.pending = append(r.pending[:i], r.pending[i+1:]...)
	e.done = true
	r.now = e.at
	r.fired++
	e.fn(r.now)
	return true
}

func (r *refEngine) Run() {
	r.halted = false
	for !r.halted && r.Step() {
	}
}

func (r *refEngine) RunUntil(horizon Time) {
	r.halted = false
	for !r.halted {
		if i := r.next(); i < 0 || r.pending[i].at > horizon {
			break
		}
		r.Step()
	}
	if !r.halted && r.now < horizon {
		r.now = horizon
	}
}

func (r *refEngine) ticker(start Time, period Duration, fn func(Time)) func() {
	stopped := false
	var cancel func() bool
	var tick func(Time)
	tick = func(now Time) {
		fn(now)
		if !stopped {
			cancel = r.schedule(now.Add(period), tick)
		}
	}
	cancel = r.schedule(start, tick)
	return func() {
		if !stopped {
			stopped = true
			cancel()
		}
	}
}

// program interprets a byte string as a sequence of scheduler calls, some
// made from the top level and some from inside event callbacks, and logs
// everything observable. All times sit on a quarter-second grid so that
// ties, and horizons exactly at an event's time, are common.
type program struct {
	e    engine
	data []byte
	pos  int
	log  []string

	nextID   int
	handles  []func() bool // every cancel ever handed out, fired or not
	feedLeft int           // arrivals of the current feed still to fire
	feedAt   []Time        // the current feed's times
}

func (p *program) byte() int {
	if p.pos >= len(p.data) {
		return 0
	}
	b := p.data[p.pos]
	p.pos++
	return int(b)
}

func (p *program) logf(format string, a ...any) {
	p.log = append(p.log, fmt.Sprintf(format, a...))
}

// delay is 0 to 3.75 s in quarter steps.
func (p *program) delay() Duration { return Duration(p.byte()%16) / 4 }

// fire logs an event and then acts on the behaviour chosen when it was
// scheduled.
func (p *program) fire(id, behaviour int, now Time) {
	p.logf("fire %d at %v pending %d fired %d", id, now, p.e.Pending(), p.e.Fired())
	switch behaviour % 8 {
	case 1: // a child event, possibly at this very instant
		p.scheduleAt(now.Add(p.delay()))
	case 2:
		p.cancelOne()
	case 3:
		p.e.Halt()
	case 4: // an event at a later arrival's exact time
		if p.feedLeft > 0 {
			p.scheduleAt(p.feedAt[len(p.feedAt)-1-p.byte()%p.feedLeft])
		}
	case 5: // a ticker that stops itself from its own callback
		p.startTicker(now)
	case 6: // a new feed, legal from the previous one's last arrival on
		p.feed()
	}
}

func (p *program) scheduleAt(at Time) {
	id, behaviour := p.nextID, p.byte()
	p.nextID++
	p.handles = append(p.handles, p.e.schedule(at, func(now Time) { p.fire(id, behaviour, now) }))
}

// cancelOne cancels the first, the last or some middle handle — pending,
// fired or canceled alike.
func (p *program) cancelOne() {
	if len(p.handles) == 0 {
		return
	}
	var i int
	switch b := p.byte(); b % 3 {
	case 0:
		i = 0
	case 1:
		i = len(p.handles) - 1
	default:
		i = b % len(p.handles)
	}
	p.logf("cancel %d -> %v pending %d", i, p.handles[i](), p.e.Pending())
}

func (p *program) startTicker(start Time) {
	id, period, left := p.nextID, Duration(1+p.byte()%4)/4, 1+p.byte()%4
	p.nextID++
	var stop func()
	stop = p.e.ticker(start, period, func(now Time) {
		p.logf("tick %d at %v pending %d", id, now, p.e.Pending())
		if left--; left == 0 {
			stop()
			stop() // a second Stop is a no-op
		}
	})
}

func (p *program) feed() {
	if p.feedLeft > 0 {
		return // one feed at a time; the explicit test covers the panic
	}
	n := p.byte() % 8
	at := make([]Time, n)
	behaviours := make([]int, n)
	t := p.e.Now()
	for i := range at {
		t = t.Add(Duration(p.byte()%4) / 4)
		at[i], behaviours[i] = t, p.byte()
	}
	base := p.nextID
	p.nextID += n
	p.feedAt, p.feedLeft = at, n
	p.e.Feed(at, func(i int, now Time) {
		p.feedLeft--
		p.fire(base+i, behaviours[i], now)
	})
	p.logf("feed %d pending %d", n, p.e.Pending())
}

func (p *program) run() []string {
	for p.pos < len(p.data) {
		switch p.byte() % 8 {
		case 0, 1:
			p.scheduleAt(p.e.Now().Add(p.delay()))
		case 2:
			p.cancelOne()
		case 3:
			p.feed()
		case 4:
			p.e.RunUntil(p.e.Now().Add(p.delay()))
			p.logf("rununtil -> now %v pending %d fired %d", p.e.Now(), p.e.Pending(), p.e.Fired())
		case 5:
			p.logf("step -> %v now %v", p.e.Step(), p.e.Now())
		case 6:
			p.e.Run()
			p.logf("run -> now %v pending %d", p.e.Now(), p.e.Pending())
		case 7:
			p.startTicker(p.e.Now().Add(p.delay()))
		}
	}
	// Drain: a Halt inside a callback ends one Run, not the program.
	for p.e.Pending() > 0 {
		p.e.Run()
	}
	p.logf("end now %v fired %d", p.e.Now(), p.e.Fired())
	return p.log
}

// checkProgram runs data against the scheduler and the reference and
// compares everything either let the program observe.
func checkProgram(t *testing.T, data []byte) {
	t.Helper()
	got := (&program{e: realEngine{NewScheduler()}, data: data}).run()
	want := (&program{e: &refEngine{}, data: data}).run()
	if reflect.DeepEqual(got, want) {
		return
	}
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			g := "<nothing>"
			if i < len(got) {
				g = got[i]
			}
			t.Fatalf("program %x diverges at step %d:\n  scheduler: %s\n  reference: %s\n  before:    %s",
				data, i, g, want[i], strings.Join(want[max(0, i-5):i], "\n             "))
		}
	}
	t.Fatalf("program %x: scheduler logged %d extra steps, first %s", data, len(got)-len(want), got[len(want)])
}

func TestSchedulerMatchesReferenceModel(t *testing.T) {
	rnd := rand.New(rand.NewSource(20))
	for i := 0; i < 3000; i++ {
		data := make([]byte, 8+rnd.Intn(200))
		rnd.Read(data)
		checkProgram(t, data)
	}
}

func FuzzSchedulerOrder(f *testing.F) {
	f.Add([]byte{})
	// Hand-written openings, then random ones: a queued event, two fed
	// arrivals and another queued event all at t=0.5; a feed whose
	// arrivals schedule at later arrivals' times and halt the run; tickers
	// that stop themselves between cancels of the first, last and a middle
	// handle; events that cancel other events, fired ones included.
	f.Add([]byte{0, 2, 0, 3, 2, 2, 0, 0, 0, 0, 2, 0, 6})
	f.Add([]byte{3, 4, 1, 4, 1, 3, 1, 0, 1, 1, 6, 0, 0, 6, 2, 6})
	f.Add([]byte{7, 0, 1, 2, 7, 2, 0, 3, 4, 9, 2, 0, 2, 1, 2, 5, 6})
	f.Add([]byte{0, 8, 2, 0, 8, 2, 0, 8, 2, 4, 8, 2, 0, 2, 1, 6})
	rnd := rand.New(rand.NewSource(21))
	for i := 0; i < 8; i++ {
		data := make([]byte, 64)
		rnd.Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			t.Skip()
		}
		checkProgram(t, data)
	})
}

// order runs the scheduler dry and returns the labels in firing order.
func order(s *Scheduler, fired *[]string) string {
	s.Run()
	return strings.Join(*fired, " ")
}

func TestFedArrivalAndQueuedEventAtOneInstant(t *testing.T) {
	for _, feedFirst := range []bool{false, true} {
		s := NewScheduler()
		var fired []string
		queue := func() { s.Schedule(5, func(Time) { fired = append(fired, "queued") }) }
		feed := func() {
			s.Feed([]Time{5, 5}, func(i int, _ Time) { fired = append(fired, fmt.Sprintf("fed%d", i)) })
		}
		want := "queued fed0 fed1"
		if feedFirst {
			feed()
			queue()
			want = "fed0 fed1 queued"
		} else {
			queue()
			feed()
		}
		if got := order(s, &fired); got != want {
			t.Errorf("feed first %v: fired %q, want %q (lower sequence number first)", feedFirst, got, want)
		}
	}
}

func TestEventScheduledDuringRunAtLaterArrivalsTime(t *testing.T) {
	s := NewScheduler()
	var fired []string
	s.Feed([]Time{1, 3, 3, 4}, func(i int, now Time) {
		fired = append(fired, fmt.Sprintf("fed%d", i))
		if i == 0 {
			// Scheduled after the feed was registered, so both arrivals at
			// t=3 hold lower sequence numbers and go first.
			s.Schedule(3, func(Time) { fired = append(fired, "late") })
			s.Schedule(2, func(Time) { fired = append(fired, "between") })
		}
	})
	if got, want := order(s, &fired), "fed0 between fed1 fed2 late fed3"; got != want {
		t.Fatalf("fired %q, want %q", got, want)
	}
}

func TestPendingCountsUnfedRemainder(t *testing.T) {
	s := NewScheduler()
	s.Schedule(2.5, func(Time) {})
	s.Feed([]Time{1, 2, 3, 4}, func(int, Time) {})
	if s.Pending() != 5 {
		t.Fatalf("pending %d after registration, want 5", s.Pending())
	}
	s.RunUntil(2)
	if s.Pending() != 3 || s.Fired() != 2 || s.Now() != 2 {
		t.Fatalf("after RunUntil(2): pending %d fired %d now %v, want 3, 2, 2", s.Pending(), s.Fired(), s.Now())
	}
	s.RunUntil(3.5)
	if s.Pending() != 1 || s.Fired() != 4 || s.Now() != 3.5 {
		t.Fatalf("after RunUntil(3.5): pending %d fired %d now %v, want 1, 4, 3.5", s.Pending(), s.Fired(), s.Now())
	}
	s.Run()
	if s.Pending() != 0 || s.Fired() != 5 || s.Now() != 4 {
		t.Fatalf("drained: pending %d fired %d now %v, want 0, 5, 4", s.Pending(), s.Fired(), s.Now())
	}
}

func TestHaltMidFeedLeavesTheRestPending(t *testing.T) {
	s := NewScheduler()
	var seen []int
	s.Feed([]Time{1, 2, 3, 4, 5}, func(i int, _ Time) {
		seen = append(seen, i)
		if i == 1 {
			s.Halt()
		}
	})
	s.RunUntil(10)
	if len(seen) != 2 || s.Pending() != 3 || s.Now() != 2 {
		t.Fatalf("halted: saw %v pending %d now %v, want [0 1], 3, 2 (a halted RunUntil does not jump to its horizon)",
			seen, s.Pending(), s.Now())
	}
	s.Run()
	if len(seen) != 5 || s.Pending() != 0 {
		t.Fatalf("resumed: saw %v pending %d", seen, s.Pending())
	}
}

// A feed is N Schedule calls by construction, so every counter and the
// clock read the same either way.
func TestFeedEqualsScheduleCalls(t *testing.T) {
	at := []Time{0, 0.5, 0.5, 2, 2, 2, 7}
	run := func(register func(s *Scheduler, fn func(i int, now Time))) (log []string) {
		s := NewScheduler()
		s.Schedule(0.5, func(now Time) { log = append(log, fmt.Sprintf("before at %v", now)) })
		register(s, func(i int, now Time) {
			log = append(log, fmt.Sprintf("arrival %d at %v pending %d fired %d", i, now, s.Pending(), s.Fired()))
			s.After(1.5, func(now Time) { log = append(log, fmt.Sprintf("close %d at %v", i, now)) })
		})
		s.Schedule(2, func(now Time) { log = append(log, fmt.Sprintf("after at %v", now)) })
		s.RunUntil(100)
		return append(log, fmt.Sprintf("fired %d now %v", s.Fired(), s.Now()))
	}
	fed := run(func(s *Scheduler, fn func(int, Time)) { s.Feed(at, fn) })
	scheduled := run(func(s *Scheduler, fn func(int, Time)) {
		for i, t := range at {
			i := i
			s.Schedule(t, func(now Time) { fn(i, now) })
		}
	})
	if !reflect.DeepEqual(fed, scheduled) {
		t.Fatalf("fed:\n  %s\nscheduled:\n  %s", strings.Join(fed, "\n  "), strings.Join(scheduled, "\n  "))
	}
	if want := fmt.Sprintf("fired %d now 0:01:40.000", 2*len(at)+2); fed[len(fed)-1] != want {
		t.Fatalf("last line %q, want %q", fed[len(fed)-1], want)
	}
}

func TestFeedRejectsWhatScheduleRejects(t *testing.T) {
	nop := func(int, Time) {}
	cases := []struct {
		name  string
		setup func(s *Scheduler)
		at    []Time
		fn    func(int, Time)
		want  string
	}{
		{name: "out of order", at: []Time{1, 3, 2}, fn: nop, want: "out of order: arrival 2"},
		{name: "NaN", at: []Time{1, Time(math.NaN()), 2}, fn: nop, want: "arrival 1 at NaN"},
		{name: "NaN first", at: []Time{Time(math.NaN())}, fn: nop, want: "arrival 0 at NaN"},
		{name: "before now", setup: func(s *Scheduler) { s.RunUntil(10) }, at: []Time{9, 11}, fn: nop, want: "before now"},
		{name: "nil callback", at: []Time{1}, want: "nil callback"},
		{name: "second feed while the first is pending", at: []Time{5}, fn: nop, want: "2 arrivals of the previous one are pending",
			setup: func(s *Scheduler) { s.Feed([]Time{1, 2, 3}, nop); s.Step() }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := NewScheduler()
			if tc.setup != nil {
				tc.setup(s)
			}
			pending := s.Pending()
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, tc.want) {
					t.Fatalf("panic %q, want one mentioning %q", msg, tc.want)
				}
				if s.Pending() != pending {
					t.Fatalf("a refused feed changed Pending from %d to %d", pending, s.Pending())
				}
			}()
			s.Feed(tc.at, tc.fn)
		})
	}
}

func TestFeedAfterFeed(t *testing.T) {
	s := NewScheduler()
	var fired []string
	s.Feed(nil, func(int, Time) { t.Fatal("an empty feed fired") })
	s.Feed([]Time{1, 2}, func(i int, _ Time) {
		fired = append(fired, fmt.Sprintf("a%d", i))
		if i == 1 {
			// The last arrival has left the feed by the time it fires.
			s.Feed([]Time{2, 3}, func(i int, _ Time) { fired = append(fired, fmt.Sprintf("b%d", i)) })
		}
	})
	if got, want := order(s, &fired), "a0 a1 b0 b1"; got != want {
		t.Fatalf("fired %q, want %q", got, want)
	}
}

func TestCancelAnywhereInADeepQueue(t *testing.T) {
	// Enough events for a four-level heap, canceled from the root, the
	// last slot and the middle, in an order that makes the hole's filler
	// move up as well as down.
	s := NewScheduler()
	rnd := rand.New(rand.NewSource(7))
	type rec struct {
		e  *Event
		at Time
	}
	var all []rec
	var fired []Time
	for i := 0; i < 300; i++ {
		at := Time(rnd.Intn(50))
		all = append(all, rec{s.Schedule(at, func(now Time) { fired = append(fired, now) }), at})
	}
	kept := 0
	for i, r := range all {
		if i%3 == 0 || i > 280 {
			if !s.Cancel(r.e) {
				t.Fatalf("cancel %d refused", i)
			}
			continue
		}
		kept++
	}
	if s.Pending() != kept {
		t.Fatalf("pending %d, want %d", s.Pending(), kept)
	}
	s.Run()
	if len(fired) != kept {
		t.Fatalf("fired %d, want %d", len(fired), kept)
	}
	for i := 1; i < len(fired); i++ {
		if fired[i] < fired[i-1] {
			t.Fatalf("out of order at %d: %v after %v", i, fired[i], fired[i-1])
		}
	}
	for i, r := range all {
		if canceled := i%3 == 0 || i > 280; r.e.canceled != canceled || r.e.at != r.at {
			t.Fatalf("event %d: canceled %v at %v", i, r.e.canceled, r.e.at)
		}
	}
}
