// Package simtime implements the discrete-event simulation (DES) engine that
// substitutes for the paper's 25-VM Xen testbed. Virtual time is a float64
// count of seconds since simulation start; events fire in strict (time,
// sequence) order, which makes every run deterministic.
//
// The engine intentionally runs single-threaded: the paper's metrics
// (over-allocate ratio, fail rate, utilization) are functions of the
// bandwidth-allocation trajectory, which is piecewise constant between
// events, so a sequential event loop reproduces it exactly and reproducibly.
package simtime

import (
	"fmt"
	"math"
)

// Time is a point in virtual time, in seconds since simulation start.
type Time float64

// Duration is a span of virtual time in seconds.
type Duration float64

// Add returns the time shifted by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration between two times.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds returns the time as a float64 second count.
func (t Time) Seconds() float64 { return float64(t) }

// Seconds returns the duration as a float64 second count.
func (d Duration) Seconds() float64 { return float64(d) }

// String formats a virtual time as "h:mm:ss.mmm".
func (t Time) String() string {
	s := float64(t)
	neg := ""
	if s < 0 {
		neg, s = "-", -s
	}
	h := int(s) / 3600
	m := (int(s) % 3600) / 60
	rest := s - float64(h*3600+m*60)
	return fmt.Sprintf("%s%d:%02d:%06.3f", neg, h, m, rest)
}

// entry is one pending event: its ordering key and its callback, held by
// value in the queue. Nothing outside the queue refers to it, so a sift
// moves entries and writes nothing back.
type entry struct {
	at  Time
	seq uint64
	fn  func(Time)
}

// before is the firing order: earlier time first, scheduling order at equal
// times.
func (a entry) before(b entry) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// arity is the heap's fan-out. Four children per node halve the depth of a
// binary heap and keep a node's children in one or two cache lines, which
// is what a pop (one sift from the root) pays for.
const arity = 4

// Scheduler is a deterministic discrete-event scheduler. It is not safe for
// concurrent use: all simulation actors run inside event callbacks.
//
// Pending events live in two places that fire as one sequence: a min-heap
// of individually scheduled events, and at most one feed — an arrival
// stream that was already sorted by time when it was registered (see Feed)
// and is therefore consumed from the front instead of being queued.
type Scheduler struct {
	now    Time
	seq    uint64
	queue  []entry // arity-ary min-heap in (at, seq) order
	fired  uint64
	halted bool

	// The feed: feedAt[feedNext:] are the arrivals still to fire, arrival i
	// holding sequence number feedSeq+i. feedAt is nil when none is left.
	feedAt   []Time
	feedFn   func(i int, now Time)
	feedSeq  uint64
	feedNext int
}

// NewScheduler returns a scheduler with the clock at time zero.
func NewScheduler() *Scheduler {
	return &Scheduler{}
}

// Now returns the current virtual time.
func (s *Scheduler) Now() Time { return s.now }

// Fired returns how many events have fired so far (diagnostic).
func (s *Scheduler) Fired() uint64 { return s.fired }

// Schedule registers fn to fire at time at. Scheduling in the past panics:
// it is always a logic error in a DES and silently clamping would corrupt
// metric integration. Ties fire in scheduling order. A scheduled event
// cannot be withdrawn: a caller that may change its mind checks a flag of
// its own when the event fires (see Ticker).
func (s *Scheduler) Schedule(at Time, fn func(Time)) {
	if at < s.now {
		panic(fmt.Sprintf("simtime: scheduling event at %v before now %v", at, s.now))
	}
	if fn == nil {
		panic("simtime: scheduling nil callback")
	}
	if math.IsNaN(float64(at)) {
		panic("simtime: scheduling event at NaN time")
	}
	s.queue = append(s.queue, entry{})
	s.siftUp(len(s.queue)-1, entry{at: at, seq: s.seq, fn: fn})
	s.seq++
}

// After registers fn to fire d seconds from now.
func (s *Scheduler) After(d Duration, fn func(Time)) {
	if d < 0 {
		panic(fmt.Sprintf("simtime: negative delay %v", d))
	}
	s.Schedule(s.now.Add(d), fn)
}

// Feed registers a whole arrival stream at once: fn(i, at[i]) fires at time
// at[i] for every i, exactly as if Schedule(at[i], ...) had been called for
// i = 0, 1, ... at this moment — the arrivals take the next len(at)
// sequence numbers, so against every other event, earlier or later, ties
// break the way those calls would have broken them. What differs is the
// cost: at must already be in non-decreasing order, so the stream is read
// from its front and merged with the queue's head, and an arrival costs no
// allocation and no queue operation.
//
// Feed keeps at (the caller must not modify it) until its last arrival has
// fired. It panics on what Schedule panics on — an arrival before Now, a
// NaN time, a nil callback — on an arrival earlier than its predecessor,
// and when an earlier feed still has arrivals to fire.
func (s *Scheduler) Feed(at []Time, fn func(i int, now Time)) {
	if fn == nil {
		panic("simtime: feeding nil callback")
	}
	if s.feedAt != nil {
		panic(fmt.Sprintf("simtime: feed registered while %d arrivals of the previous one are pending", len(s.feedAt)-s.feedNext))
	}
	prev := s.now
	for i, t := range at {
		switch {
		case math.IsNaN(float64(t)):
			panic(fmt.Sprintf("simtime: feeding arrival %d at NaN time", i))
		case t < prev && i == 0:
			panic(fmt.Sprintf("simtime: feeding arrival at %v before now %v", t, s.now))
		case t < prev:
			panic(fmt.Sprintf("simtime: feed out of order: arrival %d at %v after %v", i, t, prev))
		}
		prev = t
	}
	if len(at) == 0 {
		return
	}
	s.feedAt, s.feedFn, s.feedSeq, s.feedNext = at, fn, s.seq, 0
	s.seq += uint64(len(at))
}

// Step fires the single earliest event and returns true, or returns false if
// nothing is pending.
func (s *Scheduler) Step() bool { return s.step(Time(math.Inf(1))) }

// step fires the earliest pending event unless it is due after horizon.
// This is the one place the feed and the queue are merged: the feed's next
// arrival goes first when its (time, sequence) key is the smaller one.
func (s *Scheduler) step(horizon Time) bool {
	if s.feedAt != nil {
		i := s.feedNext
		next := entry{at: s.feedAt[i], seq: s.feedSeq + uint64(i)}
		if len(s.queue) == 0 || next.before(s.queue[0]) {
			if next.at > horizon {
				return false
			}
			fn := s.feedFn
			if s.feedNext++; s.feedNext == len(s.feedAt) {
				s.feedAt, s.feedFn, s.feedNext = nil, nil, 0
			}
			s.now = next.at
			s.fired++
			fn(i, s.now)
			return true
		}
	}
	if len(s.queue) == 0 || s.queue[0].at > horizon {
		return false
	}
	e := s.pop()
	s.now = e.at
	s.fired++
	e.fn(s.now)
	return true
}

// RunUntil fires events in order until nothing is pending or the next event
// is strictly after the horizon; the clock then advances to the horizon.
// Events scheduled exactly at the horizon do fire.
func (s *Scheduler) RunUntil(horizon Time) {
	if horizon < s.now {
		panic(fmt.Sprintf("simtime: horizon %v before now %v", horizon, s.now))
	}
	s.halted = false
	for !s.halted && s.step(horizon) {
	}
	if !s.halted && s.now < horizon {
		s.now = horizon
	}
}

// Run fires all events until none is pending or Halt is called.
func (s *Scheduler) Run() {
	s.halted = false
	for !s.halted && s.Step() {
	}
}

// pop takes the earliest entry out of the queue: the last entry fills the
// root and sinks to its place.
func (s *Scheduler) pop() entry {
	e := s.queue[0]
	last := len(s.queue) - 1
	x := s.queue[last]
	s.queue[last] = entry{} // drop the callback for the collector
	s.queue = s.queue[:last]
	if last > 0 {
		s.siftDown(0, x)
	}
	return e
}

// siftUp places x at the hole i or above it, moving later parents down.
func (s *Scheduler) siftUp(i int, x entry) {
	q := s.queue
	for i > 0 {
		parent := (i - 1) / arity
		if !x.before(q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = x
}

// siftDown places x at the hole i or below it, moving earlier children up.
func (s *Scheduler) siftDown(i int, x entry) {
	q := s.queue
	for {
		first := arity*i + 1
		if first >= len(q) {
			break
		}
		end := first + arity
		if end > len(q) {
			end = len(q)
		}
		least := first
		for c := first + 1; c < end; c++ {
			if q[c].before(q[least]) {
				least = c
			}
		}
		if !q[least].before(x) {
			break
		}
		q[i] = q[least]
		i = least
	}
	q[i] = x
}

// Ticker invokes fn every period seconds starting at start. It is the
// sampling backbone for the utilization time series in Figs 4-6. Once
// stopped, its next tick still fires but does nothing and schedules no
// other.
type Ticker struct {
	s       *Scheduler
	period  Duration
	fn      func(Time)
	stopped bool
}

// NewTicker schedules a periodic callback. period must be positive.
func (s *Scheduler) NewTicker(start Time, period Duration, fn func(Time)) *Ticker {
	if period <= 0 {
		panic("simtime: ticker period must be positive")
	}
	t := &Ticker{s: s, period: period, fn: fn}
	s.Schedule(start, t.tick)
	return t
}

func (t *Ticker) tick(now Time) {
	if t.stopped {
		return
	}
	t.fn(now)
	if !t.stopped {
		t.s.Schedule(now.Add(t.period), t.tick)
	}
}
