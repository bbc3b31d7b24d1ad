package simtime

// Halt stops Run/RunUntil after the current event callback returns.
// Pending events stay pending.
func (s *Scheduler) Halt() { s.halted = true }

// Pending returns the number of events still to fire: queued events plus
// the part of the feed not yet reached.
func (s *Scheduler) Pending() int { return len(s.queue) + len(s.feedAt) - s.feedNext }

// Stop cancels future ticks.
func (t *Ticker) Stop() {
	if t.stopped {
		return
	}
	t.stopped = true
	t.s.Cancel(t.event)
}
