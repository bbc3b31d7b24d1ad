package history

import "dfsqos/internal/simtime"

// ReferenceWindow exposes the current reference window: its start, end
// and cumulative bytes. ok is false when no
// reference exists yet.
func (t *TwoQueue) ReferenceWindow() (start, end simtime.Time, fsTotal float64, ok bool) {
	if !t.hasRef {
		return 0, 0, 0, false
	}
	return t.reference.start, t.reference.end, t.reference.fsTotal, true
}
