package ledger

// WorkConservingUtilization returns the time-averaged fraction of capacity
// covered by assured (sustainable) allocation over the window: the exact
// ∫ min(allocated, capacity) dt / (capacity × window). It never exceeds 1 —
// bandwidth admitted past nominal capacity counts toward OverBytes, not
// here — so it measures how much of the disk the admitted floors actually
// claim, the quantity work-conserving borrowing then tops up to the ceils.
func (s Snapshot) WorkConservingUtilization(windowSecs float64) float64 {
	if windowSecs <= 0 || s.Capacity <= 0 {
		return 0
	}
	return s.AssuredByteSecs / (float64(s.Capacity) * windowSecs)
}
