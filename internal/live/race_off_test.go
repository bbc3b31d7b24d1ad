//go:build !race

package live

// raceEnabled reports whether the race detector is compiled in.
// Allocation-count assertions are skipped under -race: the detector's
// instrumentation allocates, and sync.Pool drops items at random.
const raceEnabled = false
