//go:build !race

// Package testenv tells tests about the build they run in. Only tests
// import it.
//
// Allocation-count assertions skip when RaceEnabled: the race detector's
// instrumentation allocates, and sync.Pool drops items at random under
// -race, so a count there says nothing about the code under test.
package testenv

// RaceEnabled reports whether the race detector is compiled in.
const RaceEnabled = false
