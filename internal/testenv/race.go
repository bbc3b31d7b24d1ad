//go:build race

package testenv

// RaceEnabled reports whether the race detector is compiled in. See
// norace.go.
const RaceEnabled = true
