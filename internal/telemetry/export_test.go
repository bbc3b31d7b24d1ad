package telemetry

import "math"

// Set replaces the value: the tests write gauges directly.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }
