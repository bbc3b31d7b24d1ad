package metrics

import "math"

// CoefficientOfVariation returns stddev/mean of the values — the
// imbalance measure used for per-RM utilizations (0 = perfectly
// balanced). A zero mean yields 0.
func CoefficientOfVariation(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	mean := 0.0
	for _, v := range values {
		mean += v
	}
	mean /= float64(len(values))
	if mean == 0 {
		return 0
	}
	variance := 0.0
	for _, v := range values {
		d := v - mean
		variance += d * d
	}
	variance /= float64(len(values))
	return math.Sqrt(variance) / mean
}

// Max returns the maximum sample value, or 0 for an empty series.
func (s *Series) Max() float64 {
	m := 0.0
	for _, p := range s.Points {
		if p.Value > m {
			m = p.Value
		}
	}
	return m
}
