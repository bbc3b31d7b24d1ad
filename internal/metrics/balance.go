package metrics

import (
	"math"
	"sort"
)

// The dynamic replication mechanism exists "to solve the imbalance of
// bandwidth utilization" (paper §V); these helpers quantify that balance
// so experiments can report it alongside the paper's two headline
// criteria.

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) of values using
// linear interpolation between closest ranks. It returns 0 for an empty
// input and does not modify the caller's slice.
func Percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	sorted := make([]float64, len(values))
	copy(sorted, values)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// JainFairness returns Jain's fairness index (Σx)²/(n·Σx²) ∈ (0, 1]: 1
// when every RM carries an identical share, 1/n when one RM carries
// everything. An all-zero input returns 1 (vacuously fair).
func JainFairness(values []float64) float64 {
	if len(values) == 0 {
		return 1
	}
	var sum, sumSq float64
	for _, v := range values {
		sum += v
		sumSq += v * v
	}
	if sumSq == 0 {
		return 1
	}
	return sum * sum / (float64(len(values)) * sumSq)
}

// UtilizationShares converts per-RM results into the fraction of each RM's
// capacity that was allocated on average over the run — the input the
// balance measures above expect.
func UtilizationShares(rms []RMResult, horizonSecs float64) []float64 {
	out := make([]float64, len(rms))
	for i, r := range rms {
		out[i] = r.Snap.MeanUtilization(horizonSecs)
	}
	return out
}
