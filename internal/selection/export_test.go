package selection

import (
	"math"

	"dfsqos/internal/ids"
	"dfsqos/internal/rng"
)

// Select picks the winning RM among the bids under the policy. For the
// random policy it draws uniformly; otherwise it takes the highest score,
// breaking exact ties uniformly at random so that symmetric configurations
// do not systematically favour low-numbered RMs. ok is false when bids is
// empty.
func Select(p Policy, bids []Bid, src *rng.Source) (winner ids.RMID, ok bool) {
	if len(bids) == 0 {
		return ids.NoneRM, false
	}
	if p.IsRandom() {
		return bids[src.Intn(len(bids))].RM, true
	}
	best := math.Inf(-1)
	var tied []ids.RMID
	for _, b := range bids {
		s := p.Score(b)
		switch {
		case s > best:
			best = s
			tied = tied[:0]
			tied = append(tied, b.RM)
		case s == best:
			tied = append(tied, b.RM)
		}
	}
	if len(tied) == 1 {
		return tied[0], true
	}
	return tied[src.Intn(len(tied))], true
}
