package workload

import (
	"fmt"
	"sort"

	"dfsqos/internal/catalog"
	"dfsqos/internal/ids"
	"dfsqos/internal/rng"
)

// Burst generalizes FlashCrowd into a windowed event: between AtSec and
// AtSec+DurationSec a fraction of the base traffic converges on one
// target file, and optionally a surge of extra short-lived users joins
// the system for the window's duration (the flash crowd that is new
// arrivals, not just redirected regulars). A zero-duration window is a
// valid no-op: it covers no requests and admits no surge arrivals.
type Burst struct {
	// AtSec is the window's start.
	AtSec float64
	// DurationSec is the window's length; requests in [AtSec,
	// AtSec+DurationSec) are affected. Zero makes the burst a no-op.
	DurationSec float64
	// Fraction of in-window base requests redirected to Target, in [0, 1]
	// (0: no redirection, surge only).
	Fraction float64
	// Target is the file the crowd converges on. NoneFile picks the file
	// at popularity rank ~N/2 (unpopular before the crowd), as FlashCrowd
	// does.
	Target ids.FileID
	// SurgeUsers is the number of extra temporary users active only
	// during the window. It may exceed the base population — a crowd
	// larger than the resident user base is exactly the case worth
	// simulating.
	SurgeUsers int
	// SurgeMeanArrivalSec is each surge user's mean inter-arrival time;
	// 0 inherits the base pattern's MeanArrivalSec.
	SurgeMeanArrivalSec float64
}

// Validate reports the first problem with the parameters, or nil.
func (b Burst) Validate() error {
	switch {
	case b.AtSec < 0:
		return fmt.Errorf("workload: burst at negative time %v", b.AtSec)
	case b.DurationSec < 0:
		return fmt.Errorf("workload: burst with negative duration %v", b.DurationSec)
	case b.Fraction < 0 || b.Fraction > 1:
		return fmt.Errorf("workload: burst fraction %v outside [0,1]", b.Fraction)
	case b.SurgeUsers < 0:
		return fmt.Errorf("workload: burst with %d surge users", b.SurgeUsers)
	case b.SurgeMeanArrivalSec < 0:
		return fmt.Errorf("workload: burst surge mean arrival %v negative", b.SurgeMeanArrivalSec)
	}
	return nil
}

// ApplyBursts rewrites the pattern in place, applying each burst in
// order: in-window base requests are redirected to the burst's target
// with probability Fraction, and each surge user contributes NET
// arrivals confined to the window, targeting the burst's target with
// probability Fraction and the popularity law otherwise. Surge users get
// user IDs above the base population (stacked across bursts) and are
// spread round-robin over the DFSCs like resident users. Requests are
// re-sorted by arrival time before returning.
//
// Each burst draws from its own named streams ("workload/burst<i>/..."),
// so two patterns differing only in one burst's parameters share all
// other randomness. It returns the resolved target files, one per burst.
func ApplyBursts(p *Pattern, cat *catalog.Catalog, bursts []Burst, src *rng.Source) ([]ids.FileID, error) {
	targets := make([]ids.FileID, len(bursts))
	nextUser := ids.UserID(p.Config.NumUsers)
	for i, b := range bursts {
		if err := b.Validate(); err != nil {
			return nil, err
		}
		target := b.Target
		if !target.Valid() {
			target = ids.FileID(cat.Len() / 2)
		}
		if int(target) >= cat.Len() {
			return nil, fmt.Errorf("workload: burst %d target %v beyond catalog", i, target)
		}
		targets[i] = target
		end := b.AtSec + b.DurationSec

		if b.Fraction > 0 && b.DurationSec > 0 {
			redirect := src.Split(fmt.Sprintf("workload/burst%d/redirect", i))
			// Requests are time-sorted on entry; locate the window once.
			start := sort.Search(len(p.Requests), func(j int) bool {
				return p.Requests[j].AtSec >= b.AtSec
			})
			for j := start; j < len(p.Requests) && p.Requests[j].AtSec < end; j++ {
				if redirect.Float64() < b.Fraction {
					p.Requests[j].File = target
				}
			}
		}

		mean := b.SurgeMeanArrivalSec
		if mean == 0 {
			mean = p.Config.MeanArrivalSec
		}
		first, horizon, numDFSC := nextUser, p.Config.HorizonSec, p.Config.NumDFSC
		surge := fmt.Sprintf("workload/burst%d/surge", i)
		perUser := (min(end, horizon) - b.AtSec) / mean
		runs := generateUsers(src, surge, b.SurgeUsers, perUser, false,
			func(u int, r *userRand, out []Request) []Request {
				user := first + ids.UserID(u)
				dfsc := ids.DFSCID(int(user) % numDFSC)
				for t := b.AtSec + r.arrivals.Exp(mean); t < end && t <= horizon; t += r.arrivals.Exp(mean) {
					file := target
					if files := r.files(); files.Float64() >= b.Fraction {
						file = cat.SamplePopular(files)
					}
					out = append(out, Request{AtSec: t, User: user, DFSC: dfsc, File: file})
				}
				return out
			})
		for _, run := range runs {
			p.Requests = append(p.Requests, run...)
		}
		nextUser += ids.UserID(b.SurgeUsers)
	}
	sortByArrival(p.Requests)
	return targets, nil
}
