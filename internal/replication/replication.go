// Package replication implements the decision logic of the paper's dynamic
// replication mechanism (§V): when to trigger a replication, which file to
// replicate, how many copies Rep(N_REP, N_MAXR) may create, and where the
// copies go under the three destination-selection strategies (Random,
// Largest-Bandwidth-First, Weighted).
//
// This package is pure policy — it owns no clocks, ledgers or transfers.
// The Resource Manager (package rm) consults it and drives the actual
// transfer through the scheduler, so the identical decision code runs in
// the DES and in live mode. It is consulted on every access of an RM under
// B_TH, so the two per-attempt functions own no memory either: Order takes
// candidate ids, a capacity lookup and a Scratch, BusiestCovering sorts in
// place, and both write into buffers the caller keeps.
package replication

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"dfsqos/internal/ids"
	"dfsqos/internal/rng"
	"dfsqos/internal/units"
)

// Strategy is the paper's Rep(N_REP, N_MAXR): replicate NRep copies at a
// time with at most NMaxR total replicas. The zero value (disabled) is the
// static-replication configuration.
type Strategy struct {
	// Enabled is false for static replication (no dynamic copies).
	Enabled bool
	// NRep is how many copies one trigger creates.
	NRep int
	// NMaxR is the upper bound on the number of replicas of one file.
	NMaxR int
}

// Static is the static-replication strategy: the initial replicas are all
// a file ever has.
func Static() Strategy { return Strategy{} }

// Rep constructs the Rep(nRep, nMaxR) strategy.
func Rep(nRep, nMaxR int) Strategy {
	return Strategy{Enabled: true, NRep: nRep, NMaxR: nMaxR}
}

// Baseline is the paper's baseline dynamic strategy: Rep(3, 8).
func Baseline() Strategy { return Rep(3, 8) }

// String renders "static", "Rep(1,3)", etc.
func (s Strategy) String() string {
	if !s.Enabled {
		return "static"
	}
	return fmt.Sprintf("Rep(%d,%d)", s.NRep, s.NMaxR)
}

// ParseStrategy parses "static", "baseline" or "Rep(n,m)" (case
// insensitive, e.g. "rep(1,3)").
func ParseStrategy(s string) (Strategy, error) {
	t := strings.TrimSpace(strings.ToLower(s))
	switch t {
	case "static":
		return Static(), nil
	case "baseline":
		return Baseline(), nil
	}
	var n, m int
	if _, err := fmt.Sscanf(t, "rep(%d,%d)", &n, &m); err != nil {
		return Strategy{}, fmt.Errorf("replication: cannot parse strategy %q", s)
	}
	st := Rep(n, m)
	if err := st.Validate(); err != nil {
		return Strategy{}, err
	}
	return st, nil
}

// Validate reports the first problem with the strategy, or nil.
func (s Strategy) Validate() error {
	if !s.Enabled {
		return nil
	}
	if s.NRep <= 0 {
		return fmt.Errorf("replication: NRep must be positive, got %d", s.NRep)
	}
	if s.NMaxR <= 0 {
		return fmt.Errorf("replication: NMaxR must be positive, got %d", s.NMaxR)
	}
	return nil
}

// Plan applies the paper's copy-count rule for a file that currently has
// nCur replicas. actual is how many copies to create (always ≥ 1:
// "dynamic data replication will at the very least be processed one time"),
// and migrate reports whether the source must delete its own replica after
// the copies complete because the bound would otherwise be exceeded
// (N_REP + N_CUR > N_MAXR ⇒ N_REP = N_MAXR − (N_CUR − 1)).
func (s Strategy) Plan(nCur int) (actual int, migrate bool) {
	if !s.Enabled {
		return 0, false
	}
	if nCur < 1 {
		panic(fmt.Sprintf("replication: Plan with nCur=%d", nCur))
	}
	actual = s.NRep
	if s.NRep+nCur > s.NMaxR {
		actual = s.NMaxR - (nCur - 1)
		if actual < 1 {
			actual = 1
		}
		migrate = true
	}
	return actual, migrate
}

// DestStrategy selects replication destinations among candidate RMs.
type DestStrategy int

const (
	// DestRandom draws destinations uniformly (the paper's default).
	DestRandom DestStrategy = iota
	// DestLBF ("largest bandwidth first") prefers the RMs with the
	// largest initial bandwidth — in the paper's topology, RM1 and RM9.
	DestLBF
	// DestWeighted draws destinations with probability proportional to
	// their initial bandwidth.
	DestWeighted
)

// String implements fmt.Stringer.
func (d DestStrategy) String() string {
	switch d {
	case DestRandom:
		return "Random"
	case DestLBF:
		return "LBF"
	case DestWeighted:
		return "Weighted"
	default:
		return fmt.Sprintf("DestStrategy(%d)", int(d))
	}
}

// ParseDestStrategy parses "random", "lbf" or "weighted".
func ParseDestStrategy(s string) (DestStrategy, error) {
	switch s {
	case "random", "Random":
		return DestRandom, nil
	case "lbf", "LBF":
		return DestLBF, nil
	case "weighted", "Weighted":
		return DestWeighted, nil
	}
	return 0, fmt.Errorf("replication: unknown destination strategy %q", s)
}

// Scratch is Order's working memory. A caller that keeps one between calls
// pays for it once: Order allocates only to grow it. The zero value is
// ready to use; one Scratch serves one call at a time.
type Scratch struct {
	idx   []int
	caps  []float64
	order []ids.RMID
}

// Order returns the order in which candidate destinations should be tried.
// A destination may reject the offer, so the source walks the returned list
// until enough copies are accepted. Sampling is without replacement:
//
//   - DestRandom: a uniform shuffle.
//   - DestLBF: candidates sorted by capacity descending, equal capacities
//     shuffled (the paper's "randomly select one of RM1 and RM9").
//   - DestWeighted: successive draws with probability proportional to
//     capacity.
//
// Candidates are ids, not registration records: capacity is asked once per
// candidate by the two strategies that read it, and never by DestRandom.
// The result lives in sc and is valid until sc's next Order. What is drawn
// from src depends only on d, len(candidates) and the capacities — the
// RNG-stream rule (DESIGN §6) holds every caller to that.
func (d DestStrategy) Order(candidates []ids.RMID, capacity func(ids.RMID) units.BytesPerSec, src *rng.Source, sc *Scratch) []ids.RMID {
	n := len(candidates)
	sc.idx, sc.caps, sc.order = resize(sc.idx, n), resize(sc.caps, n), resize(sc.order, n)
	idx, caps, out := sc.idx, sc.caps, sc.order
	if d != DestRandom {
		for i, id := range candidates {
			caps[i] = float64(capacity(id))
		}
	}
	switch d {
	case DestRandom, DestLBF:
		src.PermInto(idx) // for LBF, the random tie-break baseline
		if d == DestLBF {
			slices.SortStableFunc(idx, func(a, b int) int { return cmp.Compare(caps[b], caps[a]) })
		}
		for k, i := range idx {
			out[k] = candidates[i]
		}
	case DestWeighted:
		// out[:k] is drawn, out[k:] remains in candidate order beside its
		// weights caps[k:]; a pick moves to position k and the candidates
		// before it shift up one, which keeps the remainder in order.
		copy(out, candidates)
		for k := 0; k < n; k++ {
			total := 0.0
			for _, w := range caps[k:] {
				total += w
			}
			var pick int
			if total <= 0 {
				pick = src.Intn(n - k)
			} else {
				pick = src.WeightedChoice(caps[k:])
			}
			id, w := out[k+pick], caps[k+pick]
			copy(out[k+1:], out[k:k+pick])
			copy(caps[k+1:], caps[k:k+pick])
			out[k], caps[k] = id, w
		}
	default:
		panic(fmt.Sprintf("replication: unknown strategy %v", d))
	}
	return out
}

// resize returns s with length n, allocating only when n outgrows it.
func resize[T any](s []T, n int) []T { return slices.Grow(s[:0], n)[:n] }

// Config bundles the tunables of the dynamic replication mechanism, with
// the defaults fixed in the paper's evaluation (§VI-C).
type Config struct {
	Strategy Strategy
	// TriggerFrac is B_TH: replication triggers when an access request
	// arrives at an RM whose remaining-bandwidth fraction is below this.
	TriggerFrac float64
	// CooldownSec: an RM "has not processed data replication within 60
	// seconds" before it may act as a source again.
	CooldownSec float64
	// Speed is the replication transfer rate (paper: 1.8 Mbit/s).
	Speed units.BytesPerSec
	// BusyCoverage selects the busiest-file candidate set N_BF: the
	// smallest popularity prefix covering this fraction of the RM's
	// access count (paper: 50%).
	BusyCoverage float64
	// BRevFactor: B_REV = BRevFactor × bitrate(file) is the bandwidth a
	// destination must have free to accept a copy (paper: 2).
	BRevFactor float64
	// ReserveFactor is the paper's K: the source may start a replication
	// only when B_REV ≥ K × bitrate(file). With the paper's defaults
	// (B_REV = 2×bitrate, K = 2) the check is always satisfied; it is a
	// tunable for ablation studies.
	ReserveFactor float64
	// Dest selects the destination-selection strategy.
	Dest DestStrategy
	// ChargeTransfers, when true, charges the replication transfer rate
	// against the source and destination QoS bandwidth ledgers for the
	// duration of the copy. The paper instead sets B_REV aside as "the
	// available bandwidth for transferring the replicated data", i.e. the
	// copy rides a pre-reserved slice outside the allocatable pool, so
	// the default is false. Enable it for the ablation that quantifies
	// the cost of replication traffic.
	ChargeTransfers bool
}

// DefaultConfig returns the evaluation's fixed parameters with the given
// strategy and the Random destination selection ("the default strategy for
// all experiments").
func DefaultConfig(s Strategy) Config {
	return Config{
		Strategy:      s,
		TriggerFrac:   0.20,
		CooldownSec:   60,
		Speed:         units.Mbps(1.8),
		BusyCoverage:  0.50,
		BRevFactor:    2,
		ReserveFactor: 2,
		Dest:          DestRandom,
	}
}

// Validate reports the first problem with the config, or nil.
func (c Config) Validate() error {
	if err := c.Strategy.Validate(); err != nil {
		return err
	}
	if !c.Strategy.Enabled {
		return nil
	}
	switch {
	case c.TriggerFrac <= 0 || c.TriggerFrac >= 1:
		return fmt.Errorf("replication: TriggerFrac must be in (0,1), got %v", c.TriggerFrac)
	case c.CooldownSec < 0:
		return fmt.Errorf("replication: negative CooldownSec %v", c.CooldownSec)
	case c.Speed <= 0:
		return fmt.Errorf("replication: Speed must be positive, got %v", c.Speed)
	case c.BusyCoverage <= 0 || c.BusyCoverage > 1:
		return fmt.Errorf("replication: BusyCoverage must be in (0,1], got %v", c.BusyCoverage)
	case c.BRevFactor <= 0:
		return fmt.Errorf("replication: BRevFactor must be positive, got %v", c.BRevFactor)
	case c.ReserveFactor <= 0:
		return fmt.Errorf("replication: ReserveFactor must be positive, got %v", c.ReserveFactor)
	}
	return nil
}

// BRev returns B_REV for a file of the given bitrate.
func (c Config) BRev(bitrate units.BytesPerSec) units.BytesPerSec {
	return units.BytesPerSec(c.BRevFactor * float64(bitrate))
}

// SourceEligible applies the paper's source condition
// B_REV ≥ K × bitrate(file).
func (c Config) SourceEligible(bitrate units.BytesPerSec) bool {
	return float64(c.BRev(bitrate)) >= c.ReserveFactor*float64(bitrate)
}

// FileCount pairs a file with its observed request count on an RM.
type FileCount struct {
	File  ids.FileID
	Count int64
}

// BusiestCovering returns the N_BF candidate set: files sorted by request
// count descending (ties by ascending file ID for determinism), truncated
// to the smallest prefix whose counts sum to at least coverage × total.
// Files with zero count never enter the set. It reorders counts in place
// and appends the set to out[:0], so a caller that keeps both allocates
// nothing.
func BusiestCovering(counts []FileCount, coverage float64, out []ids.FileID) []ids.FileID {
	out = out[:0]
	if coverage <= 0 {
		return out
	}
	var total int64
	for _, fc := range counts {
		total += max(fc.Count, 0)
	}
	if total == 0 {
		return out
	}
	slices.SortFunc(counts, func(a, b FileCount) int {
		if a.Count != b.Count {
			return cmp.Compare(b.Count, a.Count)
		}
		return cmp.Compare(a.File, b.File)
	})
	target := coverage * float64(total)
	var acc int64
	for _, fc := range counts {
		if fc.Count <= 0 {
			break
		}
		out = append(out, fc.File)
		acc += fc.Count
		if float64(acc) >= target {
			break
		}
	}
	return out
}

// DestinationDecision applies the destination endpoint's three rejection
// rules (paper §V, "Where to replicate", destination endpoint). It is a
// pure predicate so both the sim RM and the live RM share it.
//
//	hasReplica:    rule 1 — the destination already has the requested replica.
//	remaining:     the destination's remaining bandwidth.
//	capacity:      the destination's total bandwidth.
//	bRev:          rule 2 — reject if remaining < B_REV (avoids
//	               nested replication).
//	triggerFrac:   rule 3 — reject if remaining < B_TH.
func DestinationDecision(hasReplica bool, remaining, capacity, bRev units.BytesPerSec, triggerFrac float64) bool {
	if hasReplica {
		return false
	}
	if float64(remaining) < float64(bRev) {
		return false
	}
	if float64(remaining) < triggerFrac*float64(capacity) {
		return false
	}
	return true
}
