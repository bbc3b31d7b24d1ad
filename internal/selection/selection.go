// Package selection implements the paper's resource-selection policies
// (§IV): every eligible RM answers a Call-For-Proposal with a bid, and the
// DFSC scores each bid as
//
//	Bid = α·B_rem + β·Trend − γ·(OccBias · B_req) − δ·(TenantShare · B_req)
//
// where B_rem is the RM's remaining bandwidth, Trend is the two-queue
// historical prediction term (see package history), OccBias =
// exp(−T_ocp_avg/T_ocp) ∈ (0,1) biases against RMs the requested file would
// occupy for long relative to the RM's average occupation time, and B_req is
// the bandwidth the request needs. Higher scores win. The weights are the
// policy triple (α,β,γ) with α ≥ β ≥ γ in the paper's experiments; (0,0,0)
// denotes uniform-random selection with no policy involved.
//
// The fourth, multi-tenant term extends the paper: TenantShare ∈ [0, ∞) is
// the requesting tenant's weight-normalised share of the bidder's capacity
// ((reserved/capacity)/weight, see tenant.Ledger.Share). With δ > 0 a
// tenant already holding much of an RM scores that RM down for its own next
// stream, steering the noisy tenant's streams onto each other's RMs while
// leaving quiet tenants' scores untouched — weighted fairness emerging from
// bid scoring rather than from a central queue. δ = 0 (the default and
// every canonical paper policy) reproduces the three-term formula exactly.
package selection

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"dfsqos/internal/ids"
	"dfsqos/internal/rng"
	"dfsqos/internal/units"
)

// Policy is the (α, β, γ) weight triple, optionally extended with the
// multi-tenant fairness weight δ (zero in every canonical paper policy).
type Policy struct {
	Alpha, Beta, Gamma float64
	// Delta weighs the tenant-share penalty: how strongly a tenant's
	// existing footprint on a bidder counts against that bidder for the
	// tenant's next stream. Zero disables the term.
	Delta float64
}

// Canonical policies evaluated in the paper.
var (
	Random   = Policy{Alpha: 0, Beta: 0, Gamma: 0}
	RemOnly  = Policy{Alpha: 1, Beta: 0, Gamma: 0}
	RemOcc   = Policy{Alpha: 1, Beta: 0, Gamma: 1}
	RemTrend = Policy{Alpha: 1, Beta: 1, Gamma: 0}
	Full     = Policy{Alpha: 1, Beta: 1, Gamma: 1}
)

// PaperPolicies returns the five policies of Tables I-IV in paper order.
func PaperPolicies() []Policy {
	return []Policy{Random, RemOnly, RemOcc, RemTrend, Full}
}

// IsRandom reports whether the policy is (0,0,0), i.e. "choosing the RM
// randomly without any selection policy being involved". A pure-fairness
// policy (0,0,0,δ) still scores, so it is not random.
func (p Policy) IsRandom() bool {
	return p.Alpha == 0 && p.Beta == 0 && p.Gamma == 0 && p.Delta == 0
}

// String renders the policy as the paper writes it, e.g. "(1,0,0)". A
// non-zero δ appends the fourth component: "(1,1,1,0.5)".
func (p Policy) String() string {
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	s := "(" + f(p.Alpha) + "," + f(p.Beta) + "," + f(p.Gamma)
	if p.Delta != 0 {
		s += "," + f(p.Delta)
	}
	return s + ")"
}

// ParsePolicy parses "(1,0,0)" or "1,0,0" into a Policy. A fourth
// component, when present, is the tenant-fairness weight δ.
func ParsePolicy(s string) (Policy, error) {
	t := strings.TrimSpace(s)
	t = strings.TrimPrefix(t, "(")
	t = strings.TrimSuffix(t, ")")
	parts := strings.Split(t, ",")
	if len(parts) != 3 && len(parts) != 4 {
		return Policy{}, fmt.Errorf("selection: policy %q must have three or four components", s)
	}
	var vals [4]float64
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return Policy{}, fmt.Errorf("selection: bad policy %q: %w", s, err)
		}
		if v < 0 {
			return Policy{}, fmt.Errorf("selection: policy %q has negative weight", s)
		}
		vals[i] = v
	}
	return Policy{Alpha: vals[0], Beta: vals[1], Gamma: vals[2], Delta: vals[3]}, nil
}

// Bid carries the factors an RM reports in response to a CFP, plus the
// request context needed for scoring.
type Bid struct {
	// RM is the bidder.
	RM ids.RMID
	// Rem is B_rem, the RM's remaining (unallocated) bandwidth. It can be
	// negative in the soft real-time scenario.
	Rem units.BytesPerSec
	// Trend is the two-queue historical prediction term (bytes/sec scale).
	Trend float64
	// OccBias is exp(−T_ocp_avg / T_ocp) for the requested file on this RM.
	OccBias float64
	// Req is B_req, the bandwidth the request reserves (the file bitrate).
	Req units.BytesPerSec
	// HasReplica reports whether the bidder actually holds the file.
	// Under ECNP the matchmaker guarantees it; under plain-CNP broadcast
	// (no matchmaker) the requester must filter on it, mirroring the
	// refusal a CNP provider would send.
	HasReplica bool
	// Assured is the bandwidth floor the bidder can still guarantee from
	// nominal capacity: max(0, Rem). A winning stream admitted within
	// Assured gets a sustainable reservation; beyond it the stream rides
	// the oversubscribed headroom.
	Assured units.BytesPerSec
	// Ceil is the bidder's remaining admission headroom under its
	// oversubscription ratio (capacity×oversub − allocated). An
	// oversubscription-aware requester can admit up to Ceil while the
	// enforcement tree still guarantees previously-admitted floors. Zero
	// means the bidder did not advertise a ratio (legacy bid).
	Ceil units.BytesPerSec
	// TenantShare is the requesting tenant's weight-normalised share of
	// the bidder's capacity, (reserved/capacity)/weight, reported by the
	// bidder's tenant ledger. Zero for untenanted requests or bidders
	// without a ledger, so three-term policies score identically.
	TenantShare float64
}

// OccupationBias computes exp(−tOcpAvg/tOcp), the paper's occupation bias
// ratio scaled into (0, 1). tOcp is the occupation time of the requested
// file (its playback duration); tOcpAvg is the mean occupation time across
// files on the bidding RM. By convention a degenerate tOcp ≤ 0 yields 0
// (an instantaneous access cannot bias the RM), and tOcpAvg ≤ 0 (an RM with
// no files) yields 1.
func OccupationBias(tOcp, tOcpAvg float64) float64 {
	if tOcp <= 0 {
		return 0
	}
	if tOcpAvg <= 0 {
		return 1
	}
	return math.Exp(-tOcpAvg / tOcp)
}

// Score evaluates the bid under the policy. Higher is better.
func (p Policy) Score(b Bid) float64 {
	return p.Alpha*float64(b.Rem) + p.Beta*b.Trend -
		p.Gamma*(b.OccBias*float64(b.Req)) -
		p.Delta*(b.TenantShare*float64(b.Req))
}

// Rank returns the bids' RMs ordered from best to worst score under the
// policy (stable under equal scores: input order preserved). Used by the
// firm real-time scenario to try the next-best RM when the best cannot fit
// the reservation, and by diagnostics.
func Rank(p Policy, bids []Bid) []ids.RMID {
	return appendRank(make([]ids.RMID, 0, len(bids)), p, bids)
}

// appendRank appends the bids' RMs to dst in Rank order.
func appendRank(dst []ids.RMID, p Policy, bids []Bid) []ids.RMID {
	type scored struct {
		rm    ids.RMID
		score float64
		idx   int
	}
	// The working copy lives on the stack for any bid list a replica
	// degree produces; only a longer one is worth a heap slice.
	var stack [16]scored
	ss := stack[:0]
	if len(bids) > len(stack) {
		ss = make([]scored, 0, len(bids))
	}
	for i, b := range bids {
		ss = append(ss, scored{rm: b.RM, score: p.Score(b), idx: i})
	}
	// Insertion sort: bid lists are tiny (≤ replica degree).
	for i := 1; i < len(ss); i++ {
		for j := i; j > 0; j-- {
			if ss[j].score > ss[j-1].score ||
				(ss[j].score == ss[j-1].score && ss[j].idx < ss[j-1].idx) {
				ss[j], ss[j-1] = ss[j-1], ss[j]
			} else {
				break
			}
		}
	}
	dst = slices.Grow(dst, len(ss))
	for _, s := range ss {
		dst = append(dst, s.rm)
	}
	return dst
}

// shuffleStream names the streams the random policy's shuffles draw from.
var shuffleStream = rng.NameOf("selection/shuffle")

// TopK appends up to k bidders to dst in admission order and returns the
// extended slice: the Rank order for a scored policy, a uniform shuffle
// of the full bid list for the random policy (so a short list is still an
// unbiased sample, not a prefix of input order). Fewer than k bids appends
// them all — the striped reader admits what exists and degrades its
// width. k ≤ 0 appends nothing. The shuffle draws from the child of src
// keyed by key, the request's ID, so one request's draws move no other's
// and src is only read; a scored policy derives no child.
func TopK(dst []ids.RMID, p Policy, bids []Bid, k int, src *rng.Source, key uint64) []ids.RMID {
	if k <= 0 || len(bids) == 0 {
		return dst
	}
	n := len(dst)
	if p.IsRandom() {
		dst = slices.Grow(dst, len(bids))
		for _, b := range bids {
			dst = append(dst, b.RM)
		}
		order := dst[n:]
		var shuffle rng.Source
		src.SplitInto(&shuffle, shuffleStream.AddUint64(key))
		shuffle.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	} else {
		dst = appendRank(dst, p, bids)
	}
	return dst[:n+min(k, len(bids))]
}
