package selection

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"dfsqos/internal/ids"
	"dfsqos/internal/rng"
	"dfsqos/internal/units"
)

func TestPolicyString(t *testing.T) {
	cases := []struct {
		p    Policy
		want string
	}{
		{Random, "(0,0,0)"},
		{RemOnly, "(1,0,0)"},
		{Full, "(1,1,1)"},
		{Policy{Alpha: 0.5, Beta: 0.25}, "(0.5,0.25,0)"},
		{Policy{Alpha: 1, Beta: 1, Gamma: 1, Delta: 0.5}, "(1,1,1,0.5)"},
	}
	for _, c := range cases {
		if got := c.p.String(); got != c.want {
			t.Errorf("%+v.String() = %q, want %q", c.p, got, c.want)
		}
	}
}

func TestParsePolicy(t *testing.T) {
	cases := []struct {
		in   string
		want Policy
	}{
		{"(1,0,0)", RemOnly},
		{"1,1,1", Full},
		{" ( 0 , 0 , 0 ) ", Random},
		{"(0.5,0.2,0.1)", Policy{Alpha: 0.5, Beta: 0.2, Gamma: 0.1}},
		{"(1,0,0,0)", RemOnly},
		{"(1,1,1,2)", Policy{Alpha: 1, Beta: 1, Gamma: 1, Delta: 2}},
		{"1,1,1,0.5", Policy{Alpha: 1, Beta: 1, Gamma: 1, Delta: 0.5}},
	}
	for _, c := range cases {
		got, err := ParsePolicy(c.in)
		if err != nil {
			t.Errorf("ParsePolicy(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParsePolicy(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	for _, in := range []string{"", "(1,0)", "(1,0,0,0,0)", "(a,0,0)", "(-1,0,0)", "(1,0,0,-1)", "(1,0,0,x)"} {
		if _, err := ParsePolicy(in); err == nil {
			t.Errorf("ParsePolicy(%q): expected error", in)
		}
	}
}

func TestPolicyRoundTrip(t *testing.T) {
	for _, p := range PaperPolicies() {
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Errorf("round trip %v -> %v (%v)", p, got, err)
		}
	}
}

func TestIsRandom(t *testing.T) {
	if !Random.IsRandom() {
		t.Error("(0,0,0) not detected as random")
	}
	if RemOnly.IsRandom() {
		t.Error("(1,0,0) detected as random")
	}
	// A pure-fairness policy still scores bids, so it is not random.
	if (Policy{Delta: 1}).IsRandom() {
		t.Error("(0,0,0,1) detected as random")
	}
}

func TestOccupationBias(t *testing.T) {
	// T_ocp == T_ocp_avg → e^-1.
	if got := OccupationBias(100, 100); math.Abs(got-math.Exp(-1)) > 1e-12 {
		t.Fatalf("bias(100,100) = %v, want e^-1", got)
	}
	// Longer-than-average file → bias closer to 1 (larger penalty term).
	long := OccupationBias(1000, 100)
	short := OccupationBias(10, 100)
	if !(long > OccupationBias(100, 100) && OccupationBias(100, 100) > short) {
		t.Fatalf("bias ordering wrong: long=%v mid=%v short=%v", long, OccupationBias(100, 100), short)
	}
	// Range [0,1]: mathematically (0,1) but exp may underflow to 0 for
	// extreme ratios, which is harmless for scoring.
	for _, pair := range [][2]float64{{1, 1}, {5, 500}, {500, 5}, {0.1, 999}} {
		b := OccupationBias(pair[0], pair[1])
		if b < 0 || b > 1 {
			t.Fatalf("bias(%v,%v) = %v outside [0,1]", pair[0], pair[1], b)
		}
	}
	if OccupationBias(0, 100) != 0 {
		t.Error("degenerate tOcp should give 0")
	}
	if OccupationBias(100, 0) != 1 {
		t.Error("empty RM should give bias 1")
	}
}

func TestScoreComposition(t *testing.T) {
	b := Bid{RM: 1, Rem: 100, Trend: 40, OccBias: 0.5, Req: 10}
	if got := RemOnly.Score(b); got != 100 {
		t.Fatalf("(1,0,0) score = %v, want 100", got)
	}
	if got := RemTrend.Score(b); got != 140 {
		t.Fatalf("(1,1,0) score = %v, want 140", got)
	}
	if got := RemOcc.Score(b); got != 95 {
		t.Fatalf("(1,0,1) score = %v, want 95", got)
	}
	if got := Full.Score(b); got != 135 {
		t.Fatalf("(1,1,1) score = %v, want 135", got)
	}
	if got := Random.Score(b); got != 0 {
		t.Fatalf("(0,0,0) score = %v, want 0", got)
	}
}

// TestScoreTenantShare pins the δ term: a tenant's existing share of the
// bidder scales a penalty proportional to the requested bandwidth, and
// δ = 0 policies ignore the share entirely.
func TestScoreTenantShare(t *testing.T) {
	fair := Policy{Alpha: 1, Delta: 2}
	b := Bid{RM: 1, Rem: 100, Req: 10, TenantShare: 0.5}
	if got := fair.Score(b); got != 100-2*0.5*10 {
		t.Fatalf("(1,0,0,2) score = %v, want 90", got)
	}
	if got := RemOnly.Score(b); got != 100 {
		t.Fatalf("δ=0 policy must ignore TenantShare, score = %v", got)
	}
	// With equal Rem, the tenant's next stream must prefer the RM where
	// the tenant holds less.
	heavy := Bid{RM: 1, Rem: 100, Req: 10, TenantShare: 0.8}
	light := Bid{RM: 2, Rem: 100, Req: 10, TenantShare: 0.1}
	if fair.Score(light) <= fair.Score(heavy) {
		t.Fatalf("fairness term did not prefer the lighter RM: %v <= %v",
			fair.Score(light), fair.Score(heavy))
	}
	rm, ok := Select(fair, []Bid{heavy, light}, rng.New(3))
	if !ok || rm != 2 {
		t.Fatalf("Select under δ policy = (%v, %v), want RM2", rm, ok)
	}
}

func TestSelectEmpty(t *testing.T) {
	if rm, ok := Select(RemOnly, nil, rng.New(1)); ok || rm != ids.NoneRM {
		t.Fatalf("Select on empty bids = (%v, %v), want (NoneRM, false)", rm, ok)
	}
}

func TestSelectPicksHighestScore(t *testing.T) {
	bids := []Bid{
		{RM: 1, Rem: units.Mbps(2)},
		{RM: 2, Rem: units.Mbps(10)},
		{RM: 3, Rem: units.Mbps(5)},
	}
	src := rng.New(1)
	for i := 0; i < 50; i++ {
		rm, ok := Select(RemOnly, bids, src)
		if !ok || rm != 2 {
			t.Fatalf("Select = (%v, %v), want RM2", rm, ok)
		}
	}
}

func TestSelectRandomIsUniform(t *testing.T) {
	bids := []Bid{{RM: 1}, {RM: 2}, {RM: 3}, {RM: 4}}
	src := rng.New(5)
	counts := map[ids.RMID]int{}
	const draws = 40000
	for i := 0; i < draws; i++ {
		rm, _ := Select(Random, bids, src)
		counts[rm]++
	}
	want := float64(draws) / 4
	for rm, c := range counts {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Errorf("%v selected %d times, want ~%.0f", rm, c, want)
		}
	}
}

func TestSelectTieBreakIsUniform(t *testing.T) {
	bids := []Bid{
		{RM: 1, Rem: units.Mbps(5)},
		{RM: 2, Rem: units.Mbps(5)},
		{RM: 3, Rem: units.Mbps(1)},
	}
	src := rng.New(9)
	counts := map[ids.RMID]int{}
	const draws = 20000
	for i := 0; i < draws; i++ {
		rm, _ := Select(RemOnly, bids, src)
		counts[rm]++
	}
	if counts[3] != 0 {
		t.Fatalf("losing RM3 selected %d times", counts[3])
	}
	want := float64(draws) / 2
	for _, rm := range []ids.RMID{1, 2} {
		if math.Abs(float64(counts[rm])-want) > 6*math.Sqrt(want) {
			t.Errorf("%v selected %d times, want ~%.0f", rm, counts[rm], want)
		}
	}
}

func TestRankOrdersByScore(t *testing.T) {
	bids := []Bid{
		{RM: 1, Rem: units.Mbps(2)},
		{RM: 2, Rem: units.Mbps(10)},
		{RM: 3, Rem: units.Mbps(5)},
		{RM: 4, Rem: units.Mbps(5)}, // tie with RM3; input order preserved
	}
	got := Rank(RemOnly, bids)
	want := []ids.RMID{2, 3, 4, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Rank = %v, want %v", got, want)
		}
	}
}

func TestRankEmpty(t *testing.T) {
	if got := Rank(RemOnly, nil); len(got) != 0 {
		t.Fatalf("Rank(nil) = %v", got)
	}
}

// Property: under (1,0,0) the winner always has maximal remaining bandwidth.
func TestSelectMaxRemProperty(t *testing.T) {
	f := func(rems []uint16, seed uint64) bool {
		if len(rems) == 0 {
			return true
		}
		bids := make([]Bid, len(rems))
		maxRem := units.BytesPerSec(0)
		for i, r := range rems {
			bids[i] = Bid{RM: ids.RMID(i + 1), Rem: units.BytesPerSec(r)}
			if bids[i].Rem > maxRem {
				maxRem = bids[i].Rem
			}
		}
		rm, ok := Select(RemOnly, bids, rng.New(seed))
		if !ok {
			return false
		}
		return bids[rm-1].Rem == maxRem
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Rank is a permutation of the input RMs with non-increasing
// scores.
func TestRankPermutationProperty(t *testing.T) {
	f := func(rems []uint16, trends []int8) bool {
		n := len(rems)
		bids := make([]Bid, n)
		for i := range bids {
			tr := 0.0
			if i < len(trends) {
				tr = float64(trends[i])
			}
			bids[i] = Bid{RM: ids.RMID(i + 1), Rem: units.BytesPerSec(rems[i]), Trend: tr, OccBias: 0.5, Req: 10}
		}
		order := Rank(Full, bids)
		if len(order) != n {
			return false
		}
		seen := make(map[ids.RMID]bool)
		prev := math.Inf(1)
		for _, rm := range order {
			if seen[rm] {
				return false
			}
			seen[rm] = true
			s := Full.Score(bids[rm-1])
			if s > prev+1e-12 {
				return false
			}
			prev = s
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTopKScoredPrefix(t *testing.T) {
	bids := []Bid{
		{RM: 1, Rem: units.BytesPerSec(10)},
		{RM: 2, Rem: units.BytesPerSec(30)},
		{RM: 3, Rem: units.BytesPerSec(20)},
	}
	got := TopK(nil, RemOnly, bids, 2, rng.New(1), 0)
	if len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("TopK = %v, want [2 3] (Rank prefix)", got)
	}
	// k beyond the bid count returns everything in rank order.
	all := TopK(nil, RemOnly, bids, 10, rng.New(1), 0)
	if len(all) != 3 || all[0] != 2 || all[1] != 3 || all[2] != 1 {
		t.Fatalf("TopK over-wide = %v, want [2 3 1]", all)
	}
	// The bidders are appended after what dst holds.
	if got := TopK([]ids.RMID{9}, RemOnly, bids, 2, rng.New(1), 0); len(got) != 3 || got[0] != 9 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("TopK after [9] = %v, want [9 2 3]", got)
	}
	if TopK(nil, RemOnly, bids, 0, rng.New(1), 0) != nil {
		t.Fatal("TopK with k=0 must be nil")
	}
	if TopK(nil, RemOnly, nil, 3, rng.New(1), 0) != nil {
		t.Fatal("TopK with no bids must be nil")
	}
}

func TestTopKRandomIsUnbiasedSample(t *testing.T) {
	// Under the random policy the first slot of a k=1 TopK must be
	// uniform over all bidders, not biased toward input order, across
	// the requests that key it.
	bids := []Bid{{RM: 1}, {RM: 2}, {RM: 3}, {RM: 4}}
	src := rng.New(99)
	counts := map[ids.RMID]int{}
	const trials = 4000
	for i := 0; i < trials; i++ {
		got := TopK(nil, Random, bids, 1, src, uint64(i))
		if len(got) != 1 {
			t.Fatalf("TopK = %v, want one RM", got)
		}
		counts[got[0]]++
	}
	want := float64(trials) / float64(len(bids))
	for rm, n := range counts {
		if math.Abs(float64(n)-want) > want/2 {
			t.Errorf("RM %v drawn %d times, want ~%.0f", rm, n, want)
		}
	}
}

// TestTopKRandomKeyedByRequest: the random policy's order is a function
// of the parent stream and the request key alone. A request's order does
// not depend on the shuffles made before it, and src is never drawn from.
func TestTopKRandomKeyedByRequest(t *testing.T) {
	bids := make([]Bid, 16)
	for i := range bids {
		bids[i] = Bid{RM: ids.RMID(i + 1)}
	}
	src := rng.New(5)
	before := *src
	first := TopK(nil, Random, bids, len(bids), src, 42)
	for key := uint64(0); key < 8; key++ {
		TopK(nil, Random, bids, len(bids), src, key)
	}
	if again := TopK(nil, Random, bids, len(bids), src, 42); !slices.Equal(again, first) {
		t.Fatalf("request 42 ranked %v after other requests, %v before them", again, first)
	}
	if *src != before {
		t.Fatal("the random policy drew from the parent stream")
	}
	if other := TopK(nil, Random, bids, len(bids), src, 43); slices.Equal(other, first) {
		t.Fatalf("requests 42 and 43 ranked one order %v", first)
	}
}
