package replication

import (
	"testing"
	"testing/quick"

	"dfsqos/internal/ecnp"
	"dfsqos/internal/ids"
	"dfsqos/internal/rng"
	"dfsqos/internal/units"
)

func TestStrategyString(t *testing.T) {
	if Static().String() != "static" {
		t.Errorf("static renders %q", Static().String())
	}
	if Rep(1, 3).String() != "Rep(1,3)" {
		t.Errorf("Rep(1,3) renders %q", Rep(1, 3).String())
	}
	if Baseline().String() != "Rep(3,8)" {
		t.Errorf("baseline renders %q", Baseline().String())
	}
}

func TestStrategyValidate(t *testing.T) {
	if err := Static().Validate(); err != nil {
		t.Error(err)
	}
	if err := Rep(0, 8).Validate(); err == nil {
		t.Error("NRep=0 accepted")
	}
	if err := Rep(1, 0).Validate(); err == nil {
		t.Error("NMaxR=0 accepted")
	}
}

func TestPlanPaperRule(t *testing.T) {
	cases := []struct {
		strat      Strategy
		nCur       int
		wantActual int
		wantMig    bool
	}{
		// Rep(1,3) at the bound: pure migration (copy 1, delete own).
		{Rep(1, 3), 3, 1, true},
		// Rep(1,8) growing below the bound.
		{Rep(1, 8), 3, 1, false},
		{Rep(1, 8), 7, 1, false},
		// Rep(1,8) at the bound migrates.
		{Rep(1, 8), 8, 1, true},
		// Baseline Rep(3,8): grows by 3 until it would exceed the bound.
		{Rep(3, 8), 3, 3, false},
		{Rep(3, 8), 5, 3, false},
		{Rep(3, 8), 6, 3, true}, // 6+3>8 → actual = 8-(6-1) = 3
		{Rep(3, 8), 8, 1, true}, // 8+3>8 → actual = 8-7 = 1
		// "at the very least be processed one time".
		{Rep(1, 1), 1, 1, true},
	}
	for _, c := range cases {
		actual, mig := c.strat.Plan(c.nCur)
		if actual != c.wantActual || mig != c.wantMig {
			t.Errorf("%v.Plan(%d) = (%d, %v), want (%d, %v)",
				c.strat, c.nCur, actual, mig, c.wantActual, c.wantMig)
		}
	}
	if actual, mig := Static().Plan(3); actual != 0 || mig {
		t.Error("static plan should be (0, false)")
	}
}

func TestPlanPanicsOnBadCount(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Plan(0) did not panic")
		}
	}()
	Rep(1, 3).Plan(0)
}

func TestDestStrategyParseAndString(t *testing.T) {
	for _, d := range []DestStrategy{DestRandom, DestLBF, DestWeighted} {
		got, err := ParseDestStrategy(d.String())
		if err != nil || got != d {
			t.Errorf("round trip %v failed: (%v, %v)", d, got, err)
		}
	}
	if _, err := ParseDestStrategy("nearest"); err == nil {
		t.Error("unknown strategy accepted")
	}
}

func candidates() []ecnp.RMInfo {
	return []ecnp.RMInfo{
		{ID: 1, Capacity: units.Mbps(128)},
		{ID: 2, Capacity: units.Mbps(19)},
		{ID: 3, Capacity: units.Mbps(18)},
		{ID: 4, Capacity: units.Mbps(128)},
		{ID: 5, Capacity: units.Mbps(18)},
	}
}

// orderOf runs d.Order over registration records the way the RM does: ids
// in, capacities through a lookup, a Scratch of its own.
func orderOf(d DestStrategy, infos []ecnp.RMInfo, src *rng.Source) []ids.RMID {
	cands := make([]ids.RMID, len(infos))
	caps := make(map[ids.RMID]units.BytesPerSec, len(infos))
	for i, info := range infos {
		cands[i], caps[info.ID] = info.ID, info.Capacity
	}
	return d.Order(cands, func(id ids.RMID) units.BytesPerSec { return caps[id] }, src, new(Scratch))
}

func TestOrderIsPermutation(t *testing.T) {
	src := rng.New(1)
	for _, d := range []DestStrategy{DestRandom, DestLBF, DestWeighted} {
		order := orderOf(d, candidates(), src)
		if len(order) != 5 {
			t.Fatalf("%v: order len %d", d, len(order))
		}
		seen := map[ids.RMID]bool{}
		for _, id := range order {
			if seen[id] {
				t.Fatalf("%v: duplicate %v in order", d, id)
			}
			seen[id] = true
		}
	}
}

func TestLBFPutsLargestFirst(t *testing.T) {
	src := rng.New(2)
	firsts := map[ids.RMID]int{}
	for i := 0; i < 200; i++ {
		order := orderOf(DestLBF, candidates(), src)
		// The two 128 Mbps RMs (1 and 4) must occupy the first two slots.
		if !((order[0] == 1 && order[1] == 4) || (order[0] == 4 && order[1] == 1)) {
			t.Fatalf("LBF order starts %v, want the large RMs first", order[:2])
		}
		firsts[order[0]]++
	}
	// "randomly select one of RM1 and RM9": ties must alternate.
	if firsts[1] < 40 || firsts[4] < 40 {
		t.Fatalf("LBF tie-break not random: %v", firsts)
	}
}

func TestWeightedFavorsLargeRMs(t *testing.T) {
	src := rng.New(3)
	firsts := map[ids.RMID]int{}
	const draws = 2000
	for i := 0; i < draws; i++ {
		order := orderOf(DestWeighted, candidates(), src)
		firsts[order[0]]++
	}
	// Large RMs have 128/311 ≈ 41% of the weight each.
	if firsts[1] < draws/4 || firsts[4] < draws/4 {
		t.Fatalf("weighted first-pick counts %v: large RMs under-selected", firsts)
	}
	if firsts[3] > draws/8 {
		t.Fatalf("weighted first-pick counts %v: small RM over-selected", firsts)
	}
}

func TestRandomOrderUniformFirstPick(t *testing.T) {
	src := rng.New(4)
	firsts := map[ids.RMID]int{}
	const draws = 5000
	for i := 0; i < draws; i++ {
		firsts[orderOf(DestRandom, candidates(), src)[0]]++
	}
	for id, n := range firsts {
		if n < draws/10 {
			t.Errorf("random order: %v picked first only %d times", id, n)
		}
	}
}

func TestDefaultConfigMatchesPaper(t *testing.T) {
	cfg := DefaultConfig(Rep(1, 3))
	if cfg.TriggerFrac != 0.20 {
		t.Errorf("B_TH = %v, want 0.20", cfg.TriggerFrac)
	}
	if cfg.CooldownSec != 60 {
		t.Errorf("cooldown = %v, want 60", cfg.CooldownSec)
	}
	if cfg.Speed != units.Mbps(1.8) {
		t.Errorf("speed = %v, want 1.8 Mbit/s", cfg.Speed)
	}
	if cfg.BusyCoverage != 0.50 {
		t.Errorf("busy coverage = %v, want 0.50", cfg.BusyCoverage)
	}
	if cfg.BRevFactor != 2 || cfg.ReserveFactor != 2 {
		t.Errorf("B_REV factors = (%v, %v), want (2, 2)", cfg.BRevFactor, cfg.ReserveFactor)
	}
	if cfg.Dest != DestRandom {
		t.Errorf("default destination = %v, want Random", cfg.Dest)
	}
	if err := cfg.Validate(); err != nil {
		t.Error(err)
	}
	if cfg.ChargeTransfers {
		t.Error("transfers charged by default; B_REV is a reserve")
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.TriggerFrac = 0 },
		func(c *Config) { c.TriggerFrac = 1 },
		func(c *Config) { c.CooldownSec = -1 },
		func(c *Config) { c.Speed = 0 },
		func(c *Config) { c.BusyCoverage = 0 },
		func(c *Config) { c.BusyCoverage = 1.5 },
		func(c *Config) { c.BRevFactor = 0 },
		func(c *Config) { c.ReserveFactor = 0 },
	}
	for i, mutate := range bad {
		cfg := DefaultConfig(Rep(1, 3))
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	// Disabled strategy skips the parameter checks.
	cfg := Config{Strategy: Static()}
	if err := cfg.Validate(); err != nil {
		t.Errorf("static config rejected: %v", err)
	}
}

func TestBRevAndSourceEligible(t *testing.T) {
	cfg := DefaultConfig(Rep(1, 3))
	if got := cfg.BRev(units.Mbps(2)); got != units.Mbps(4) {
		t.Fatalf("BRev = %v, want 4 Mbps", got)
	}
	if !cfg.SourceEligible(units.Mbps(2)) {
		t.Fatal("paper defaults must make every source eligible")
	}
	cfg.ReserveFactor = 3 // K > BRevFactor: never eligible
	if cfg.SourceEligible(units.Mbps(2)) {
		t.Fatal("K=3 with B_REV=2×bitrate should be ineligible")
	}
}

func TestBusiestCovering(t *testing.T) {
	counts := []FileCount{
		{File: 1, Count: 50},
		{File: 2, Count: 30},
		{File: 3, Count: 15},
		{File: 4, Count: 5},
		{File: 5, Count: 0},
	}
	// 50% of 100 = 50 → file 1 alone covers it.
	got := BusiestCovering(counts, 0.5, nil)
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("BusiestCovering(0.5) = %v, want [1]", got)
	}
	// 80% needs files 1+2.
	got = BusiestCovering(counts, 0.8, nil)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("BusiestCovering(0.8) = %v, want [1 2]", got)
	}
	// Full coverage never includes zero-count files.
	got = BusiestCovering(counts, 1.0, nil)
	if len(got) != 4 {
		t.Fatalf("BusiestCovering(1.0) = %v, want the 4 nonzero files", got)
	}
	if len(BusiestCovering(nil, 0.5, nil)) != 0 {
		t.Fatal("empty counts should give empty set")
	}
	if len(BusiestCovering(counts, 0, nil)) != 0 {
		t.Fatal("zero coverage should give empty set")
	}
}

func TestBusiestCoveringTieBreak(t *testing.T) {
	counts := []FileCount{{File: 9, Count: 10}, {File: 3, Count: 10}}
	got := BusiestCovering(counts, 1.0, nil)
	if got[0] != 3 || got[1] != 9 {
		t.Fatalf("tie-break order = %v, want ascending file ids", got)
	}
}

func TestDestinationDecision(t *testing.T) {
	capacity := units.Mbps(18)
	bRev := units.Mbps(4)
	cases := []struct {
		name       string
		hasReplica bool
		remaining  units.BytesPerSec
		want       bool
	}{
		{"healthy", false, units.Mbps(10), true},
		{"has replica", true, units.Mbps(10), false},
		{"below B_REV", false, units.Mbps(3.9), false},
		{"below B_TH", false, units.Mbps(3.5), false},
		{"exactly at limits", false, units.Mbps(4), true},
	}
	for _, c := range cases {
		got := DestinationDecision(c.hasReplica, c.remaining, capacity, bRev, 0.20)
		if got != c.want {
			t.Errorf("%s: decision = %v, want %v", c.name, got, c.want)
		}
	}
}

// Property: Plan never plans past the bound by more than the one-migration
// allowance, and always plans at least one copy for enabled strategies.
func TestPlanBoundsProperty(t *testing.T) {
	f := func(nRepRaw, nMaxRaw, nCurRaw uint8) bool {
		nRep := int(nRepRaw%5) + 1
		nMax := int(nMaxRaw%10) + 1
		nCur := int(nCurRaw%10) + 1
		s := Rep(nRep, nMax)
		actual, migrate := s.Plan(nCur)
		if actual < 1 {
			return false
		}
		after := nCur + actual
		if migrate {
			after-- // source deletes its own replica
		}
		// After the operation the count may exceed the bound only via the
		// "at least once" guarantee when nCur already exceeds it.
		return after <= nMax || nCur > nMax
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Order returns a permutation of the candidate IDs under every
// strategy, for random candidate sets.
func TestOrderPermutationProperty(t *testing.T) {
	f := func(seed uint64, n uint8, caps []uint16) bool {
		count := int(n%8) + 1
		cands := make([]ecnp.RMInfo, count)
		for i := range cands {
			capMbps := 1.0
			if i < len(caps) {
				capMbps = float64(caps[i]%200) + 1
			}
			cands[i] = ecnp.RMInfo{ID: ids.RMID(i + 1), Capacity: units.Mbps(capMbps)}
		}
		src := rng.New(seed)
		for _, d := range []DestStrategy{DestRandom, DestLBF, DestWeighted} {
			order := orderOf(d, cands, src)
			if len(order) != count {
				return false
			}
			seen := map[ids.RMID]bool{}
			for _, id := range order {
				if id < 1 || int(id) > count || seen[id] {
					return false
				}
				seen[id] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
