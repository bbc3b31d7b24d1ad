package replication

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"testing"

	"dfsqos/internal/ecnp"
	"dfsqos/internal/ids"
	"dfsqos/internal/rng"
	"dfsqos/internal/testenv"
	"dfsqos/internal/units"
)

// The bodies Order and BusiestCovering had while Order took registration
// records and both allocated their working memory. They stay here as the
// reference models: the RNG-stream rule (DESIGN §6) says the rewrite may
// change what an attempt costs and nothing it draws or returns.

func refOrder(d DestStrategy, candidates []ecnp.RMInfo, src *rng.Source) []ids.RMID {
	n := len(candidates)
	out := make([]ids.RMID, 0, n)
	switch d {
	case DestRandom:
		perm := src.PermInto(make([]int, n))
		for _, i := range perm {
			out = append(out, candidates[i].ID)
		}
	case DestLBF:
		idx := src.PermInto(make([]int, n)) // random tie-break baseline
		sort.SliceStable(idx, func(a, b int) bool {
			return candidates[idx[a]].Capacity > candidates[idx[b]].Capacity
		})
		for _, i := range idx {
			out = append(out, candidates[i].ID)
		}
	case DestWeighted:
		remaining := make([]ecnp.RMInfo, n)
		copy(remaining, candidates)
		for len(remaining) > 0 {
			weights := make([]float64, len(remaining))
			total := 0.0
			for i, c := range remaining {
				weights[i] = float64(c.Capacity)
				total += weights[i]
			}
			var pick int
			if total <= 0 {
				pick = src.Intn(len(remaining))
			} else {
				pick = src.WeightedChoice(weights)
			}
			out = append(out, remaining[pick].ID)
			remaining = append(remaining[:pick], remaining[pick+1:]...)
		}
	}
	return out
}

func refBusiestCovering(counts []FileCount, coverage float64) []ids.FileID {
	if coverage <= 0 {
		return nil
	}
	sorted := make([]FileCount, 0, len(counts))
	var total int64
	for _, fc := range counts {
		if fc.Count > 0 {
			sorted = append(sorted, fc)
			total += fc.Count
		}
	}
	if total == 0 {
		return nil
	}
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Count != sorted[j].Count {
			return sorted[i].Count > sorted[j].Count
		}
		return sorted[i].File < sorted[j].File
	})
	target := coverage * float64(total)
	var acc int64
	out := make([]ids.FileID, 0, len(sorted))
	for _, fc := range sorted {
		out = append(out, fc.File)
		acc += fc.Count
		if float64(acc) >= target {
			break
		}
	}
	return out
}

// sortedBusiestCovering is the BusiestCovering that sorted every count
// on every attempt, before it learned to select a short covering prefix.
func sortedBusiestCovering(counts []FileCount, coverage float64, out []ids.FileID) []ids.FileID {
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

// capacityShapes are the candidate sets' capacity profiles: what LBF's
// tie-break and Weighted's two draw paths each depend on.
var capacityShapes = []struct {
	name string
	of   func(i int, src *rng.Source) units.BytesPerSec
}{
	{"equal", func(int, *rng.Source) units.BytesPerSec { return units.Mbps(100) }},
	{"distinct", func(i int, _ *rng.Source) units.BytesPerSec { return units.Mbps(float64(1 + i)) }},
	{"few-classes", func(_ int, src *rng.Source) units.BytesPerSec { return units.Mbps(float64(18 + 55*src.Intn(3))) }},
	{"some-zero", func(_ int, src *rng.Source) units.BytesPerSec { return units.Mbps(float64(10 * src.Intn(3))) }},
	{"zero-total", func(int, *rng.Source) units.BytesPerSec { return 0 }},
}

// TestOrderMatchesRecordForm: for every strategy, candidate count and
// capacity shape, over 100 seeds, Order returns what the record-taking form
// returned and leaves the source where that form left it. One Scratch
// serves every call, in whatever sizes come, as the RM's does.
func TestOrderMatchesRecordForm(t *testing.T) {
	var sc Scratch
	for _, d := range []DestStrategy{DestRandom, DestLBF, DestWeighted} {
		for _, shape := range capacityShapes {
			for _, n := range []int{0, 1, 2, 247} {
				t.Run(fmt.Sprintf("%v/%s/n%d", d, shape.name, n), func(t *testing.T) {
					for seed := uint64(0); seed < 100; seed++ {
						gen := rng.New(seed ^ 0xfeed)
						infos := make([]ecnp.RMInfo, n)
						cands := make([]ids.RMID, n)
						caps := make(map[ids.RMID]units.BytesPerSec, n)
						for i, p := range gen.PermInto(make([]int, n)) { // ids in no particular order
							id := ids.RMID(1 + 3*p)
							infos[i] = ecnp.RMInfo{ID: id, Capacity: shape.of(i, gen)}
							cands[i], caps[id] = id, infos[i].Capacity
						}
						lookups := 0
						capacity := func(id ids.RMID) units.BytesPerSec { lookups++; return caps[id] }

						refSrc, src := rng.New(seed), rng.New(seed)
						want := refOrder(d, infos, refSrc)
						got := d.Order(cands, capacity, src, &sc)
						if !slices.Equal(got, want) {
							t.Fatalf("seed %d: order %v, record form gave %v", seed, got, want)
						}
						if g, w := src.Uint64(), refSrc.Uint64(); g != w {
							t.Fatalf("seed %d: source left in another state (next word %#x, record form %#x)", seed, g, w)
						}
						if d == DestRandom && lookups != 0 {
							t.Fatalf("DestRandom resolved %d capacities; it reads none", lookups)
						}
						if d != DestRandom && lookups != n {
							t.Fatalf("%v resolved %d capacities for %d candidates, want one each", d, lookups, n)
						}
						for i, info := range infos {
							if cands[i] != info.ID {
								t.Fatalf("seed %d: Order reordered its candidates", seed)
							}
						}
					}
				})
			}
		}
	}
}

func TestOrderWarmScratchAllocatesNothing(t *testing.T) {
	cands := make([]ids.RMID, 247)
	for i := range cands {
		cands[i] = ids.RMID(i + 1)
	}
	capacity := func(id ids.RMID) units.BytesPerSec { return units.Mbps(float64(18 + id%3)) }
	src := rng.New(9)
	var sc Scratch
	for _, d := range []DestStrategy{DestRandom, DestLBF, DestWeighted} {
		d.Order(cands, capacity, src, &sc)
		if a := testing.AllocsPerRun(20, func() { d.Order(cands, capacity, src, &sc) }); a != 0 {
			t.Errorf("%v: %v allocs per Order on a warm Scratch, want 0", d, a)
		}
	}
}

// TestBusiestCoveringInPlaceMatchesCopying leans on count ties, where only
// the file-id tie-break makes the order total — an in-place unstable sort
// must still land on the one order the copying version produced.
func TestBusiestCoveringInPlaceMatchesCopying(t *testing.T) {
	var out []ids.FileID
	for seed := uint64(0); seed < 200; seed++ {
		gen := rng.New(seed)
		n := gen.Intn(60)
		counts := make([]FileCount, n)
		for i, p := range gen.PermInto(make([]int, n)) {
			counts[i] = FileCount{File: ids.FileID(p), Count: int64(gen.Intn(4))} // 0..3: mostly ties, some zero
		}
		for _, coverage := range []float64{0, 0.01, 0.5, 0.8, 1} {
			want := refBusiestCovering(slices.Clone(counts), coverage)
			out = BusiestCovering(slices.Clone(counts), coverage, out)
			if !slices.Equal(out, want) {
				t.Fatalf("seed %d coverage %v: in place %v, copying %v", seed, coverage, out, want)
			}
		}
	}
}

// countShapes are request-count vectors BusiestCovering meets or must
// survive: ties only the file id breaks, zero and negative counts, flat
// vectors, one hot file over a cold tail, and heavy tails whose covering
// prefix runs from one file to past the selection limit.
var countShapes = []struct {
	name string
	of   func(i int, src *rng.Source) int64
}{
	{"ties", func(_ int, src *rng.Source) int64 { return int64(src.Intn(4)) }},
	{"signed", func(_ int, src *rng.Source) int64 { return int64(src.Intn(7)) - 3 }},
	{"flat", func(int, *rng.Source) int64 { return 5 }},
	{"one-hot", func(i int, src *rng.Source) int64 {
		if i == 0 {
			return 1 << 20
		}
		return int64(src.Intn(3))
	}},
	{"heavy-tail", func(_ int, src *rng.Source) int64 { return int64(src.Intn(1 << src.Intn(20))) }},
}

// TestBusiestCoveringMatchesSortedForm: over seeded count vectors of every
// shape, lengths 0 to 4 000 and coverages from 1e-9 to 1, BusiestCovering
// returns what the sort-every-count form returned, and allocates nothing
// into buffers that have grown (counted without -race only).
func TestBusiestCoveringMatchesSortedForm(t *testing.T) {
	const maxLen = 4000
	work := make([]FileCount, maxLen)
	out := make([]ids.FileID, 0, maxLen)
	for _, shape := range countShapes {
		for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 9, 64, 1000, maxLen} {
			for seed := uint64(0); seed < 8; seed++ {
				gen := rng.New(seed ^ uint64(n)<<8)
				counts := make([]FileCount, n)
				for i, p := range gen.PermInto(make([]int, n)) { // files in no particular order
					counts[i] = FileCount{File: ids.FileID(p), Count: shape.of(i, gen)}
				}
				for _, coverage := range []float64{1e-9, 0.5, 0.8, 1} {
					want := sortedBusiestCovering(slices.Clone(counts), coverage, nil)
					allocs := testing.AllocsPerRun(1, func() {
						copy(work, counts)
						out = BusiestCovering(work[:n], coverage, out)
					})
					if !slices.Equal(out, want) {
						t.Fatalf("%s n=%d seed %d coverage %v: %v, sorted form %v", shape.name, n, seed, coverage, out, want)
					}
					if allocs != 0 && !testenv.RaceEnabled {
						t.Fatalf("%s n=%d seed %d coverage %v: %v allocs, want 0", shape.name, n, seed, coverage, allocs)
					}
				}
			}
		}
	}
}
