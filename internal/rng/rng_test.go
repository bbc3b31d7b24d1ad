package rng

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"dfsqos/internal/testenv"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 collide on %d of 100 draws", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	root := New(7)
	a := root.Split("arrivals")
	b := root.Split("placement")
	a2 := New(7).Split("arrivals")
	for i := 0; i < 100; i++ {
		if a.Uint64() != a2.Uint64() {
			t.Fatalf("same-named splits diverged at %d", i)
		}
	}
	// Different names must give different streams.
	c := New(7).Split("arrivals")
	d := New(7).Split("placement")
	_ = b
	same := 0
	for i := 0; i < 100; i++ {
		if c.Uint64() == d.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("splits 'arrivals' and 'placement' collide on %d of 100", same)
	}
}

func TestSplitDoesNotAdvanceParent(t *testing.T) {
	a := New(9)
	b := New(9)
	_ = a.Split("x")
	if a.s != b.s {
		t.Fatal("Split wrote the parent's state")
	}
	for i := 0; i < 10; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("Split advanced the parent stream")
		}
	}
}

// Split only reads its parent, so goroutines may split one parent at
// once (workload's parallel generator does) and get the children a
// sequential caller gets. Under -race this also shows the reads race
// with nothing.
func TestConcurrentSplitsMatchSequential(t *testing.T) {
	parent := New(11)
	before := parent.s
	const workers, perWorker = 4, 200
	name := func(w, i int) string { return fmt.Sprintf("user%d/arrivals", w*perWorker+i) }
	got := make([][perWorker]uint64, workers)
	var wg sync.WaitGroup
	for w := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range got[w] {
				got[w][i] = parent.Split(name(w, i)).Uint64()
			}
		}()
	}
	wg.Wait()
	if parent.s != before {
		t.Fatal("concurrent Splits wrote the parent's state")
	}
	for w := range got {
		for i, g := range got[w] {
			if want := parent.Split(name(w, i)).Uint64(); g != want {
				t.Fatalf("child %s drew %x concurrently, %x sequentially", name(w, i), g, want)
			}
		}
	}
}

// A name folded in two pieces, cut anywhere, names the stream Split
// derives for the whole: SplitInto over NameOf(s[:i]).Add(s[i:]) is
// *Split(s), also when it writes over its parent.
func TestSplitIntoFoldsAnyCut(t *testing.T) {
	parent := New(13)
	for _, s := range []string{"", "x", "workload/user", "workload/user12345/arrivals", "workload/burst3/surge7/files", "ünïcödé"} {
		want := *parent.Split(s)
		for i := 0; i <= len(s); i++ {
			var got Source
			parent.SplitInto(&got, NameOf(s[:i]).Add(s[i:]))
			if got != want {
				t.Fatalf("%q cut at %d: SplitInto over Add derived %v, Split %v", s, i, got.s, want.s)
			}
		}
		self := *parent
		self.SplitInto(&self, NameOf(s))
		if self != want {
			t.Fatalf("%q: SplitInto over its own parent derived %v, Split %v", s, self.s, want.s)
		}
	}
}

func TestCDFIndexAllocatesNothing(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	z := NewZipf(New(3), 4000, 1.1)
	u := New(4)
	if got := testing.AllocsPerRun(100, func() { z.cdf.Index(u.Float64()) }); got != 0 {
		t.Errorf("CDF.Index: %v allocs/op, want 0", got)
	}
	if got := testing.AllocsPerRun(100, func() { z.Draw() }); got != 0 {
		t.Errorf("Zipf.Draw: %v allocs/op, want 0", got)
	}
}

func TestNewCDFPanics(t *testing.T) {
	for _, cum := range [][]float64{nil, {0.5, 0.4, 1}, {math.NaN(), 1}, {0.5, math.NaN()}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewCDF(%v) did not panic", cum)
				}
			}()
			NewCDF(cum)
		}()
	}
}

// FuzzCDFIndex checks CDF.Index against sort.SearchFloat64s, clamped to
// the last rank, over a non-decreasing table that ends in 1: entry k is
// the running sum of the first k+1 input bytes over their total, so a
// zero byte repeats an entry, leading zeros give leading zero entries and
// a run of zeros a long equal run. The u probed are every entry, every
// guide bucket's edge j/2^b, the float neighbours of both, and one
// uniform draw.
func FuzzCDFIndex(f *testing.F) {
	f.Add([]byte{1}, uint64(0))
	f.Add([]byte{0, 0, 0, 1, 1, 0, 0, 5}, uint64(1)<<63)
	f.Add([]byte{1, 1, 1, 1, 1, 1, 1, 1}, uint64(12345))
	f.Add([]byte{255, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1}, uint64(99))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, uint64(7))
	f.Add([]byte{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3, 2, 3, 8, 4, 6, 2, 6, 4, 3, 3, 8, 3, 2, 7, 9, 5, 0, 2, 8, 8}, uint64(math.MaxUint64))
	f.Fuzz(func(t *testing.T, weights []byte, draw uint64) {
		if len(weights) == 0 {
			return
		}
		cum := make([]float64, len(weights))
		var total, sum int
		for _, w := range weights {
			total += int(w)
		}
		for k, w := range weights {
			sum += int(w)
			if total > 0 {
				cum[k] = float64(sum) / float64(total)
			}
		}
		cum[len(cum)-1] = 1
		c := NewCDF(cum)
		check := func(u float64) {
			if u < 0 {
				return
			}
			want := min(sort.SearchFloat64s(cum, u), len(cum)-1)
			if got := c.Index(u); got != want {
				t.Fatalf("table %v: Index(%v) = %d, want %d", cum, u, got, want)
			}
		}
		probe := func(u float64) {
			check(u)
			check(math.Nextafter(u, math.Inf(-1)))
			check(math.Nextafter(u, math.Inf(1)))
		}
		for _, v := range cum {
			probe(v)
		}
		for j := range len(c.guide) {
			probe(float64(j) / c.scale)
		}
		probe(float64(draw>>11) / (1 << 53))
	})
}

func TestFloat64Range(t *testing.T) {
	s := New(3)
	for i := 0; i < 10000; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestIntnBounds(t *testing.T) {
	s := New(5)
	for _, n := range []int{1, 2, 3, 7, 100} {
		for i := 0; i < 1000; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	s := New(11)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[s.Intn(n)]++
	}
	want := float64(draws) / n
	for k, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("Intn bucket %d: %d draws, want ~%.0f", k, c, want)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(13)
	p := s.PermInto(make([]int, 50))
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("Perm invalid at value %d", v)
		}
		seen[v] = true
	}
}

func TestExpMean(t *testing.T) {
	s := New(17)
	const mean, draws = 300.0, 200000
	sum := 0.0
	for i := 0; i < draws; i++ {
		v := s.Exp(mean)
		if v < 0 {
			t.Fatalf("Exp returned negative %v", v)
		}
		sum += v
	}
	got := sum / draws
	if math.Abs(got-mean) > 0.02*mean {
		t.Fatalf("Exp mean = %v, want ~%v", got, mean)
	}
}

func TestExpPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Exp(0) did not panic")
		}
	}()
	New(1).Exp(0)
}

func TestNormFloat64Moments(t *testing.T) {
	s := New(19)
	const draws = 200000
	sum, sumsq := 0.0, 0.0
	for i := 0; i < draws; i++ {
		v := s.NormFloat64()
		sum += v
		sumsq += v * v
	}
	mean := sum / draws
	variance := sumsq/draws - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestZipfProbabilitiesSumToOne(t *testing.T) {
	z := NewZipf(New(23), 1000, 0.9)
	sum := 0.0
	for k := 0; k < len(z.cdf.cum); k++ {
		sum += z.P(k)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("Zipf pmf sums to %v", sum)
	}
	if z.P(-1) != 0 || z.P(1000) != 0 {
		t.Fatal("out-of-range ranks should have zero mass")
	}
}

func TestZipfRankOrdering(t *testing.T) {
	z := NewZipf(New(29), 100, 1.0)
	for k := 1; k < len(z.cdf.cum); k++ {
		if z.P(k) > z.P(k-1)+1e-15 {
			t.Fatalf("Zipf pmf not non-increasing at rank %d", k)
		}
	}
}

func TestZipfEmpiricalMatchesPMF(t *testing.T) {
	src := New(31)
	z := NewZipf(src, 50, 0.8)
	const draws = 200000
	counts := make([]int, 50)
	for i := 0; i < draws; i++ {
		counts[z.Draw()]++
	}
	for k := 0; k < 10; k++ { // check the head where mass is significant
		want := z.P(k) * draws
		if math.Abs(float64(counts[k])-want) > 6*math.Sqrt(want) {
			t.Errorf("rank %d: %d draws, want ~%.0f", k, counts[k], want)
		}
	}
}

func TestZipfPanics(t *testing.T) {
	for _, c := range []struct {
		n    int
		skew float64
	}{{0, 1}, {10, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewZipf(%d, %v) did not panic", c.n, c.skew)
				}
			}()
			NewZipf(New(1), c.n, c.skew)
		}()
	}
}

func TestWeightedChoiceDistribution(t *testing.T) {
	s := New(37)
	weights := []float64{1, 2, 7}
	const draws = 100000
	counts := make([]int, 3)
	for i := 0; i < draws; i++ {
		counts[s.WeightedChoice(weights)]++
	}
	total := 10.0
	for i, w := range weights {
		want := w / total * draws
		if math.Abs(float64(counts[i])-want) > 6*math.Sqrt(want) {
			t.Errorf("choice %d: %d draws, want ~%.0f", i, counts[i], want)
		}
	}
}

func TestWeightedChoicePanics(t *testing.T) {
	cases := [][]float64{{}, {0, 0}, {-1, 2}}
	for _, ws := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("WeightedChoice(%v) did not panic", ws)
				}
			}()
			New(1).WeightedChoice(ws)
		}()
	}
}

// Property: Intn is always within bounds for arbitrary n and seeds.
func TestIntnBoundsProperty(t *testing.T) {
	f := func(seed uint64, n uint16) bool {
		m := int(n%1000) + 1
		s := New(seed)
		for i := 0; i < 20; i++ {
			v := s.Intn(m)
			if v < 0 || v >= m {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Exp never returns +Inf or a negative value.
func TestExpFiniteProperty(t *testing.T) {
	f := func(seed uint64) bool {
		s := New(seed)
		for i := 0; i < 100; i++ {
			if x := s.Exp(300); math.IsInf(x, 1) || x < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestExpRedrawsZero: a U of 0 is drawn again, so Exp returns a finite
// value and consumes the next word too. The state is set so that its next
// word has no bit above the eleven Float64 drops.
func TestExpRedrawsZero(t *testing.T) {
	for seed := uint64(0); seed < 5; seed++ {
		s := New(seed)
		s.s.s1 = 0 // output(s) = rotl(0*5, 7)*9 = 0
		if probe := *s; probe.Float64() != 0 {
			t.Fatalf("seed %d: the state does not give a zero word", seed)
		}
		exp, two := *s, *s
		x := exp.Exp(1)
		two.Uint64()
		u := two.Float64()
		if want := -math.Log(u); x != want || exp != two {
			t.Fatalf("seed %d: Exp over a zero word = %v, want %v from the next word", seed, x, want)
		}
	}
}

// AddUint64 folds v's bytes, least significant first, as Add folds a
// string of them, so an integer key names the stream that string would.
func TestAddUint64MatchesAdd(t *testing.T) {
	for _, v := range []uint64{0, 1, 0xff, 0x100, 1<<32 + 7, 0x0123456789abcdef, math.MaxUint64} {
		for _, prefix := range []string{"", "rm/attempt"} {
			le := binary.LittleEndian.AppendUint64(nil, v)
			if got, want := NameOf(prefix).AddUint64(v), NameOf(prefix).Add(string(le)); got != want {
				t.Fatalf("%q + %#x: AddUint64 = %#x, Add of its bytes %#x", prefix, v, got, want)
			}
		}
	}
	if a := testing.AllocsPerRun(100, func() {
		var child Source
		New(1).SplitInto(&child, NameOf("").AddUint64(7).AddUint64(9))
	}); a != 0 {
		t.Fatalf("SplitInto over an integer key: %v allocs, want 0", a)
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Uint64()
	}
}

func BenchmarkZipfDraw(b *testing.B) {
	z := NewZipf(New(1), 1000, 0.9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = z.Draw()
	}
}
