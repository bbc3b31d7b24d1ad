package rng

import (
	"math"
	"math/bits"
	"slices"
	"testing"
)

// The bodies Intn and Perm had before Intn took its 128-bit product from
// math/bits and Perm became the allocating wrapper of PermInto, the body
// Split had before it folded names through Name and SplitInto, and the
// body Zipf.Draw had before it sampled through CDF. They stay here as the
// reference models: every table and scenario count in the repository
// rests on these drawing exactly what they always drew.

// refMul64 is the hand-rolled 128-bit product Intn used.
func refMul64(a, b uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aLo*bHi + (aLo*bLo)>>32
	w1 := t & mask
	w2 := t >> 32
	w1 += aHi * bLo
	hi = aHi*bHi + w2 + (w1 >> 32)
	lo = a * b
	return hi, lo
}

func refIntn(s *Source, n int) int {
	un := uint64(n)
	for {
		v := s.Uint64()
		hi, lo := refMul64(v, un)
		if lo >= un || lo >= -un%un {
			return int(hi)
		}
	}
}

func refPerm(s *Source, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := refIntn(s, i+1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

func TestMul64MatchesHandRolled(t *testing.T) {
	edges := []uint64{0, 1, 2, 3, 1<<31 - 1, 1 << 31, 1<<32 - 1, 1 << 32, 1<<32 + 1,
		1<<63 - 1, 1 << 63, 1<<63 + 1, math.MaxUint64 - 1, math.MaxUint64}
	check := func(a, b uint64) {
		t.Helper()
		hi, lo := bits.Mul64(a, b)
		wantHi, wantLo := refMul64(a, b)
		if hi != wantHi || lo != wantLo {
			t.Fatalf("%#x * %#x = (%#x, %#x), hand-rolled product (%#x, %#x)", a, b, hi, lo, wantHi, wantLo)
		}
	}
	for _, a := range edges {
		for _, b := range edges {
			check(a, b)
		}
	}
	s := New(41)
	for i := 0; i < 100_000; i++ {
		a, b := s.Uint64(), s.Uint64()
		if i%3 == 0 {
			b >>= s.Uint64() % 64 // Intn's second factor is a small bound
		}
		check(a, b)
	}
}

// TestIntnStreamUnchanged: same values, and the same number of words
// consumed (the rejection loop rejects what it always rejected).
func TestIntnStreamUnchanged(t *testing.T) {
	bounds := []int{1, 2, 3, 7, 246, 247, 256, 1000, 1<<31 - 1, 1 << 31, 1<<62 + 12345, math.MaxInt64}
	for seed := uint64(0); seed < 20; seed++ {
		got, want := New(seed), New(seed)
		for i := 0; i < 2000; i++ {
			n := bounds[i%len(bounds)]
			if g, w := got.Intn(n), refIntn(want, n); g != w {
				t.Fatalf("seed %d draw %d: Intn(%d) = %d, was %d", seed, i, n, g, w)
			}
		}
		if *got != *want {
			t.Fatalf("seed %d: source state diverged from the reference", seed)
		}
	}
}

// TestIntnGoldenStream pins values computed before the change.
func TestIntnGoldenStream(t *testing.T) {
	s := New(1)
	got := make([]int, 8)
	for i := range got {
		got[i] = s.Intn(247)
	}
	want := []int{173, 128, 141, 96, 172, 35, 17, 94}
	if !slices.Equal(got, want) {
		t.Fatalf("New(1).Intn(247) stream = %v, want %v", got, want)
	}
}

func TestPermIntoMatchesPerm(t *testing.T) {
	for _, n := range []int{0, 1, 2, 5, 247} {
		for seed := uint64(0); seed < 50; seed++ {
			ref, into := New(seed), New(seed)
			want := refPerm(ref, n)
			buf := make([]int, n)
			for i := range buf {
				buf[i] = -1 // PermInto must not read what the buffer held
			}
			got := into.PermInto(buf)
			if !slices.Equal(got, want) || (n > 0 && &got[0] != &buf[0]) {
				t.Fatalf("n=%d seed %d: PermInto = %v, reference was %v", n, seed, got, want)
			}
			if *into != *ref {
				t.Fatalf("n=%d seed %d: source state diverged from the reference", n, seed)
			}
		}
	}
}

func TestPermIntoAllocatesNothing(t *testing.T) {
	s, buf := New(5), make([]int, 247)
	if a := testing.AllocsPerRun(100, func() { s.PermInto(buf) }); a != 0 {
		t.Fatalf("PermInto: %v allocs/op, want 0", a)
	}
}

// refHashName is the hash Split applied to a whole name.
func refHashName(name string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime
	}
	return splitmix64(&h)
}

func refSplit(s *Source, name string) *Source {
	mix := s.s[0] ^ rotl(s.s[2], 17) ^ refHashName(name)
	return New(mix)
}

// refZipfDraw is Draw's binary search over the whole table.
func refZipfDraw(z *Zipf) int {
	u := z.src.Float64()
	cdf := z.cdf.cum
	lo, hi := 0, len(cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func TestSplitMatchesReference(t *testing.T) {
	names := []string{"", "a", "catalog/popularity", "workload/user99999/arrivals", "workload/burst0/surge7/files", "ünïcödé"}
	for seed := uint64(0); seed < 20; seed++ {
		parent := New(seed)
		for _, name := range names {
			if got, want := parent.Split(name), refSplit(parent, name); *got != *want {
				t.Fatalf("seed %d: Split(%q) = %v, reference %v", seed, name, got.s, want.s)
			}
		}
	}
}

// Draw makes the draws, and returns the ranks, the whole-table binary
// search did, over skews either side of 1 and sizes either side of a
// power of two.
func TestZipfDrawMatchesReference(t *testing.T) {
	for _, n := range []int{1, 2, 3, 1000, 1024, 1025, 4000} {
		for _, skew := range []float64{0.5, 0.95, 1.1, 3} {
			got, want := NewZipf(New(uint64(n)), n, skew), NewZipf(New(uint64(n)), n, skew)
			for i := 0; i < 20_000; i++ {
				if g, w := got.Draw(), refZipfDraw(want); g != w {
					t.Fatalf("n=%d skew %v draw %d: rank %d, reference %d", n, skew, i, g, w)
				}
			}
			if *got.src != *want.src {
				t.Fatalf("n=%d skew %v: source state diverged from the reference", n, skew)
			}
		}
	}
}
