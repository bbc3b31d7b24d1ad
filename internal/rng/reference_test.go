package rng

import (
	"math"
	"math/bits"
	"slices"
	"testing"
)

// The bodies Intn and Perm had before Intn took its 128-bit product from
// math/bits and Perm became the allocating wrapper of PermInto. They stay
// here as the reference models: every table and scenario count in the
// repository rests on these two drawing exactly what they always drew.

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
