// Package rng provides deterministic, splittable random-number streams and
// the distributions the paper's workload model needs: the negative
// exponential distribution (NET) for request arrival times and a Zipf-like
// popularity distribution over the video catalog.
//
// Every source of randomness in a simulation run is derived from a single
// master seed through named streams, so an experiment rerun with the same
// seed is bit-identical regardless of how many streams are consumed or in
// which order they are created. A stream's Name may be folded a piece at
// a time (NameOf, then Add) and its child written into a Source the
// caller holds (SplitInto), so deriving many streams that share a prefix
// formats and allocates nothing per stream; AddUint64 folds an integer
// key, so a stream keyed by a counter or an ID is derived the same way.
// CDF samples a rank from a cumulative table through a guide table; Zipf
// draws with it.
package rng

import (
	"math"
	"math/bits"
)

// splitmix64 advances a splitmix64 state and returns the next output.
// It is used both to seed streams and to hash stream names.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Name is the FNV-1a state of a stream name read so far. NameOf(a).Add(b)
// is NameOf(a + b), so names sharing a prefix can fold it once.
type Name uint64

// The FNV-1a 64-bit offset basis and prime.
const (
	nameOffset Name = 14695981039346656037
	namePrime  Name = 1099511628211
)

// NameOf returns the state after reading s from the start.
func NameOf(s string) Name { return nameOffset.Add(s) }

// Add returns the state after reading s on from n.
func (n Name) Add(s string) Name {
	for i := 0; i < len(s); i++ {
		n = (n ^ Name(s[i])) * namePrime
	}
	return n
}

// AddUint64 returns the state after reading v's eight bytes, least
// significant first, on from n: a decision keyed by integers folds them
// with no formatting.
func (n Name) AddUint64(v uint64) Name {
	for i := 0; i < 8; i++ {
		n = (n ^ Name(byte(v))) * namePrime
		v >>= 8
	}
	return n
}

// Source is a deterministic pseudo-random stream (xoshiro256**).
// It is not safe for concurrent use; split one Source per goroutine or per
// simulation actor instead of sharing.
type Source struct {
	s state
}

// state is the generator's four words. It is a struct, not an array, so
// a copy in locals can live in registers.
type state struct{ s0, s1, s2, s3 uint64 }

// New returns a Source seeded from seed via splitmix64, as recommended by
// the xoshiro authors (avoids correlated low-entropy states).
func New(seed uint64) *Source {
	var src Source
	src.seed(seed)
	return &src
}

func (s *Source) seed(seed uint64) {
	sm := seed
	s.s = state{splitmix64(&sm), splitmix64(&sm), splitmix64(&sm), splitmix64(&sm)}
	// An all-zero state would be a fixed point; splitmix64 of any seed
	// cannot produce four zero outputs, but guard anyway.
	if s.s == (state{}) {
		s.s.s0 = 0x9e3779b97f4a7c15
	}
}

// Split derives an independent child stream identified by name.
// Children with distinct names are statistically independent of each other
// and of the parent. Split only reads the parent's state: it never
// advances or writes it, so goroutines may split one parent at once, as
// long as none draws from that parent meanwhile, and each child is the
// one a sequential caller would get.
func (s *Source) Split(name string) *Source {
	var child Source
	s.SplitInto(&child, NameOf(name))
	return &child
}

// SplitInto writes into dst the child Split would return for the name n
// was folded from. It reads s before it writes dst, so dst may be s.
func (s *Source) SplitInto(dst *Source, n Name) {
	h := uint64(n)
	dst.seed(s.s.s0 ^ rotl(s.s.s2, 17) ^ splitmix64(&h))
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits. The state steps by value
// through output and next, which keeps Uint64 within the compiler's
// inlining budget.
func (s *Source) Uint64() uint64 {
	v := s.s.output()
	s.s = s.s.next()
	return v
}

// output and next are the one xoshiro256** generator body: the 64 bits
// state x yields, and the state after it.
func (x state) output() uint64 { return bits.RotateLeft64(x.s1*5, 7) * 9 }

func (x state) next() state {
	s2, s3 := x.s2^x.s0, x.s3^x.s1
	return state{x.s0 ^ s3, x.s1 ^ s2, s2 ^ x.s1<<17, bits.RotateLeft64(s3, 45)}
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method: unbiased and fast. A
	// word whose low product falls in the rejected band is drawn again.
	un := uint64(n)
	for {
		hi, lo := bits.Mul64(s.Uint64(), un)
		if lo >= un || lo >= -un%un {
			return int(hi)
		}
	}
}

// Shuffle pseudo-randomly permutes n elements via the provided swap func
// using the Fisher-Yates algorithm.
func (s *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		swap(i, j)
	}
}

// PermInto overwrites buf with a pseudo-random permutation of
// [0, len(buf)) and returns it.
// It is Shuffle's Fisher-Yates written out on buf, so it makes the draws
// Shuffle(len(buf), ...) makes: Intn(i+1) for i = len(buf)-1 down to 1.
func (s *Source) PermInto(buf []int) []int {
	for i := range buf {
		buf[i] = i
	}
	for i := len(buf) - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		buf[i], buf[j] = buf[j], buf[i]
	}
	return buf
}

// Exp draws from the negative exponential distribution with the given mean,
// implementing the paper's NET arrival model f(x) = −β·ln U with U ∈ (0,1):
// a U of 0, which would yield an infinite inter-arrival time, is drawn
// again.
func (s *Source) Exp(mean float64) float64 {
	if mean <= 0 {
		panic("rng: Exp with non-positive mean")
	}
	var u float64
	for u == 0 {
		u = s.Float64()
	}
	return -mean * math.Log(u)
}

// NormFloat64 draws a standard normal value via the Marsaglia polar method.
// Used to jitter synthetic video bitrates around their class means.
func (s *Source) NormFloat64() float64 {
	for {
		u := 2*s.Float64() - 1
		v := 2*s.Float64() - 1
		q := u*u + v*v
		if q > 0 && q < 1 {
			return u * math.Sqrt(-2*math.Log(q)/q)
		}
	}
}

// CDF samples a rank from a cumulative table: Index(u) is the first k
// with cum[k] >= u. A guide table of 2^b + 1 entries, 2^b >= len(cum),
// holds for each j the first k with cum[k] >= j/2^b. Since u·2^b is
// exact, the answer for u lies between the guide entries of u's bucket.
// The buckets hold fewer than two candidate ranks each on average, where
// a binary search over the whole table takes log₂ n steps.
type CDF struct {
	cum   []float64
	guide []int32
	scale float64 // 2^b
}

// NewCDF builds the sampler over cum, a non-decreasing table the CDF
// keeps and the caller must not change. It panics if cum is empty,
// decreasing or NaN somewhere, or longer than an int32 can index.
func NewCDF(cum []float64) CDF {
	n := len(cum)
	if n == 0 || n > math.MaxInt32 {
		panic("rng: CDF over an empty or oversized table")
	}
	for k, v := range cum {
		if v != v || k > 0 && v < cum[k-1] {
			panic("rng: CDF over a decreasing or NaN table")
		}
	}
	b := bits.Len(uint(n - 1))
	c := CDF{cum: cum, guide: make([]int32, 1<<b+1), scale: float64(uint64(1) << b)}
	k := 0
	for j := range c.guide[:1<<b] {
		for k < n-1 && cum[k] < float64(j)/c.scale {
			k++
		}
		c.guide[j] = int32(k)
	}
	// The last bucket's upper bound is the last rank, so a u beyond the
	// table's end clamps to it.
	c.guide[1<<b] = int32(n - 1)
	return c
}

// Index returns the first k with cum[k] >= u, or len(cum)-1 if no entry
// reaches u. u must not be negative or NaN: a Float64 draw never is.
func (c *CDF) Index(u float64) int {
	j := len(c.guide) - 2
	if u < 1 {
		j = int(u * c.scale)
	}
	lo, hi := int(c.guide[j]), int(c.guide[j+1])
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if c.cum[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Zipf draws ranks from a Zipf distribution over {0, 1, ..., n-1} with skew
// parameter s (probability of rank k proportional to 1/(k+1)^s).
// It precomputes the CDF once and samples it through CDF's guide table,
// which remains exact for any skew including s < 1 (the stdlib's
// rejection sampler requires s > 1).
type Zipf struct {
	src *Source
	cdf CDF
}

// NewZipf builds a Zipf sampler over n ranks with skew skew > 0.
func NewZipf(src *Source, n int, skew float64) *Zipf {
	if n <= 0 {
		panic("rng: Zipf with non-positive n")
	}
	if skew <= 0 {
		panic("rng: Zipf with non-positive skew")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for k := 0; k < n; k++ {
		sum += 1 / math.Pow(float64(k+1), skew)
		cdf[k] = sum
	}
	inv := 1 / sum
	for k := range cdf {
		cdf[k] *= inv
	}
	cdf[n-1] = 1 // guard against rounding
	return &Zipf{src: src, cdf: NewCDF(cdf)}
}

// P returns the probability mass of rank k.
func (z *Zipf) P(k int) float64 {
	cdf := z.cdf.cum
	if k < 0 || k >= len(cdf) {
		return 0
	}
	if k == 0 {
		return cdf[0]
	}
	return cdf[k] - cdf[k-1]
}

// Draw samples a rank.
func (z *Zipf) Draw() int { return z.cdf.Index(z.src.Float64()) }

// WeightedChoice samples index i with probability weights[i]/sum(weights).
// It panics if weights is empty or sums to a non-positive value. Used by the
// Weighted destination-selection strategy (probability proportional to an
// RM's initial bandwidth).
func (s *Source) WeightedChoice(weights []float64) int {
	if len(weights) == 0 {
		panic("rng: WeightedChoice with no weights")
	}
	total := 0.0
	for _, w := range weights {
		if w < 0 {
			panic("rng: WeightedChoice with negative weight")
		}
		total += w
	}
	if total <= 0 {
		panic("rng: WeightedChoice with non-positive total weight")
	}
	u := s.Float64() * total
	acc := 0.0
	for i, w := range weights {
		acc += w
		if u < acc {
			return i
		}
	}
	return len(weights) - 1 // rounding guard
}
