package catalog

import (
	"sort"
	"testing"

	"dfsqos/internal/ids"
	"dfsqos/internal/rng"
)

// refSamplePopular is the body SamplePopular had before it sampled
// through rng.CDF: a binary search of the whole cumulative table, clamped
// to the last file. It stays here as the reference model.
func refSamplePopular(c *Catalog, cum []float64, src *rng.Source) ids.FileID {
	u := src.Float64()
	k := sort.SearchFloat64s(cum, u)
	if k >= len(c.files) {
		k = len(c.files) - 1
	}
	return ids.FileID(k)
}

// SamplePopular makes the draws, and picks the files, the reference did,
// over the cumulative table Generate builds.
func TestSamplePopularMatchesReference(t *testing.T) {
	for _, n := range []int{1, 2, 1000, 1024, 4000} {
		cfg := DefaultConfig()
		cfg.NumFiles = n
		c := mustGen(t, cfg, uint64(n))
		cum := make([]float64, n)
		acc := 0.0
		for i := range c.files {
			acc += c.files[i].PopProb
			cum[i] = acc
		}
		cum[n-1] = 1
		got, want := rng.New(5), rng.New(5)
		for i := 0; i < 50_000; i++ {
			if g, w := c.SamplePopular(got), refSamplePopular(c, cum, want); g != w {
				t.Fatalf("%d files, draw %d: file %v, reference %v", n, i, g, w)
			}
		}
	}
}
