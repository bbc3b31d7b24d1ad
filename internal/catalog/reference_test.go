package catalog

import (
	"fmt"
	"slices"
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

// refPlacement keeps the holder lists Placement kept before it sorted
// them and stored a new list on each edit: insertion order, appended to
// and cut in place. Its Holders, Add and Remove are the old bodies, kept
// as the reference model.
type refPlacement struct {
	replicas map[ids.FileID][]ids.RMID
}

func (p *refPlacement) Has(id ids.FileID, rm ids.RMID) bool {
	for _, h := range p.replicas[id] {
		if h == rm {
			return true
		}
	}
	return false
}

func (p *refPlacement) Holders(id ids.FileID) []ids.RMID {
	return append(make([]ids.RMID, 0, len(p.replicas[id])), p.replicas[id]...)
}

func (p *refPlacement) Add(id ids.FileID, rm ids.RMID) error {
	if p.Has(id, rm) {
		return fmt.Errorf("catalog: %v already holds %v", rm, id)
	}
	p.replicas[id] = append(p.replicas[id], rm)
	return nil
}

func (p *refPlacement) Remove(id ids.FileID, rm ids.RMID) error {
	hs := p.replicas[id]
	if len(hs) <= 1 {
		return fmt.Errorf("catalog: refusing to remove last replica of %v", id)
	}
	for i, h := range hs {
		if h == rm {
			p.replicas[id] = append(hs[:i], hs[i+1:]...)
			return nil
		}
	}
	return fmt.Errorf("catalog: %v holds no replica of %v", rm, id)
}

// checkPlacementEdits runs program, two bytes an edit, on a Placement and
// on the reference: the low bit of the first byte picks Add or Remove, the
// rest of it one of four files, and the second byte one of nine RMs. Each
// edit must fail or succeed on both, with the same error text; after it,
// the file's holders must be the reference's, sorted; and every slice
// Holders lent before must still read what it read then.
func checkPlacementEdits(t *testing.T, program []byte) {
	t.Helper()
	p, ref := NewPlacement(), &refPlacement{replicas: make(map[ids.FileID][]ids.RMID)}
	type loan struct {
		held, then []ids.RMID
	}
	var loans []loan
	for i := 0; i+1 < len(program); i += 2 {
		f, rm := ids.FileID(program[i]>>1%4), ids.RMID(program[i+1]%9)
		var got, want error
		if program[i]&1 == 0 {
			got, want = p.Add(f, rm), ref.Add(f, rm)
		} else {
			got, want = p.Remove(f, rm), ref.Remove(f, rm)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("edit %d on %v/%v: error %v, reference %v", i/2, f, rm, got, want)
		}
		hs := p.Holders(f)
		sorted := ref.Holders(f)
		slices.Sort(sorted)
		if !slices.Equal(hs, sorted) || p.Degree(f) != len(sorted) {
			t.Fatalf("edit %d: %v holders %v, reference sorted %v", i/2, f, hs, sorted)
		}
		loans = append(loans, loan{hs, slices.Clone(hs)})
	}
	for i, l := range loans {
		if !slices.Equal(l.held, l.then) {
			t.Fatalf("holders lent after edit %d changed from %v to %v", i, l.then, l.held)
		}
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

// Placement's edits equal the reference's, with sorted holders, over
// seeded random edit programs.
func TestPlacementEditsMatchReference(t *testing.T) {
	for seed := uint64(1); seed <= 200; seed++ {
		src := rng.New(seed)
		program := make([]byte, 2*(1+src.Intn(120)))
		for i := range program {
			program[i] = byte(src.Intn(256))
		}
		checkPlacementEdits(t, program)
	}
}

func FuzzPlacementEdits(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 1, 1, 1, 2})
	f.Add([]byte{0, 5, 0, 3, 0, 5, 1, 4, 1, 3, 2, 1})
	f.Fuzz(checkPlacementEdits)
}
