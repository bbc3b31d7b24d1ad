package catalog

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"dfsqos/internal/ids"
	"dfsqos/internal/rng"
	"dfsqos/internal/units"
)

func mustGen(t *testing.T, cfg Config, seed uint64) *Catalog {
	t.Helper()
	c, err := Generate(cfg, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestGenerateDefault(t *testing.T) {
	c := mustGen(t, DefaultConfig(), 1)
	if c.Len() != 1000 {
		t.Fatalf("catalog size %d, want 1000", c.Len())
	}
	cfg := DefaultConfig()
	for _, f := range c.Files() {
		if f.Bitrate <= 0 {
			t.Fatalf("%v: non-positive bitrate", f.ID)
		}
		if f.DurationSec < cfg.MinDurationSec || f.DurationSec > cfg.MaxDurationSec {
			t.Fatalf("%v: duration %v out of [%v, %v]", f.ID, f.DurationSec, cfg.MinDurationSec, cfg.MaxDurationSec)
		}
		wantSize := units.Size(math.Round(float64(f.Bitrate) * f.DurationSec))
		if f.Size != wantSize {
			t.Fatalf("%v: size %d, want bitrate*duration = %d", f.ID, f.Size, wantSize)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := mustGen(t, DefaultConfig(), 42)
	b := mustGen(t, DefaultConfig(), 42)
	for i := range a.Files() {
		fa, fb := a.Files()[i], b.Files()[i]
		if fa != fb {
			t.Fatalf("file %d differs across same-seed runs:\n%+v\n%+v", i, fa, fb)
		}
	}
}

func TestPopularityIsZipf(t *testing.T) {
	c := mustGen(t, DefaultConfig(), 7)
	sum := 0.0
	prev := math.Inf(1)
	for _, f := range c.Files() {
		sum += f.PopProb
		if f.PopProb > prev+1e-15 {
			t.Fatalf("popularity not non-increasing at rank %d", f.PopRank)
		}
		prev = f.PopProb
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("popularity sums to %v", sum)
	}
}

func TestSamplePopularMatchesLaw(t *testing.T) {
	c := mustGen(t, DefaultConfig(), 11)
	src := rng.New(99)
	const draws = 200000
	counts := make([]int, c.Len())
	for i := 0; i < draws; i++ {
		counts[c.SamplePopular(src)]++
	}
	for k := 0; k < 5; k++ {
		want := c.Files()[k].PopProb * draws
		if math.Abs(float64(counts[k])-want) > 6*math.Sqrt(want) {
			t.Errorf("rank %d: %d draws, want ~%.0f", k, counts[k], want)
		}
	}
	// Head must dominate tail.
	if counts[0] <= counts[c.Len()-1] {
		t.Errorf("rank 0 (%d draws) not more popular than last rank (%d)", counts[0], counts[c.Len()-1])
	}
}

func TestFilePanicsOnBadID(t *testing.T) {
	c := mustGen(t, DefaultConfig(), 1)
	defer func() {
		if recover() == nil {
			t.Fatal("File(-1) did not panic")
		}
	}()
	c.File(ids.FileID(-1))
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{NumFiles: 0, ZipfSkew: 1, MeanDurationSec: 1, MinDurationSec: 1, MaxDurationSec: 2},
		{NumFiles: 10, ZipfSkew: 0, MeanDurationSec: 1, MinDurationSec: 1, MaxDurationSec: 2},
		{NumFiles: 10, ZipfSkew: 1, MeanDurationSec: 0, MinDurationSec: 1, MaxDurationSec: 2},
		{NumFiles: 10, ZipfSkew: 1, MeanDurationSec: 1, MinDurationSec: 5, MaxDurationSec: 2},
		{NumFiles: 10, ZipfSkew: 1, MeanDurationSec: 1, MinDurationSec: 1, MaxDurationSec: 2, BitrateJitter: 0.9},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
		if _, err := Generate(cfg, rng.New(1)); err == nil {
			t.Errorf("case %d: Generate accepted invalid config", i)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
}

func TestGenerateRejectsBadClass(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Classes = []BitrateClass{{Name: "bad", Bitrate: 0, Weight: 1}}
	if _, err := Generate(cfg, rng.New(1)); err == nil {
		t.Fatal("Generate accepted zero-bitrate class")
	}
}

func TestAggregates(t *testing.T) {
	c := mustGen(t, DefaultConfig(), 3)
	if c.TotalBytes() <= 0 {
		t.Fatal("TotalBytes not positive")
	}
	mb := c.MeanBitrate()
	if mb < units.Kbps(250) || mb > units.Kbps(3850) {
		t.Fatalf("MeanBitrate %v outside the class ladder", mb)
	}
	md := c.MeanDuration()
	if md < 60 || md > 1200 {
		t.Fatalf("MeanDuration %v outside clamp bounds", md)
	}
}

func testRMs(n int) []ids.RMID {
	rms := make([]ids.RMID, n)
	for i := range rms {
		rms[i] = ids.RMID(i + 1)
	}
	return rms
}

func TestStaticRandomPlacement(t *testing.T) {
	c := mustGen(t, DefaultConfig(), 5)
	p, err := StaticRandom(c, testRMs(16), 3, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.NumFiles() != c.Len() {
		t.Fatalf("placement covers %d files, want %d", p.NumFiles(), c.Len())
	}
	for _, f := range c.Files() {
		if got := p.Degree(f.ID); got != 3 {
			t.Fatalf("%v: degree %d, want 3", f.ID, got)
		}
	}
	// Placement should spread roughly evenly: every RM holds some files.
	for _, rm := range testRMs(16) {
		n := len(p.FilesOn(rm))
		if n < 100 || n > 300 { // expected 3000/16 = 187.5
			t.Errorf("%v holds %d replicas, expected near 187", rm, n)
		}
	}
}

func TestStaticRandomErrors(t *testing.T) {
	c := mustGen(t, DefaultConfig(), 5)
	if _, err := StaticRandom(c, testRMs(2), 3, rng.New(1)); err == nil {
		t.Fatal("degree > RMs accepted")
	}
	if _, err := StaticRandom(c, testRMs(5), 0, rng.New(1)); err == nil {
		t.Fatal("degree 0 accepted")
	}
}

func TestPlacementAddRemove(t *testing.T) {
	p := NewPlacement()
	f := ids.FileID(0)
	if err := p.Add(f, 1); err != nil {
		t.Fatal(err)
	}
	if err := p.Add(f, 1); err == nil {
		t.Fatal("duplicate Add accepted")
	}
	if err := p.Add(f, 2); err != nil {
		t.Fatal(err)
	}
	if !p.Has(f, 1) || !p.Has(f, 2) || p.Has(f, 3) {
		t.Fatal("Has gives wrong answers")
	}
	if err := p.Remove(f, 3); err == nil {
		t.Fatal("Remove of absent replica accepted")
	}
	if err := p.Remove(f, 1); err != nil {
		t.Fatal(err)
	}
	if err := p.Remove(f, 2); err == nil {
		t.Fatal("Remove of last replica accepted")
	}
	if p.Degree(f) != 1 {
		t.Fatalf("degree %d, want 1", p.Degree(f))
	}
}

func TestPlacementCloneIsDeep(t *testing.T) {
	p := NewPlacement()
	p.Add(0, 1)
	p.Add(0, 2)
	q := p.Clone()
	q.Add(0, 3)
	if p.Degree(0) != 2 || q.Degree(0) != 3 {
		t.Fatalf("clone not deep: p=%d q=%d", p.Degree(0), q.Degree(0))
	}
}

// Holders lends the placement's own sorted list: later edits store a new
// one, and an append to the lent slice copies instead of writing into it.
func TestHoldersLendsAnUnchangingSlice(t *testing.T) {
	p := NewPlacement()
	p.Add(0, 3)
	p.Add(0, 1)
	hs := p.Holders(0)
	p.Add(0, 2)
	p.Remove(0, 3)
	if !slices.Equal(hs, []ids.RMID{1, 3}) {
		t.Fatalf("lent holders changed under later edits: %v", hs)
	}
	if got := p.Holders(0); !slices.Equal(got, []ids.RMID{1, 2}) {
		t.Fatalf("holders %v, want [1 2]", got)
	}
	_ = append(p.Holders(0), 9)
	if got := p.Holders(0); !slices.Equal(got, []ids.RMID{1, 2}) {
		t.Fatalf("an append to the lent slice wrote into the placement: %v", got)
	}
}

// Property: StaticRandom always yields exactly `degree` distinct holders.
func TestPlacementDegreeProperty(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumFiles = 50
	c := mustGen(t, cfg, 21)
	f := func(seed uint64, rawDeg uint8) bool {
		deg := int(rawDeg%5) + 1
		p, err := StaticRandom(c, testRMs(8), deg, rng.New(seed))
		if err != nil {
			return false
		}
		if p.Validate() != nil {
			return false
		}
		for _, fl := range c.Files() {
			if p.Degree(fl.ID) != deg {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// FilesByRM is FilesOn for every RM at once: equal file sets, and no entry
// for an RM that holds nothing.
func TestFilesByRMEqualsFilesOn(t *testing.T) {
	c := mustGen(t, DefaultConfig(), 5)
	rms := testRMs(16)
	p, err := StaticRandom(c, rms[:15], 3, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Remove(0, p.Holders(0)[0]); err != nil {
		t.Fatal(err)
	}
	byRM := p.FilesByRM()
	sorted := func(fs []ids.FileID) []ids.FileID {
		fs = slices.Clone(fs)
		slices.Sort(fs)
		return fs
	}
	for _, rm := range rms[:15] {
		if got, want := sorted(byRM[rm]), sorted(p.FilesOn(rm)); !slices.Equal(got, want) {
			t.Errorf("%v: FilesByRM lists %d files, FilesOn %d, or they differ", rm, len(got), len(want))
		}
	}
	if fs, ok := byRM[rms[15]]; ok {
		t.Errorf("%v holds nothing but is listed with %v", rms[15], fs)
	}
	if len(byRM) != 15 {
		t.Errorf("%d RMs listed, want 15", len(byRM))
	}
}
