package workload

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"dfsqos/internal/catalog"
	"dfsqos/internal/ids"
	"dfsqos/internal/rng"
	"dfsqos/internal/testenv"
)

func testCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	cfg := catalog.DefaultConfig()
	cfg.NumFiles = 100
	cat, err := catalog.Generate(cfg, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{NumUsers: 0, NumDFSC: 8, MeanArrivalSec: 300, HorizonSec: 7200},
		{NumUsers: 64, NumDFSC: 0, MeanArrivalSec: 300, HorizonSec: 7200},
		{NumUsers: 64, NumDFSC: 8, MeanArrivalSec: 0, HorizonSec: 7200},
		{NumUsers: 64, NumDFSC: 8, MeanArrivalSec: 300, HorizonSec: 0},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

func TestGenerateSortedWithinHorizon(t *testing.T) {
	cat := testCatalog(t)
	cfg := Config{NumUsers: 32, NumDFSC: 4, MeanArrivalSec: 100, HorizonSec: 3600}
	p, err := Generate(cfg, cat, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.Len() == 0 {
		t.Fatal("empty pattern")
	}
	// Expected requests ≈ users × horizon / mean = 32 × 36 = 1152.
	if p.Len() < 900 || p.Len() > 1400 {
		t.Fatalf("pattern has %d requests, expected ~1152", p.Len())
	}
}

func TestGenerateDeterministicAndUserStable(t *testing.T) {
	cat := testCatalog(t)
	cfg := Config{NumUsers: 16, NumDFSC: 4, MeanArrivalSec: 100, HorizonSec: 1000}
	a, _ := Generate(cfg, cat, rng.New(5))
	b, _ := Generate(cfg, cat, rng.New(5))
	if a.Len() != b.Len() {
		t.Fatalf("lengths differ: %d vs %d", a.Len(), b.Len())
	}
	for i := range a.Requests {
		if a.Requests[i] != b.Requests[i] {
			t.Fatalf("request %d differs", i)
		}
	}
	// Adding users must not change existing users' requests.
	cfg2 := cfg
	cfg2.NumUsers = 32
	c, _ := Generate(cfg2, cat, rng.New(5))
	extract := func(p *Pattern, u ids.UserID) []Request {
		var out []Request
		for _, r := range p.Requests {
			if r.User == u {
				out = append(out, r)
			}
		}
		return out
	}
	for u := ids.UserID(0); u < 16; u++ {
		ra, rc := extract(a, u), extract(c, u)
		if len(ra) != len(rc) {
			t.Fatalf("user %v request count changed with more users", u)
		}
		for i := range ra {
			if ra[i] != rc[i] {
				t.Fatalf("user %v request %d changed with more users", u, i)
			}
		}
	}
}

func TestUsersRoundRobinOverDFSCs(t *testing.T) {
	cat := testCatalog(t)
	cfg := Config{NumUsers: 16, NumDFSC: 4, MeanArrivalSec: 50, HorizonSec: 1000}
	p, _ := Generate(cfg, cat, rng.New(2))
	for _, r := range p.Requests {
		if want := ids.DFSCID(int(r.User) % 4); r.DFSC != want {
			t.Fatalf("user %v mapped to %v, want %v", r.User, r.DFSC, want)
		}
	}
}

func TestInterArrivalMean(t *testing.T) {
	cat := testCatalog(t)
	cfg := Config{NumUsers: 200, NumDFSC: 8, MeanArrivalSec: 300, HorizonSec: 72000}
	p, _ := Generate(cfg, cat, rng.New(3))
	// Per-user arrival count over the horizon: horizon/mean = 240.
	perUser := map[ids.UserID]int{}
	for _, r := range p.Requests {
		perUser[r.User]++
	}
	total := 0
	for _, n := range perUser {
		total += n
	}
	mean := float64(total) / 200
	if math.Abs(mean-240) > 15 {
		t.Fatalf("mean requests per user = %v, want ~240", mean)
	}
}

func TestPopularFilesDominate(t *testing.T) {
	cat := testCatalog(t)
	cfg := Config{NumUsers: 200, NumDFSC: 8, MeanArrivalSec: 10, HorizonSec: 3600}
	p, _ := Generate(cfg, cat, rng.New(4))
	counts := p.FileCounts()
	top, tail := 0, 0
	for f, n := range counts {
		if f < 10 {
			top += n
		} else if f >= 90 {
			tail += n
		}
	}
	if top <= 3*tail {
		t.Fatalf("top-10 files got %d requests vs tail-10 %d; popularity law broken", top, tail)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	cat := testCatalog(t)
	cfg := Config{NumUsers: 8, NumDFSC: 2, MeanArrivalSec: 100, HorizonSec: 500}
	p, _ := Generate(cfg, cat, rng.New(6))
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	q, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if q.Len() != p.Len() || q.Config != p.Config {
		t.Fatalf("round trip mismatch: %d vs %d requests", q.Len(), p.Len())
	}
	for i := range p.Requests {
		if p.Requests[i] != q.Requests[i] {
			t.Fatalf("request %d differs after round trip", i)
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewBufferString("{not json")); err == nil {
		t.Fatal("garbage accepted")
	}
	// Valid JSON but out-of-order requests must fail validation.
	bad := `{"config":{"NumUsers":1,"NumDFSC":1,"MeanArrivalSec":1,"HorizonSec":100},
	 "requests":[{"at":50,"user":0,"dfsc":0,"file":1},{"at":10,"user":0,"dfsc":0,"file":2}]}`
	if _, err := Load(bytes.NewBufferString(bad)); err == nil {
		t.Fatal("out-of-order pattern accepted")
	}
}

func TestValidateCatchesBadRequests(t *testing.T) {
	cfg := Config{NumUsers: 1, NumDFSC: 1, MeanArrivalSec: 1, HorizonSec: 100}
	cases := []Pattern{
		{Config: cfg, Requests: []Request{{AtSec: 200, File: 1}}},           // beyond horizon
		{Config: cfg, Requests: []Request{{AtSec: 10, DFSC: 5, File: 1}}},   // bad DFSC
		{Config: cfg, Requests: []Request{{AtSec: 10, File: ids.NoneFile}}}, // bad file
	}
	for i, p := range cases {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid pattern accepted", i)
		}
	}
}

// Property: generated patterns always validate, for arbitrary seeds and
// small configs.
func TestGeneratedPatternsValidProperty(t *testing.T) {
	cat := testCatalog(t)
	f := func(seed uint64, usersRaw, dfscRaw uint8) bool {
		cfg := Config{
			NumUsers:       int(usersRaw%32) + 1,
			NumDFSC:        int(dfscRaw%8) + 1,
			MeanArrivalSec: 50,
			HorizonSec:     500,
		}
		p, err := Generate(cfg, cat, rng.New(seed))
		if err != nil {
			return false
		}
		return p.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// The per-user stream names are part of the seed contract: the streams
// appendUsers derives from folded names, the files stream on its first
// draw, must be the streams split by the names fmt would produce.
func TestUserStreamsAreTheNamedStreams(t *testing.T) {
	src := rng.New(17)
	for _, tc := range []struct {
		prefix string
		n      int
	}{
		{"workload/user", 0}, {"workload/user", 99_999}, {"workload/user", 7},
		{"workload/burst3/surge", 1_000_000}, {"workload/burst3/surge", 42},
	} {
		wantArr := src.Split(fmt.Sprintf("%s%d/arrivals", tc.prefix, tc.n))
		wantFiles := src.Split(fmt.Sprintf("%s%d/files", tc.prefix, tc.n))
		appendUsers(nil, src, tc.prefix, tc.n, tc.n+1, 0, func(u int, r *userRand, out []Request) []Request {
			for i := 0; i < 4; i++ {
				if a, w := r.arrivals.Uint64(), wantArr.Uint64(); a != w {
					t.Fatalf("%s%d/arrivals draw %d: %x, want %x", tc.prefix, tc.n, i, a, w)
				}
				if f, w := r.files().Uint64(), wantFiles.Uint64(); f != w {
					t.Fatalf("%s%d/files draw %d: %x, want %x", tc.prefix, tc.n, i, f, w)
				}
			}
			return out
		})
	}
}

// Deriving the streams of users who draw no request allocates nothing
// per user: a range of a thousand costs what a range of one does.
func TestUserStreamsAllocateNothingPerUser(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	src := rng.New(19)
	none := func(int, *userRand, []Request) []Request { return nil }
	one := testing.AllocsPerRun(100, func() { appendUsers(nil, src, "workload/user", 5, 6, 0, none) })
	many := testing.AllocsPerRun(100, func() { appendUsers(nil, src, "workload/user", 5, 1_005, 0, none) })
	if many != one || one > 1 {
		t.Fatalf("appendUsers: %v allocs for 1 user, %v for 1000; want at most 1 for either", one, many)
	}
}

// sortByArrival must give exactly the order a stable sort by time gives:
// requests at one instant staying in generation order. Every shape below
// has many equal timestamps, where a key sort that lost the position
// tie-break would show.
func TestSortByArrivalIsTheStableOrder(t *testing.T) {
	src := rng.New(23)
	shapes := map[string]func(i int) float64{
		// A coarse grid, so most times occur several times.
		"grid":       func(int) float64 { return float64(src.Intn(400)) / 4 },
		"two-values": func(int) float64 { return float64(src.Intn(2)) },
		"all-equal":  func(int) float64 { return 7 },
		"sorted":     func(i int) float64 { return float64(i / 8) },
		"reversed":   func(i int) float64 { return float64((5000 - i) / 8) },
		// Per-user runs of increasing times laid end to end: Generate's shape.
		"user-runs": func(i int) float64 { return float64(i%3) + float64(src.Intn(3)) },
	}
	for name, at := range shapes {
		for _, n := range []int{0, 1, 2, 5000} {
			reqs := make([]Request, n)
			for i := range reqs {
				reqs[i] = Request{AtSec: at(i), User: ids.UserID(i)}
			}
			want := slices.Clone(reqs)
			slices.SortStableFunc(want, func(a, b Request) int { return cmp.Compare(a.AtSec, b.AtSec) })
			sortByArrival(reqs)
			for i := range want {
				if reqs[i] != want[i] {
					t.Fatalf("%s n=%d position %d: user %d at %v, want user %d at %v",
						name, n, i, reqs[i].User, reqs[i].AtSec, want[i].User, want[i].AtSec)
				}
			}
		}
	}
}
