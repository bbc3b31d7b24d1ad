package workload

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"testing"

	"dfsqos/internal/catalog"
	"dfsqos/internal/ids"
	"dfsqos/internal/rng"
)

// The bodies Generate, sortByArrival and ApplyBursts had while a pattern
// was generated on one goroutine, into one growing slice, and sorted by
// a comparison sort of (time, position) keys, each user's two streams
// split by formatted name. They stay here as the reference models: the
// parallel generator, the folded names, the lazily derived files stream,
// the radix sort and the merge may change what a set-up costs and
// nothing a pattern holds.

// userStreams derives one user's two independent streams, named
// "<prefix><n>/arrivals" and "<prefix><n>/files". Both names are built in
// buf, which is returned for the next user.
func userStreams(src *rng.Source, buf []byte, prefix string, n int) (arrivals, files *rng.Source, _ []byte) {
	buf = strconv.AppendInt(append(buf[:0], prefix...), int64(n), 10)
	stem := len(buf)
	buf = append(buf, "/arrivals"...)
	arrivals = src.Split(string(buf))
	buf = append(buf[:stem], "/files"...)
	files = src.Split(string(buf))
	return arrivals, files, buf
}

func refGenerate(cfg Config, cat *catalog.Catalog, src *rng.Source) *Pattern {
	var reqs []Request
	var arr, files *rng.Source
	var name []byte
	for u := 0; u < cfg.NumUsers; u++ {
		user := ids.UserID(u)
		dfsc := ids.DFSCID(u % cfg.NumDFSC)
		arr, files, name = userStreams(src, name, "workload/user", u)
		t := arr.Exp(cfg.MeanArrivalSec)
		for t <= cfg.HorizonSec {
			reqs = append(reqs, Request{
				AtSec: t,
				User:  user,
				DFSC:  dfsc,
				File:  cat.SamplePopular(files),
			})
			t += arr.Exp(cfg.MeanArrivalSec)
		}
	}
	refSortByArrival(reqs)
	return &Pattern{Config: cfg, Requests: reqs}
}

func refSortByArrival(reqs []Request) {
	if slices.IsSortedFunc(reqs, func(a, b Request) int { return cmp.Compare(a.AtSec, b.AtSec) }) {
		return
	}
	type key struct {
		at  float64
		pos int
	}
	keys := make([]key, len(reqs))
	for i := range reqs {
		keys[i] = key{reqs[i].AtSec, i}
	}
	slices.SortFunc(keys, func(a, b key) int {
		if c := cmp.Compare(a.at, b.at); c != 0 {
			return c
		}
		return cmp.Compare(a.pos, b.pos)
	})
	sorted := make([]Request, len(reqs))
	for i, k := range keys {
		sorted[i] = reqs[k.pos]
	}
	copy(reqs, sorted)
}

func refApplyBursts(p *Pattern, cat *catalog.Catalog, bursts []Burst, src *rng.Source) []ids.FileID {
	targets := make([]ids.FileID, len(bursts))
	nextUser := ids.UserID(p.Config.NumUsers)
	for i, b := range bursts {
		target := b.Target
		if !target.Valid() {
			target = ids.FileID(cat.Len() / 2)
		}
		targets[i] = target
		end := b.AtSec + b.DurationSec

		if b.Fraction > 0 && b.DurationSec > 0 {
			redirect := src.Split(fmt.Sprintf("workload/burst%d/redirect", i))
			start := sort.Search(len(p.Requests), func(j int) bool {
				return p.Requests[j].AtSec >= b.AtSec
			})
			for j := start; j < len(p.Requests) && p.Requests[j].AtSec < end; j++ {
				if redirect.Float64() < b.Fraction {
					p.Requests[j].File = target
				}
			}
		}

		mean := b.SurgeMeanArrivalSec
		if mean == 0 {
			mean = p.Config.MeanArrivalSec
		}
		surge := fmt.Sprintf("workload/burst%d/surge", i)
		var arr, files *rng.Source
		var name []byte
		for u := 0; u < b.SurgeUsers; u++ {
			user := nextUser
			nextUser++
			arr, files, name = userStreams(src, name, surge, u)
			t := b.AtSec + arr.Exp(mean)
			for t < end && t <= p.Config.HorizonSec {
				file := target
				if files.Float64() >= b.Fraction {
					file = cat.SamplePopular(files)
				}
				p.Requests = append(p.Requests, Request{
					AtSec: t,
					User:  user,
					DFSC:  ids.DFSCID(int(user) % p.Config.NumDFSC),
					File:  file,
				})
				t += arr.Exp(mean)
			}
		}
	}
	refSortByArrival(p.Requests)
	return targets
}

func clonePattern(p *Pattern) *Pattern {
	return &Pattern{Config: p.Config, Requests: slices.Clone(p.Requests)}
}

// tagUser draws user u's requests two per user on average, all at one
// instant, tagged by user, and by a files draw for every third user.
func tagUser(u int, r *userRand, out []Request) []Request {
	for t := r.arrivals.Exp(1); t <= 2; t += r.arrivals.Exp(1) {
		req := Request{AtSec: 1, User: ids.UserID(u)}
		if u%3 == 0 {
			req.File = ids.FileID(r.files().Intn(1000))
		}
		out = append(out, req)
	}
	return out
}

// Generate, and ApplyBursts on the flash-crowd scenario's burst shape,
// build exactly the reference's pattern, whatever the number of cores
// the users are cut over. The last population is the full-scale
// zipfian-hotset scenario's.
func TestGenerateMatchesReference(t *testing.T) {
	cat := testCatalog(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, cfg := range []Config{
		{NumUsers: 1, NumDFSC: 8, MeanArrivalSec: 10, HorizonSec: 7200},
		{NumUsers: 3, NumDFSC: 8, MeanArrivalSec: 10, HorizonSec: 7200},
		{NumUsers: 7, NumDFSC: 8, MeanArrivalSec: 30, HorizonSec: 7200},
		{NumUsers: 2_000, NumDFSC: 8, MeanArrivalSec: 300, HorizonSec: 7200},
		{NumUsers: 100_000, NumDFSC: 64, MeanArrivalSec: 300, HorizonSec: 600},
	} {
		// The flash-crowd scenario's burst: 35 % of a window over 30-70 %
		// of the horizon redirected, and a surge half the population.
		bursts := []Burst{{
			AtSec:       0.3 * cfg.HorizonSec,
			DurationSec: 0.4 * cfg.HorizonSec,
			Fraction:    0.35,
			SurgeUsers:  cfg.NumUsers / 2,
		}}
		src := rng.New(uint64(cfg.NumUsers))
		want := refGenerate(cfg, cat, src)
		wantBurst := clonePattern(want)
		wantTargets := refApplyBursts(wantBurst, cat, bursts, src)
		for _, procs := range []int{1, 2, 3, 8} {
			runtime.GOMAXPROCS(procs)
			if cfg.NumUsers == 2_000 {
				// Equal arrival times are too rare in a pattern to show
				// how the sorted ranges are merged: merge requests that
				// all arrive at once, after a head already in the slice,
				// so the merge must keep the head first and the users in
				// order.
				head := []Request{{AtSec: 1, User: -1}}
				runs := generateUsers(src, "workload/user", cfg.NumUsers, 2, true, tagUser)
				merged := mergeRuns(append([][]Request{head}, runs...))
				if want := appendUsers(head, src, "workload/user", 0, cfg.NumUsers, 2, tagUser); !slices.Equal(merged, want) {
					t.Fatalf("GOMAXPROCS %d: %d merged requests out of user order", procs, len(merged))
				}
			}
			got, err := Generate(cfg, cat, src)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%d users, GOMAXPROCS %d: Generate's %d requests differ from the reference's %d",
					cfg.NumUsers, procs, got.Len(), want.Len())
			}
			targets, err := ApplyBursts(got, cat, bursts, src)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, wantBurst) || !reflect.DeepEqual(targets, wantTargets) {
				t.Fatalf("%d users, GOMAXPROCS %d: ApplyBursts' %d requests differ from the reference's %d",
					cfg.NumUsers, procs, got.Len(), wantBurst.Len())
			}
		}
	}
}

// sortPalette holds the values cmp.Compare treats specially or a bit key
// would misorder: NaNs of both signs, both zeros, both infinities,
// subnormals, and ordinary values around them.
var sortPalette = []float64{
	math.NaN(), math.Float64frombits(0xfff8_0000_0000_0001), 0, math.Copysign(0, -1),
	math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.Float64frombits(0x000f_ffff_ffff_ffff), 1, -1, 1.5, 600, math.MaxFloat64, -math.MaxFloat64,
}

// FuzzSortByArrival checks sortByArrival, and three ranges sorted by it
// and merged by mergeRuns, against a stable comparison sort by
// cmp.Compare on AtSec. With palette set, each input byte picks a
// value from sortPalette, which makes long runs of equal and specially
// ordered keys; without it, every eight bytes are one float64's bits.
func FuzzSortByArrival(f *testing.F) {
	run := func(n int) []byte {
		b := make([]byte, 0, 3*n)
		for i := range sortPalette {
			for range n {
				b = append(b, byte(i))
			}
		}
		return b
	}
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 3, 2, 1, 0}, true)
	f.Add(run(40), true)
	f.Add(bytes.Repeat([]byte{3, 2}, 300), true)
	f.Add(bytes.Repeat([]byte{12, 11, 12, 9}, 100), true)
	raw := make([]byte, 0, 8*300)
	for i := range 300 {
		raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(float64((300-i)%17)/4))
	}
	f.Add(raw, false)
	f.Fuzz(func(t *testing.T, data []byte, palette bool) {
		var reqs []Request
		if palette {
			for _, b := range data {
				reqs = append(reqs, Request{AtSec: sortPalette[int(b)%len(sortPalette)]})
			}
		} else {
			for ; len(data) >= 8; data = data[8:] {
				reqs = append(reqs, Request{AtSec: math.Float64frombits(binary.LittleEndian.Uint64(data))})
			}
		}
		for i := range reqs {
			reqs[i].User = ids.UserID(i)
		}
		want := slices.Clone(reqs)
		slices.SortStableFunc(want, func(a, b Request) int { return cmp.Compare(a.AtSec, b.AtSec) })
		// Cut into three ranges, sorted each and merged, as the
		// generator does on three cores.
		var runs [][]Request
		for lo, k := 0, 0; k < 3; k++ {
			hi := (k + 1) * len(reqs) / 3
			runs = append(runs, slices.Clone(reqs[lo:hi]))
			sortByArrival(runs[k])
			lo = hi
		}
		merged := mergeRuns(runs)
		sortByArrival(reqs)
		for i := range want {
			if reqs[i].User != want[i].User {
				t.Fatalf("position %d: request %d at %v, want request %d at %v",
					i, reqs[i].User, reqs[i].AtSec, want[i].User, want[i].AtSec)
			}
			if merged[i].User != want[i].User {
				t.Fatalf("merged ranges, position %d: request %d at %v, want request %d at %v",
					i, merged[i].User, merged[i].AtSec, want[i].User, want[i].AtSec)
			}
		}
	})
}
