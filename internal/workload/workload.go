// Package workload generates the evaluation's multi-user access pattern:
// each simulated user issues requests whose inter-arrival times follow the
// negative exponential distribution (NET) f(x) = −β·ln U with U ∈ (0,1) and
// cumulative mean arrival time β (paper: 300 s), each request targeting a
// file drawn from the catalog's popularity law so "files with higher
// popularity will be accessed more times in a fixed time interval". Users
// are spread round-robin across the DFSCs, mirroring the request scheduler
// of the paper's testbed, and the merged request stream is sorted by
// arrival timestamp.
package workload

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"strconv"
	"sync"

	"dfsqos/internal/catalog"
	"dfsqos/internal/ids"
	"dfsqos/internal/rng"
)

// Op is the operation class of one request. The zero value is OpRead, so
// patterns written before operations existed load unchanged.
type Op int8

// The operation kinds a scenario mix can assign. OpRead is a streaming
// read (the paper's only operation); OpWrite is a bulk ingest (dfsc
// Store); OpMeta is a metadata-only probe that exercises the MM lookup
// path without reserving bandwidth — the "small-file metadata storm"
// component of the mixed scenarios.
const (
	OpRead Op = iota
	OpWrite
	OpMeta
	numOps // sentinel for validation
)

// String names the operation for reports and JSON-adjacent output.
func (o Op) String() string {
	switch o {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpMeta:
		return "meta"
	}
	return fmt.Sprintf("op(%d)", int8(o))
}

// Valid reports whether o is a known operation.
func (o Op) Valid() bool { return o >= OpRead && o < numOps }

// Request is one file access in the pattern.
type Request struct {
	// AtSec is the arrival timestamp in seconds from simulation start.
	AtSec float64 `json:"at"`
	// User is the issuing user.
	User ids.UserID `json:"user"`
	// DFSC is the client the user is attached to.
	DFSC ids.DFSCID `json:"dfsc"`
	// File is the requested file.
	File ids.FileID `json:"file"`
	// Op is the operation kind (absent in JSON = OpRead, the paper's
	// streaming access).
	Op Op `json:"op,omitempty"`
	// Class optionally labels the request's workload class ("video",
	// "bulk-write", ...) so scenario reports can break latency out per
	// class. Empty means the default class of the request's Op.
	Class string `json:"class,omitempty"`
}

// Config parameterizes pattern generation.
type Config struct {
	// NumUsers is the number of concurrent users (paper: 64-256).
	NumUsers int
	// NumDFSC is the number of clients users are spread over (paper: 8).
	NumDFSC int
	// MeanArrivalSec is β, the per-user mean inter-arrival time
	// (paper: 300 s).
	MeanArrivalSec float64
	// HorizonSec is the pattern length (paper: 2 h = 7200 s).
	HorizonSec float64
}

// DefaultConfig returns the paper's workload parameters at 256 users.
func DefaultConfig() Config {
	return Config{NumUsers: 256, NumDFSC: 8, MeanArrivalSec: 300, HorizonSec: 7200}
}

// Validate reports the first problem with the config, or nil.
func (c Config) Validate() error {
	switch {
	case c.NumUsers <= 0:
		return fmt.Errorf("workload: NumUsers must be positive, got %d", c.NumUsers)
	case c.NumDFSC <= 0:
		return fmt.Errorf("workload: NumDFSC must be positive, got %d", c.NumDFSC)
	case c.MeanArrivalSec <= 0:
		return fmt.Errorf("workload: MeanArrivalSec must be positive, got %v", c.MeanArrivalSec)
	case c.HorizonSec <= 0:
		return fmt.Errorf("workload: HorizonSec must be positive, got %v", c.HorizonSec)
	}
	return nil
}

// Pattern is a complete access pattern, sorted by arrival time.
type Pattern struct {
	Config   Config    `json:"config"`
	Requests []Request `json:"requests"`
}

// Generate builds the access pattern for cfg over the given catalog.
// Each user gets independent sub-streams for arrivals and file choice, so
// adding users never perturbs existing users' request sequences, and the
// pattern is the same on any number of cores (generateUsers).
func Generate(cfg Config, cat *catalog.Catalog, src *rng.Source) (*Pattern, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	mean := cfg.MeanArrivalSec
	runs := generateUsers(src, "workload/user", cfg.NumUsers, cfg.HorizonSec/mean, true,
		func(u int, r *userRand, out []Request) []Request {
			user, dfsc := ids.UserID(u), ids.DFSCID(u%cfg.NumDFSC)
			for t := r.arrivals.Exp(mean); t <= cfg.HorizonSec; t += r.arrivals.Exp(mean) {
				out = append(out, Request{AtSec: t, User: user, DFSC: dfsc, File: cat.SamplePopular(r.files())})
			}
			return out
		})
	return &Pattern{Config: cfg, Requests: mergeRuns(runs)}, nil
}

// userGen appends user u's requests to out, drawing only from r's
// streams.
type userGen func(u int, r *userRand, out []Request) []Request

// generateUsers returns the requests of users 0..n-1, user u's built by
// gen from its streams (userRand under prefix), as one run per range of
// users: ranges in user order, each run in user order, or, with sorted
// set, sorted by arrival (sortByArrival keeps a tie in user order).
// perUser is the expected number of requests per user, which sizes the
// runs.
//
// The users are cut into GOMAXPROCS contiguous ranges, each generated,
// and sorted, on its own goroutine. gen may draw only from the streams
// it is handed and read only what no goroutine writes: Split reads its
// parent without advancing it, so every user's draws, and the runs'
// concatenation, are the same however the users are cut.
func generateUsers(src *rng.Source, prefix string, n int, perUser float64, sorted bool, gen userGen) [][]Request {
	k := min(runtime.GOMAXPROCS(0), n)
	runs := make([][]Request, k)
	build := func(s int) {
		runs[s] = appendUsers(nil, src, prefix, s*n/k, (s+1)*n/k, perUser, gen)
		if sorted {
			sortByArrival(runs[s])
		}
	}
	if k == 1 {
		build(0)
		return runs
	}
	var wg sync.WaitGroup
	for s := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			build(s)
		}()
	}
	wg.Wait()
	return runs
}

// appendUsers runs gen for users lo..hi-1 in order, appending to dst
// grown first by the users' expected count plus four standard
// deviations, so a Poisson count almost never outgrows it. It folds the
// prefix into a stream name once, and each user's digits onto it, so
// deriving a user's streams allocates nothing.
func appendUsers(dst []Request, src *rng.Source, prefix string, lo, hi int, perUser float64, gen userGen) []Request {
	if want := float64(hi-lo) * perUser; want > 0 {
		dst = slices.Grow(dst, int(want+4*math.Sqrt(want))+1)
	}
	r := &userRand{src: src}
	stem := rng.NameOf(prefix)
	var digits [20]byte
	for u := lo; u < hi; u++ {
		r.user = stem.Add(string(strconv.AppendInt(digits[:0], int64(u), 10)))
		src.SplitInto(&r.arrivals, r.user.Add("/arrivals"))
		r.derived = false
		dst = gen(u, r, dst)
	}
	return dst
}

// userRand holds one user's two independent streams, named
// "<prefix><u>/arrivals" and "<prefix><u>/files". The files stream is
// derived on its first draw, as most users of a short horizon draw no
// file: Split only reads its parent, so a stream derived late is the
// stream derived early.
type userRand struct {
	src      *rng.Source
	user     rng.Name // "<prefix><u>"
	arrivals rng.Source
	fileSrc  rng.Source
	derived  bool // fileSrc is this user's
}

// files returns the user's files stream.
func (r *userRand) files() *rng.Source {
	if !r.derived {
		r.src.SplitInto(&r.fileSrc, r.user.Add("/files"))
		r.derived = true
	}
	return &r.fileSrc
}

// mergeRuns merges runs, each sorted by arrival, into one sorted slice,
// a tie going to the earlier run: the stable sort of their concatenation.
// It takes the earliest head of the runs left, one request at a time,
// into one output of the total length. A single non-empty run is returned
// as it is.
func mergeRuns(runs [][]Request) []Request {
	runs = slices.DeleteFunc(slices.Clone(runs), func(r []Request) bool { return len(r) == 0 })
	switch len(runs) {
	case 0:
		return nil
	case 1:
		return runs[0]
	}
	n := 0
	for _, r := range runs {
		n += len(r)
	}
	out := make([]Request, 0, n)
	for len(runs) > 1 {
		// cmp.Less is the order cmp.Compare gives, the order
		// sortByArrival sorts by; a strict less keeps a tie with the
		// earlier run.
		best, r := 0, runs[0]
		for i := 1; i < len(runs); i++ {
			if cmp.Less(runs[i][0].AtSec, r[0].AtSec) {
				best, r = i, runs[i]
			}
		}
		out = append(out, r[0])
		if len(r) == 1 {
			runs = slices.Delete(runs, best, best+1)
		} else {
			runs[best] = r[1:]
		}
	}
	return append(out, runs[0]...)
}

// sortByArrival orders requests by arrival time, requests with equal
// times keeping their relative order — the Pattern invariant every
// consumer relies on (cluster.Run refuses anything else), and the order
// slices.SortStableFunc with cmp.Compare on AtSec gives.
//
// It is a stable LSD radix sort, one byte per pass, of (arrivalKey,
// position) pairs, skipping every byte all the keys share; the sorted
// positions then move each Request once, in place.
func sortByArrival(reqs []Request) {
	if slices.IsSortedFunc(reqs, func(a, b Request) int { return cmp.Compare(a.AtSec, b.AtSec) }) {
		return
	}
	type posKey struct {
		key uint64
		pos int
	}
	keys := make([]posKey, len(reqs))
	var counts [8][256]int
	for i := range reqs {
		k := arrivalKey(reqs[i].AtSec)
		keys[i] = posKey{k, i}
		for d := range counts {
			counts[d][byte(k>>(8*d))]++
		}
	}
	spare := make([]posKey, len(keys))
	for d := range counts {
		c := &counts[d]
		shift := 8 * d
		if c[byte(keys[0].key>>shift)] == len(keys) {
			continue
		}
		sum := 0
		for b, n := range c {
			c[b], sum = sum, sum+n
		}
		for _, k := range keys {
			b := byte(k.key >> shift)
			spare[c[b]] = k
			c[b]++
		}
		keys, spare = spare, keys
	}
	// Position i takes the request at keys[i].pos: follow each cycle of
	// that permutation once, marking the positions it fills.
	for start := range keys {
		if keys[start].pos < 0 {
			continue
		}
		first := reqs[start]
		i := start
		for {
			from := keys[i].pos
			keys[i].pos = -1
			if from == start {
				reqs[i] = first
				break
			}
			reqs[i] = reqs[from]
			i = from
		}
	}
}

// arrivalKey maps t to a key whose unsigned order is cmp.Compare's order
// on float64: every NaN first and equal to every other, then -Inf up to
// +Inf, with -0 equal to +0.
func arrivalKey(t float64) uint64 {
	switch {
	case t != t:
		return 0
	case t == 0:
		return 1 << 63
	}
	b := math.Float64bits(t)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// Len returns the number of requests.
func (p *Pattern) Len() int { return len(p.Requests) }

// Save writes the pattern as JSON.
func (p *Pattern) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(p)
}

// Load reads a pattern previously written by Save and validates it.
func Load(r io.Reader) (*Pattern, error) {
	var p Pattern
	if err := json.NewDecoder(r).Decode(&p); err != nil {
		return nil, fmt.Errorf("workload: decoding pattern: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// Validate checks pattern invariants: config validity, sortedness and
// timestamps within the horizon.
func (p *Pattern) Validate() error {
	if err := p.Config.Validate(); err != nil {
		return err
	}
	prev := 0.0
	for i, r := range p.Requests {
		if r.AtSec < prev {
			return fmt.Errorf("workload: request %d out of order (%.3f after %.3f)", i, r.AtSec, prev)
		}
		if r.AtSec > p.Config.HorizonSec {
			return fmt.Errorf("workload: request %d beyond horizon (%.3f > %.3f)", i, r.AtSec, p.Config.HorizonSec)
		}
		if int(r.DFSC) < 0 || int(r.DFSC) >= p.Config.NumDFSC {
			return fmt.Errorf("workload: request %d has invalid DFSC %d", i, r.DFSC)
		}
		if !r.File.Valid() {
			return fmt.Errorf("workload: request %d has invalid file", i)
		}
		if !r.Op.Valid() {
			return fmt.Errorf("workload: request %d has invalid op %d", i, r.Op)
		}
		prev = r.AtSec
	}
	return nil
}
