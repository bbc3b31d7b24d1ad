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
	"slices"
	"strconv"

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
// adding users never perturbs existing users' request sequences.
func Generate(cfg Config, cat *catalog.Catalog, src *rng.Source) (*Pattern, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
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
	sortByArrival(reqs)
	return &Pattern{Config: cfg, Requests: reqs}, nil
}

// userStreams derives one user's two independent streams, named
// "<prefix><n>/arrivals" and "<prefix><n>/files". Both names are built in
// buf, which is returned for the next user: a population of 10⁵ would
// otherwise format 2·10⁵ strings to hash each once.
func userStreams(src *rng.Source, buf []byte, prefix string, n int) (arrivals, files *rng.Source, _ []byte) {
	buf = strconv.AppendInt(append(buf[:0], prefix...), int64(n), 10)
	stem := len(buf)
	buf = append(buf, "/arrivals"...)
	arrivals = src.Split(string(buf))
	buf = append(buf[:stem], "/files"...)
	files = src.Split(string(buf))
	return arrivals, files, buf
}

// sortByArrival orders requests by arrival time, requests with equal
// times keeping their relative order — the Pattern invariant every
// consumer relies on (cluster.Run refuses anything else).
//
// It sorts 16-byte (time, position) keys and moves each Request once,
// where a stable sort of the requests themselves moves each O(log² N)
// times — most of a 10⁵-user set-up. Position breaks every tie, so the
// order is total and the plain sort lands on the stable one.
func sortByArrival(reqs []Request) {
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
