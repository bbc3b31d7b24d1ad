package dfsc

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"dfsqos/internal/catalog"
	"dfsqos/internal/ecnp"
	"dfsqos/internal/ids"
	"dfsqos/internal/qos"
	"dfsqos/internal/rng"
	"dfsqos/internal/selection"
	"dfsqos/internal/simtime"
	"dfsqos/internal/telemetry"
	"dfsqos/internal/transport"
	"dfsqos/internal/units"
	"dfsqos/internal/wire"
)

func TestMetaCacheTTLAndInvalidate(t *testing.T) {
	mc := NewMetaCache(time.Second)
	now := time.Unix(0, 0)
	mc.SetClock(func() time.Time { return now })

	if _, ok := mc.Get(1); ok {
		t.Fatal("empty cache answered")
	}
	mc.Put(1, []ids.RMID{3, 4})
	hs, ok := mc.Get(1)
	if !ok || len(hs) != 2 || hs[0] != 3 {
		t.Fatalf("Get = %v/%v", hs, ok)
	}
	// The returned slice is a copy: mutating it must not poison the lease.
	hs[0] = 99
	if again, _ := mc.Get(1); again[0] != 3 {
		t.Fatal("cached holders aliased to caller slice")
	}
	// Expiry is strict: at TTL the lease still holds, past it it is gone.
	now = now.Add(time.Second)
	if _, ok := mc.Get(1); !ok {
		t.Fatal("lease expired at exactly TTL")
	}
	now = now.Add(time.Nanosecond)
	if _, ok := mc.Get(1); ok {
		t.Fatal("lease survived past TTL")
	}
	if mc.Len() != 0 {
		t.Fatalf("expired entry lingers: Len = %d", mc.Len())
	}

	// No negative caching: an empty replica set is never leased.
	mc.Put(2, nil)
	if _, ok := mc.Get(2); ok || mc.Len() != 0 {
		t.Fatal("empty holder set was cached")
	}

	mc.Put(3, []ids.RMID{1})
	if !mc.Invalidate(3) {
		t.Fatal("Invalidate missed a live lease")
	}
	if mc.Invalidate(3) {
		t.Fatal("Invalidate hit twice")
	}
}

// countingMapper wraps the harness mapper and counts MM lookups, so lease
// tests can assert which accesses actually queried the metadata plane.
type countingMapper struct {
	ecnp.Mapper
	lookups int
}

func (m *countingMapper) Lookup(file ids.FileID) []ids.RMID {
	m.lookups++
	return m.Mapper.Lookup(file)
}

// TestLeaseHitSkipsMM arms the metadata cache and checks the hot-file
// path: the first open queries the MM, repeats ride the lease (no MM
// round trip, no message accounting), expiry re-resolves, and a failover
// re-negotiation refuses to replay the cached set.
func TestLeaseHitSkipsMM(t *testing.T) {
	h := newHarness(t,
		map[ids.RMID]units.BytesPerSec{1: units.Mbps(18), 2: units.Mbps(18)},
		map[ids.FileID][]ids.RMID{0: {1, 2}})
	counting := &countingMapper{Mapper: h.mapper}
	reg := telemetry.NewRegistry()
	met := NewMetrics(reg)
	c, err := New(Options{
		ID:        1,
		Mapper:    counting,
		Directory: h.dir,
		Scheduler: ecnp.SimScheduler{S: h.sched},
		Catalog:   h.catalog,
		Policy:    selection.RemOnly,
		Scenario:  qos.Soft,
		Rand:      rng.New(5),
		MetaTTL:   time.Minute,
		Metrics:   met,
	})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(0, 0)
	c.MetaCache().SetClock(func() time.Time { return now })

	if out := c.Access(0); !out.OK {
		t.Fatalf("first access failed: %s", out.Reason)
	}
	if counting.lookups != 1 {
		t.Fatalf("first access made %d lookups, want 1", counting.lookups)
	}
	msgsAfterFirst := c.Stats().Messages

	if out := c.Access(0); !out.OK {
		t.Fatalf("leased access failed: %s", out.Reason)
	}
	if counting.lookups != 1 {
		t.Fatalf("leased access queried the MM (%d lookups)", counting.lookups)
	}
	// The lease hit saves the query+reply message pair of phase 1.
	if got := c.Stats().Messages - msgsAfterFirst; got >= msgsAfterFirst {
		t.Fatalf("leased access spent %d messages, want fewer than the cold %d", got, msgsAfterFirst)
	}
	if met.MetaHits.Value() != 1 || met.MetaMisses.Value() != 1 {
		t.Fatalf("hits/misses = %d/%d, want 1/1", met.MetaHits.Value(), met.MetaMisses.Value())
	}

	// Past the TTL the next access re-resolves.
	now = now.Add(2 * time.Minute)
	if out := c.Access(0); !out.OK {
		t.Fatalf("post-expiry access failed: %s", out.Reason)
	}
	if counting.lookups != 2 {
		t.Fatalf("post-expiry access made %d total lookups, want 2", counting.lookups)
	}

	// A failover re-negotiation invalidates the fresh lease and queries.
	hs, fromLease, err := c.lookupHolders(context.Background(), 0, true)
	if err != nil || fromLease || len(hs) != 2 {
		t.Fatalf("failover lookup = %v/%v/%v, want fresh holders", hs, fromLease, err)
	}
	if counting.lookups != 3 {
		t.Fatalf("failover lookup did not query the MM (%d lookups)", counting.lookups)
	}
	if met.MetaInvalidated.Value() != 1 {
		t.Fatalf("MetaInvalidated = %d, want 1", met.MetaInvalidated.Value())
	}
}

// failingMapper serves a scripted error through the errMapper interface
// and refuses everything else.
type failingMapper struct {
	ecnp.Mapper
	err error
}

func (m *failingMapper) LookupErrContext(ctx context.Context, file ids.FileID) ([]ids.RMID, error) {
	return nil, m.err
}

// TestLookupErrorTaxonomy drives one access and one probe per transport
// failure class through the typed lookup path and checks each lands in
// its own dfsqos_dfsc_lookup_errors_total bucket with a lookup-failure
// outcome — not a misleading "no replica".
func TestLookupErrorTaxonomy(t *testing.T) {
	cfg := catalog.DefaultConfig()
	cfg.NumFiles = 4
	cat, err := catalog.Generate(cfg, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		class string
		err   error
	}{
		{"remote", wire.RemoteError{Text: "mm: not a shard-group member"}},
		{"timeout", &transport.TimeoutError{Op: "call Lookup", Peer: "x", Err: context.DeadlineExceeded}},
		{"conn", &transport.ConnError{Op: "call Lookup", Peer: "x", Err: errors.New("reset")}},
		{"other", errors.New("unclassified")},
	}
	reg := telemetry.NewRegistry()
	met := NewMetrics(reg)
	for _, tc := range cases {
		c, err := New(Options{
			ID:        1,
			Mapper:    &failingMapper{err: tc.err},
			Directory: new(ecnp.StaticDirectory),
			Scheduler: ecnp.SimScheduler{S: simtime.NewScheduler()},
			Catalog:   cat,
			Policy:    selection.RemOnly,
			Scenario:  qos.Soft,
			Rand:      rng.New(5),
			Metrics:   met,
		})
		if err != nil {
			t.Fatal(err)
		}
		out := c.Access(0)
		if out.OK {
			t.Fatalf("%s: access succeeded through a failing mapper", tc.class)
		}
		if got := met.LookupErrors.With(tc.class).Value(); got != 1 {
			t.Fatalf("%s bucket = %d, want 1", tc.class, got)
		}
		// A probe goes through the same typed lookup.
		if out := c.Probe(0); out.OK || !strings.HasPrefix(out.Reason, "metadata lookup failed: ") {
			t.Fatalf("%s: probe %+v, want a metadata lookup failure", tc.class, out)
		}
		if got := met.LookupErrors.With(tc.class).Value(); got != 2 {
			t.Fatalf("%s bucket = %d after the probe, want 2", tc.class, got)
		}
		if st := c.Stats(); st.NoReplica != 0 {
			t.Fatalf("%s: %d failure(s) counted as no replica", tc.class, st.NoReplica)
		}
		if got := classifyLookupErr(tc.err); got != tc.class {
			t.Fatalf("classifyLookupErr(%v) = %q, want %q", tc.err, got, tc.class)
		}
	}
}

// TestProbeRidesLease: with the metadata lease armed, a second probe of a
// file inside the lease sends no message.
func TestProbeRidesLease(t *testing.T) {
	h := newHarness(t,
		map[ids.RMID]units.BytesPerSec{1: units.Mbps(18)},
		map[ids.FileID][]ids.RMID{0: {1}})
	c, err := New(Options{
		ID:        1,
		Mapper:    h.mapper,
		Directory: h.dir,
		Scheduler: ecnp.SimScheduler{S: h.sched},
		Catalog:   h.catalog,
		Policy:    selection.RemOnly,
		Scenario:  qos.Soft,
		Rand:      rng.New(5),
		MetaTTL:   time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []int64{2, 0} {
		before := c.Stats().Messages
		if out := c.Probe(0); !out.OK || out.RM != 1 {
			t.Fatalf("probe %d: %+v, want RM1", i+1, out)
		}
		if got := c.Stats().Messages - before; got != want {
			t.Fatalf("probe %d sent %d messages, want %d", i+1, got, want)
		}
	}
}
