package live_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"dfsqos/internal/dfsc"
	"dfsqos/internal/ids"
	"dfsqos/internal/live"
	"dfsqos/internal/mm"
	"dfsqos/internal/qos"
	"dfsqos/internal/rng"
	"dfsqos/internal/scenario"
	"dfsqos/internal/selection"
	"dfsqos/internal/telemetry"
	"dfsqos/internal/trace"
	"dfsqos/internal/units"
	"dfsqos/internal/wire"
)

// shardCluster is a Local over a live metadata shard group: three mmd-shaped
// members on real sockets, RM daemons registered through the routing
// MMClient, every role reporting onto one registry and one tracer.
type shardCluster struct {
	*live.Local
	ring   *mm.Ring
	reg    *telemetry.Registry
	tracer *trace.Tracer
	smMet  *live.MMRouteMetrics
}

// startShardCluster boots Local's three-member shard group and one RM per
// entry of caps; every file in holders is provisioned on its listed RMs.
// Every member reports onto the registry, tracer and log from its start,
// so a revived member counts each heal handoff it takes.
func startShardCluster(t *testing.T, caps []units.BytesPerSec, holders map[ids.FileID][]ids.RMID) *shardCluster {
	t.Helper()
	cat := live.GenCatalog(t, 21, 8, 10, 10, 10)
	reg := telemetry.NewRegistry()
	tracer := trace.New(trace.Options{Actor: "cluster", Registry: reg})
	sc := &shardCluster{
		Local: live.StartLocal(t, live.LocalSpec{
			Catalog: cat, Caps: caps, Holders: holders, ShardGroup: true,
			MM: live.MMSpec{Registry: reg, Tracer: tracer, Logf: t.Logf, Verbose: true},
			RM: live.RMSpec{Tracer: tracer},
		}),
		reg:    reg,
		tracer: tracer,
		smMet:  live.NewMMRouteMetrics(reg),
	}
	sc.ring = mm.NewRing(len(sc.Shards))
	sc.Mapper.SetMetrics(sc.smMet)
	return sc
}

// handoff reads the members' handoff entries adopted in direction.
func (sc *shardCluster) handoff(t *testing.T, direction string) float64 {
	t.Helper()
	return live.SeriesValue(t, sc.reg, fmt.Sprintf("dfsqos_mm_shard_handoff_entries_total{direction=%q}", direction))
}

// reviveShard resurrects member i as a fresh, empty process on its old
// address — the restarted-mmd shape; the heal handoff must repopulate it.
func (sc *shardCluster) reviveShard(t *testing.T, i int) {
	t.Helper()
	if err := sc.ReviveShard(i); err != nil {
		t.Fatal(err)
	}
}

func (sc *shardCluster) client(t *testing.T, metaTTL time.Duration) *dfsc.Client {
	t.Helper()
	c, err := dfsc.New(dfsc.Options{
		ID:        1,
		Mapper:    sc.Mapper,
		Directory: sc.Dir,
		Scheduler: sc.Sched,
		Catalog:   sc.Catalog,
		Policy:    selection.RemOnly,
		Scenario:  qos.Firm,
		Rand:      rng.New(3),
		MetaTTL:   metaTTL,
		Metrics:   dfsc.NewMetrics(sc.reg),
		Tracer:    sc.tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// primaryOf returns the ring primary of file under the cluster's layout.
func (sc *shardCluster) primaryOf(f ids.FileID) int {
	return sc.ring.SuccessorsOfFile(int64(f), 1)[0]
}

// TestShardChaosKillShardMidWorkload is the metadata-plane death drill
// over real TCP: one of three shard members dies under a running
// workload. Every open must keep succeeding — hot files ride the
// client's metadata lease, cold lookups fail over to the successor owner
// — a streamed read mid-outage must checksum clean, the survivors must
// run the takeover handoff, and the scenario SLO gate must pass on the
// outage window. Resurrecting the member as an empty process must heal
// it back to a serving replica with a bumped epoch.
func TestShardChaosKillShardMidWorkload(t *testing.T) {
	sc := startShardCluster(t,
		[]units.BytesPerSec{units.Mbps(200), units.Mbps(200)},
		map[ids.FileID][]ids.RMID{0: {1, 2}, 1: {1, 2}, 2: {1, 2}, 3: {1, 2}, 4: {1, 2}, 5: {1, 2}})

	victim := sc.primaryOf(0)
	// coldFile is primaried on the victim and never accessed before the
	// kill, so its first lookup happens mid-outage and must walk to the
	// successor. The other files warm the lease cache.
	coldFile := ids.FileID(-1)
	var warm []ids.FileID
	for f := ids.FileID(0); f < 6; f++ {
		if coldFile < 0 && sc.primaryOf(f) == victim {
			coldFile = f
			continue
		}
		warm = append(warm, f)
	}
	if coldFile < 0 {
		t.Fatalf("no file primaried on shard %d among the catalog", victim)
	}

	client := sc.client(t, 10*time.Second)
	for _, f := range warm {
		if out := client.Access(f); !out.OK {
			t.Fatalf("warm-up access %v failed: %s", f, out.Reason)
		}
	}

	sc.KillShard(victim)

	// The workload keeps running through the outage: warm files (lease
	// hits) and the cold victim-owned file (successor failover) — every
	// open must succeed, measured for the SLO gate below.
	rec := scenario.NewRecorder()
	workload := append(append([]ids.FileID{}, warm...), coldFile)
	for round := 0; round < 4; round++ {
		for _, f := range workload {
			start := time.Now()
			out := client.Access(f)
			rec.Observe("video", time.Since(start), out.OK)
			if !out.OK {
				t.Fatalf("access %v with shard %d down failed: %s", f, victim, out.Reason)
			}
		}
	}
	// A streamed read mid-outage delivers checksum-clean bytes.
	var got bytes.Buffer
	res, err := client.ReadStriped(sc.Dir, coldFile, &got, dfsc.StripeConfig{Width: 1, MaxFailovers: 1})
	if err != nil {
		t.Fatalf("read with shard %d down: %v", victim, err)
	}
	wantSum, err := sc.Disk(res.RMs[len(res.RMs)-1]).Checksum(live.FileName(coldFile))
	if err != nil {
		t.Fatal(err)
	}
	if sum := wire.ChecksumUpdate(wire.ChecksumBasis, got.Bytes()); sum != wantSum {
		t.Fatalf("mid-outage read checksum %x, replica %x", sum, wantSum)
	}

	// Survivors latch the death and run the takeover handoff.
	for i, s := range sc.Shards {
		if i == victim {
			continue
		}
		sh := s
		live.WaitFor(t, fmt.Sprintf("shard %d latches %d dead", i, victim), func() bool {
			return !sh.Health().Alive(victim)
		})
	}
	live.WaitFor(t, "takeover handoff entries", func() bool {
		return sc.handoff(t, "takeover") > 0
	})

	// The lease cache and the successor walk both fired, and the lookup
	// that failed over is joined to its access in one trace.
	if client.Stats().MetaHits == 0 {
		t.Fatal("no lease hits during the outage")
	}
	if sc.smMet.Retries.Value() == 0 {
		t.Fatal("no successor retries during the outage")
	}
	if sc.smMet.Exhausted.Value() != 0 {
		t.Fatalf("%d lookups exhausted the owner set", sc.smMet.Exhausted.Value())
	}
	assertFailoverTrace(t, sc, coldFile)

	// The outage window passes the scenario SLO gate.
	count, failed := rec.Totals()
	result := &scenario.Result{
		Name:     "chaos-mm",
		Requests: count,
		Failed:   failed,
		FailRate: float64(failed) / float64(count),
		Classes:  rec.Stats(),
	}
	slo := scenario.SLO{MaxFailRate: 0.01, MaxP99Sec: 5}
	if vs := slo.Check(result); len(vs) != 0 {
		t.Fatalf("SLO gate failed with shard down: %v", vs)
	}

	// Resurrect the member as an empty process on its old address: peers
	// see its beats, count its revival, and push its keyspace back.
	sc.reviveShard(t, victim)
	for i, s := range sc.Shards {
		if i == victim {
			continue
		}
		sh := s
		live.WaitFor(t, fmt.Sprintf("shard %d revives %d", i, victim), func() bool {
			return sh.Health().Alive(victim)
		})
	}
	live.WaitFor(t, "each survivor counts the revival", func() bool {
		return live.SeriesValue(t, sc.reg, `dfsqos_mm_shard_transitions_total{direction="live"}`) >= float64(len(sc.Shards)-1)
	})
	live.WaitFor(t, "heal handoff repopulates the revived shard", func() bool {
		return len(sc.Shards[victim].Manager.Lookup(coldFile)) == 2
	})
	// The revived member counts what it adopted once the whole batch is
	// in, so the count can trail the first entry by a moment.
	live.WaitFor(t, "heal handoff entries counted", func() bool {
		return sc.handoff(t, "heal") > 0
	})
	// The revived shard serves its keyspace again, end to end.
	if hs := sc.Mapper.Lookup(coldFile); len(hs) != 2 {
		t.Fatalf("post-heal Lookup(%v) = %v, want both holders", coldFile, hs)
	}
	if out := client.Access(coldFile); !out.OK {
		t.Fatalf("post-heal access failed: %s", out.Reason)
	}
}

// assertFailoverTrace checks one trace joins the failed-over lookup to
// its access: a dfsc.access root over file whose dfsc.lookup child ended
// "ok" (the MM answered — via the successor, since the primary is dead)
// with an mm-actor server span in the same trace.
func assertFailoverTrace(t *testing.T, sc *shardCluster, file ids.FileID) {
	t.Helper()
	recs := sc.tracer.Snapshot()
	byTrace := make(map[ids.RequestID][]trace.Record)
	for _, r := range recs {
		byTrace[r.Trace] = append(byTrace[r.Trace], r)
	}
	for _, spans := range byTrace {
		var access, lookup, mmSide bool
		for _, r := range spans {
			switch {
			case r.Name == "dfsc.access" && r.File == file:
				access = true
			case r.Name == "dfsc.lookup" && r.File == file && r.Outcome == "ok":
				lookup = true
			case r.Actor == "cluster" && r.Name == "mm.Lookup":
				mmSide = true
			}
		}
		if access && lookup && mmSide {
			return
		}
	}
	t.Fatalf("no trace joins a %v access to its failed-over lookup (%d spans)", file, len(recs))
}

// TestShardChaosLeaseExpiryDuringHandoff is the stale-lease drill: a
// client holds a metadata lease naming two replicas, one replica is
// decommissioned and its RM dies while a shard death has the handoff
// protocol running. Every open during the lease window must land on the
// surviving replica — never the decommissioned one — and within one TTL
// the lease must re-resolve to the post-handoff replica set.
func TestShardChaosLeaseExpiryDuringHandoff(t *testing.T) {
	const ttl = 300 * time.Millisecond
	sc := startShardCluster(t,
		[]units.BytesPerSec{units.Mbps(200), units.Mbps(200)},
		map[ids.FileID][]ids.RMID{0: {1, 2}})
	client := sc.client(t, ttl)

	if out := client.Access(0); !out.OK {
		t.Fatalf("warm-up access failed: %s", out.Reason)
	}
	if hs, ok := client.MetaCache().Get(0); !ok || len(hs) != 2 {
		t.Fatalf("lease = %v/%v, want both replicas cached", hs, ok)
	}

	// Decommission RM 1's replica, kill its daemon, and kill a shard so
	// the lease expires while the takeover handoff is in flight.
	if err := sc.Mapper.RemoveReplica(0, 1); err != nil {
		t.Fatal(err)
	}
	sc.KillRM(1)
	leaseStart := time.Now()
	sc.KillShard(sc.primaryOf(0))

	// Every access through lease expiry and beyond succeeds on RM 2; the
	// decommissioned-and-dead RM 1 never serves.
	for time.Since(leaseStart) < 2*ttl {
		out := client.Access(0)
		if !out.OK {
			t.Fatalf("access at +%v failed: %s", time.Since(leaseStart), out.Reason)
		}
		if out.RM == 1 {
			t.Fatalf("access at +%v served by the decommissioned replica", time.Since(leaseStart))
		}
		time.Sleep(25 * time.Millisecond)
	}
	// One TTL past the decommission the lease has re-resolved: an access
	// here renews or rides the post-handoff lease, and the cache names
	// only the surviving replica set.
	if out := client.Access(0); !out.OK {
		t.Fatalf("post-window access failed: %s", out.Reason)
	}
	if hs, ok := client.MetaCache().Get(0); !ok || len(hs) != 1 || hs[0] != 2 {
		t.Fatalf("post-TTL lease = %v/%v, want re-resolved [2]", hs, ok)
	}
	if sc.handoff(t, "takeover") == 0 {
		t.Fatal("no takeover handoff ran during the lease window")
	}
}
