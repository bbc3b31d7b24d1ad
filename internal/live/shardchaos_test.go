package live_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"dfsqos/internal/blkio"
	"dfsqos/internal/catalog"
	"dfsqos/internal/dfsc"
	"dfsqos/internal/ecnp"
	"dfsqos/internal/history"
	"dfsqos/internal/ids"
	"dfsqos/internal/live"
	"dfsqos/internal/mm"
	"dfsqos/internal/qos"
	"dfsqos/internal/replication"
	"dfsqos/internal/rm"
	"dfsqos/internal/rng"
	"dfsqos/internal/scenario"
	"dfsqos/internal/selection"
	"dfsqos/internal/telemetry"
	"dfsqos/internal/trace"
	"dfsqos/internal/transport"
	"dfsqos/internal/units"
	"dfsqos/internal/vdisk"
	"dfsqos/internal/wire"
)

// waitFor polls cond up to 5s — the external-package twin of the helper
// in chaos_test.go; shard liveness converges on real wall time.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// shardChaosBeat is the shard-to-shard liveness config the chaos drills
// run: a member silent for 60ms of wall time is dead.
var shardChaosBeat = mm.LivenessConfig{HeartbeatInterval: 20 * time.Millisecond, MissThreshold: 3}

// shardCluster is a live metadata shard group plus a small data plane:
// n mmd-shaped members on real sockets, RM daemons registered through
// the successor-failover ShardMapper, and handles deep enough to crash
// and resurrect individual shards.
type shardCluster struct {
	n, rep    int
	shards    []*live.MMShard
	srvs      []*live.MMServer
	addrs     []string
	beatStops []func()

	ring   *mm.Ring
	mapper *live.ShardMapper
	dir    *live.Directory
	sched  *live.WallScheduler
	cat    *catalog.Catalog
	reg    *telemetry.Registry
	tracer *trace.Tracer
	rmSrvs map[ids.RMID]*live.RMServer
	nodes  map[ids.RMID]*rm.RM
	disks  map[ids.RMID]*vdisk.Disk
	mmMet  *mm.Metrics
	smMet  *live.ShardMapperMetrics
}

func (sc *shardCluster) shutdown() {
	for _, stop := range sc.beatStops {
		if stop != nil {
			stop()
		}
	}
	for _, s := range sc.shards {
		if s != nil {
			s.ClosePeers()
		}
	}
	sc.dir.Close()
	sc.mapper.Close()
	for _, s := range sc.rmSrvs {
		s.Close()
	}
	for _, s := range sc.srvs {
		if s != nil {
			s.Close()
		}
	}
	sc.sched.Stop()
}

// startShardCluster boots an n-member shard group with replication rep
// and one RM per entry of caps; every file in holders is provisioned on
// its listed RMs.
func startShardCluster(t *testing.T, n, rep int, caps []units.BytesPerSec, holders map[ids.FileID][]ids.RMID) *shardCluster {
	t.Helper()
	cfg := catalog.DefaultConfig()
	cfg.NumFiles = 8
	cfg.MeanDurationSec = 10
	cfg.MinDurationSec = 10
	cfg.MaxDurationSec = 10
	cat, err := catalog.Generate(cfg, rng.New(21))
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	tracer := trace.New(trace.Options{Actor: "cluster", Registry: reg})
	sc := &shardCluster{
		n: n, rep: rep,
		shards:    make([]*live.MMShard, n),
		srvs:      make([]*live.MMServer, n),
		addrs:     make([]string, n),
		beatStops: make([]func(), n),
		ring:      mm.NewRing(n),
		sched:     live.NewWallScheduler(100),
		cat:       cat,
		reg:       reg,
		tracer:    tracer,
		rmSrvs:    make(map[ids.RMID]*live.RMServer),
		nodes:     make(map[ids.RMID]*rm.RM),
		disks:     make(map[ids.RMID]*vdisk.Disk),
		mmMet:     mm.NewMetrics(reg),
		smMet:     live.NewShardMapperMetrics(reg),
	}
	for i := 0; i < n; i++ {
		sc.bootShard(t, i, "")
	}
	for i := 0; i < n; i++ {
		sc.connectShard(t, i)
	}

	mapper, err := live.DialShardMapper(sc.addrs, rep, transport.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	mapper.SetRetryPolicy(2*time.Millisecond, 1)
	mapper.SetMetrics(sc.smMet)
	sc.mapper = mapper
	sc.dir = live.NewDirectory(mapper)

	master := rng.New(31)
	for i, capBW := range caps {
		id := ids.RMID(i + 1)
		disk, err := vdisk.New(units.GB, blkio.NewController(), fmt.Sprintf("vm%d", id), capBW, capBW)
		if err != nil {
			t.Fatal(err)
		}
		files := make(map[ids.FileID]rm.FileMeta)
		for f, hs := range holders {
			for _, h := range hs {
				if h == id {
					meta := cat.File(f)
					files[f] = rm.FileMeta{Bitrate: meta.Bitrate, Size: meta.Size, DurationSec: meta.DurationSec}
					if err := disk.Provision(live.FileName(f), meta.Size); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		node, err := rm.New(rm.Options{
			Info:        ecnp.RMInfo{ID: id, Capacity: capBW, StorageBytes: units.GB},
			Scheduler:   sc.sched,
			Mapper:      mapper,
			History:     history.DefaultConfig(),
			Replication: replication.DefaultConfig(replication.Static()),
			Rand:        master.Split(id.String()),
			Files:       files,
		})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := live.NewRMServer(node, disk, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv.SetTracer(tracer)
		node.SetAddr(srv.Addr())
		if err := node.Register(); err != nil {
			t.Fatal(err)
		}
		node.SetDirectory(sc.dir)
		sc.rmSrvs[id] = srv
		sc.nodes[id] = node
		sc.disks[id] = disk
	}
	return sc
}

// bootShard builds member i and binds its server. addr "" binds a fresh
// socket; a concrete addr rebinds a resurrected member to its old
// address so peers reconverge through their pooled stubs.
func (sc *shardCluster) bootShard(t *testing.T, i int, addr string) {
	t.Helper()
	shard, err := live.NewMMShard(i, sc.n, sc.rep, shardChaosBeat)
	if err != nil {
		t.Fatal(err)
	}
	shard.SetMetrics(mm.NewMetrics(sc.reg))
	shard.SetLogger(t.Logf)
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	srv, err := live.NewMMServer(shard, addr)
	if err != nil {
		t.Fatal(err)
	}
	srv.SetTracer(sc.tracer)
	sc.shards[i] = shard
	sc.srvs[i] = srv
	sc.addrs[i] = srv.Addr()
}

// connectShard dials member i's peers and starts its beat loop.
func (sc *shardCluster) connectShard(t *testing.T, i int) {
	t.Helper()
	if err := sc.shards[i].DialPeers(sc.addrs, transport.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	sc.beatStops[i] = sc.shards[i].StartShardBeats(shardChaosBeat.HeartbeatInterval)
}

// killShard stops member i's beat loop and closes its socket — the
// process-death shape: peers see silence, clients see refused dials.
func (sc *shardCluster) killShard(i int) {
	sc.beatStops[i]()
	sc.beatStops[i] = nil
	sc.shards[i].ClosePeers()
	sc.srvs[i].Close()
}

// reviveShard resurrects member i as a fresh, empty process on its old
// address — the restarted-mmd shape; the heal handoff must repopulate it.
func (sc *shardCluster) reviveShard(t *testing.T, i int) {
	t.Helper()
	sc.bootShard(t, i, sc.addrs[i])
	sc.connectShard(t, i)
}

func (sc *shardCluster) client(t *testing.T, metaTTL time.Duration) *dfsc.Client {
	t.Helper()
	c, err := dfsc.New(dfsc.Options{
		ID:        1,
		Mapper:    sc.mapper,
		Directory: sc.dir,
		Scheduler: sc.sched,
		Catalog:   sc.cat,
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
	return sc.ring.SuccessorsOfFile(int64(f), sc.rep)[0]
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
	sc := startShardCluster(t, 3, 2,
		[]units.BytesPerSec{units.Mbps(200), units.Mbps(200)},
		map[ids.FileID][]ids.RMID{0: {1, 2}, 1: {1, 2}, 2: {1, 2}, 3: {1, 2}, 4: {1, 2}, 5: {1, 2}})
	defer sc.shutdown()

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

	sc.killShard(victim)

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
	res, err := client.ReadStriped(sc.dir, coldFile, &got, dfsc.StripeConfig{Width: 1, MaxFailovers: 1})
	if err != nil {
		t.Fatalf("read with shard %d down: %v", victim, err)
	}
	wantSum, err := sc.disks[res.RMs[len(res.RMs)-1]].Checksum(live.FileName(coldFile))
	if err != nil {
		t.Fatal(err)
	}
	if sum := wire.ChecksumUpdate(wire.ChecksumBasis, got.Bytes()); sum != wantSum {
		t.Fatalf("mid-outage read checksum %x, replica %x", sum, wantSum)
	}

	// Survivors latch the death and run the takeover handoff.
	for i, s := range sc.shards {
		if i == victim {
			continue
		}
		sh := s
		waitFor(t, fmt.Sprintf("shard %d latches %d dead", i, victim), func() bool {
			return !sh.Health().Alive(victim)
		})
	}
	waitFor(t, "takeover handoff entries", func() bool {
		return sc.mmMet.HandoffTakeover.Value() > 0
	})

	// The lease cache and the successor walk both fired, and the lookup
	// that failed over is joined to its access in one trace.
	met := dfsc.NewMetrics(sc.reg)
	if met.MetaHits.Value() == 0 {
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
	// see its beats, bump its epoch, and push its keyspace back.
	sc.reviveShard(t, victim)
	for i, s := range sc.shards {
		if i == victim {
			continue
		}
		sh := s
		waitFor(t, fmt.Sprintf("shard %d revives %d", i, victim), func() bool {
			return sh.Health().Alive(victim) && sh.Health().Epoch(victim) == 1
		})
	}
	waitFor(t, "heal handoff repopulates the revived shard", func() bool {
		return len(sc.shards[victim].Manager.Lookup(coldFile)) == 2
	})
	if sc.mmMet.HandoffHeal.Value() == 0 {
		t.Fatal("heal handoff entries not counted")
	}
	// The revived shard serves its keyspace again, end to end.
	if hs := sc.mapper.Lookup(coldFile); len(hs) != 2 {
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
	sc := startShardCluster(t, 3, 2,
		[]units.BytesPerSec{units.Mbps(200), units.Mbps(200)},
		map[ids.FileID][]ids.RMID{0: {1, 2}})
	defer sc.shutdown()
	client := sc.client(t, ttl)

	if out := client.Access(0); !out.OK {
		t.Fatalf("warm-up access failed: %s", out.Reason)
	}
	if hs, ok := client.MetaCache().Get(0); !ok || len(hs) != 2 {
		t.Fatalf("lease = %v/%v, want both replicas cached", hs, ok)
	}

	// Decommission RM 1's replica, kill its daemon, and kill a shard so
	// the lease expires while the takeover handoff is in flight.
	if err := sc.mapper.RemoveReplica(0, 1); err != nil {
		t.Fatal(err)
	}
	sc.rmSrvs[1].Close()
	leaseStart := time.Now()
	sc.killShard(sc.primaryOf(0))

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
	if sc.mmMet.HandoffTakeover.Value() == 0 {
		t.Fatal("no takeover handoff ran during the lease window")
	}
}
