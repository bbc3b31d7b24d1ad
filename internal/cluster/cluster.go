// Package cluster assembles the full distributed file system inside the
// discrete-event simulation and runs the paper's experiments on it: one
// Metadata Manager, sixteen Resource Managers with the evaluation's
// heterogeneous bandwidth topology, eight DFS clients, the synthetic video
// catalog with three static replicas per file, and the multi-user NET
// access pattern.
//
// This package is the substitute for the paper's physical testbed (5 hosts,
// 25 Xen VMs under cgroup-blkio): the metrics it reports are functions of
// the bandwidth-allocation trajectory, which the DES reproduces exactly.
package cluster

import (
	"fmt"
	"time"

	"dfsqos/internal/catalog"
	"dfsqos/internal/dfsc"
	"dfsqos/internal/ecnp"
	"dfsqos/internal/history"
	"dfsqos/internal/ids"
	"dfsqos/internal/metrics"
	"dfsqos/internal/mm"
	"dfsqos/internal/qos"
	"dfsqos/internal/replication"
	"dfsqos/internal/rm"
	"dfsqos/internal/rng"
	"dfsqos/internal/selection"
	"dfsqos/internal/simtime"
	"dfsqos/internal/tenant"
	"dfsqos/internal/units"
	"dfsqos/internal/workload"
)

// PaperTopology returns the 16 RM capacities of the evaluation: "two extra
// large RMs with 128Mbps of bandwidth, i.e. RM1 and RM9; four RMs with
// 19Mbps, i.e. RM2, RM3, RM10 and RM11; and the rest of the RMs with
// 18Mbps". Index i holds the capacity of RM(i+1).
func PaperTopology() []units.BytesPerSec {
	caps := make([]units.BytesPerSec, 16)
	for i := range caps {
		caps[i] = units.Mbps(18)
	}
	caps[0] = units.Mbps(128) // RM1
	caps[8] = units.Mbps(128) // RM9
	caps[1] = units.Mbps(19)  // RM2
	caps[2] = units.Mbps(19)  // RM3
	caps[9] = units.Mbps(19)  // RM10
	caps[10] = units.Mbps(19) // RM11
	return caps
}

// ScaledTopology tiles the paper's 16-RM heterogeneous topology n times
// (n ≥ 1): the scenario engine's way of growing aggregate capacity while
// keeping the paper's large/small capacity shape intact. RM IDs remain
// 1-based positions in the tiled slice.
func ScaledTopology(n int) []units.BytesPerSec {
	if n < 1 {
		n = 1
	}
	base := PaperTopology()
	caps := make([]units.BytesPerSec, 0, n*len(base))
	for i := 0; i < n; i++ {
		caps = append(caps, base...)
	}
	return caps
}

// Config describes one experiment run.
type Config struct {
	// RMCapacities lists each RM's disk bandwidth; RM IDs are 1-based
	// indices into this slice. Nil means PaperTopology.
	RMCapacities []units.BytesPerSec
	// RMStorage is each RM's disk size (paper: 16 GB virtual disks).
	RMStorage units.Size
	// Catalog parameterizes the synthetic video corpus.
	Catalog catalog.Config
	// ReplicaDegree is the static replica count per file (paper: 3).
	ReplicaDegree int
	// Workload parameterizes the access pattern.
	Workload workload.Config
	// FlashCrowd optionally injects a sudden popularity shift into the
	// pattern (nil: none). See workload.FlashCrowd.
	FlashCrowd *workload.FlashCrowd
	// Policy is the resource-selection policy (α, β, γ).
	Policy selection.Policy
	// BroadcastCNP replaces the ECNP matchmaker lookup with a plain-CNP
	// CFP broadcast to every RM (see dfsc.Options.BroadcastCNP).
	BroadcastCNP bool
	// Scenario selects soft or firm real-time allocation.
	Scenario qos.Scenario
	// Oversub is every RM's admission oversubscription ratio: firm
	// admission accepts load up to capacity × Oversub while enforcement
	// still guarantees each reservation's assured floor (work-conserving
	// borrowing funds the excess). 0 or 1 is nominal capacity; values
	// below 1 are rejected.
	Oversub float64
	// Replication configures the dynamic replication mechanism.
	Replication replication.Config
	// GC configures cold-replica deletion (zero value: disabled).
	GC replication.GCConfig
	// History configures the RMs' two-queue trend recorders.
	History history.Config
	// MMShards distributes the Metadata Manager over a consistent-hash
	// ring of this many shards (the paper's DHT note); 0 or 1 runs the
	// single MM of the paper's experiments.
	MMShards int
	// TenantQuotas is the per-tenant quota table; when non-empty every
	// RM is built with its own tenant.Ledger seeded from it, so the
	// quotas are enforced per RM (a tenant with a 20 Mbps cap may hold
	// 20 Mbps on each RM, matching the per-device blkio enforcement of
	// the live deployment). Tenants absent from the table are
	// unlimited. Empty or nil disables tenancy entirely: no ledger is
	// installed and RMs behave exactly as before tenancy existed.
	TenantQuotas map[ids.TenantID]tenant.Quota
	// ClientTenants assigns a tenant identity to each DFSC: client i
	// acts for ClientTenants[i % len(ClientTenants)], so a two-entry
	// slice splits the client population in half. Empty leaves every
	// client untenanted (ids.NoneTenant).
	ClientTenants []ids.TenantID
	// Seed is the master seed; every stream in the run derives from it.
	Seed uint64
	// SampleEverySec enables utilization sampling at this period when
	// positive (the time series behind Figs. 4-6).
	SampleEverySec float64
}

// DefaultConfig is the paper's standard setup: 16-RM topology, 1000 files
// × 3 replicas, 256 users over 2 h, policy (1,0,0), soft real-time, static
// replication.
func DefaultConfig() Config {
	return Config{
		RMStorage:     16 * units.GB,
		Catalog:       catalog.DefaultConfig(),
		ReplicaDegree: 3,
		Workload:      workload.DefaultConfig(),
		Policy:        selection.RemOnly,
		Scenario:      qos.Soft,
		Replication:   replication.DefaultConfig(replication.Static()),
		History:       history.DefaultConfig(),
		Seed:          1,
	}
}

// Validate reports the first problem with the config, or nil.
func (c Config) Validate() error {
	if c.RMCapacities != nil {
		if len(c.RMCapacities) == 0 {
			return fmt.Errorf("cluster: empty RM topology")
		}
		for i, cap := range c.RMCapacities {
			if cap <= 0 {
				return fmt.Errorf("cluster: RM%d has non-positive capacity", i+1)
			}
		}
	}
	if c.ReplicaDegree <= 0 {
		return fmt.Errorf("cluster: ReplicaDegree must be positive, got %d", c.ReplicaDegree)
	}
	if err := c.Catalog.Validate(); err != nil {
		return err
	}
	if err := c.Workload.Validate(); err != nil {
		return err
	}
	if c.FlashCrowd != nil {
		if err := c.FlashCrowd.Validate(); err != nil {
			return err
		}
	}
	if err := c.Replication.Validate(); err != nil {
		return err
	}
	if err := c.GC.Validate(); err != nil {
		return err
	}
	if c.Oversub != 0 && c.Oversub < 1 {
		return fmt.Errorf("cluster: Oversub %g would shrink capacity below nominal", c.Oversub)
	}
	if c.SampleEverySec < 0 {
		return fmt.Errorf("cluster: negative SampleEverySec")
	}
	if c.MMShards < 0 {
		return fmt.Errorf("cluster: negative MMShards")
	}
	for t := range c.TenantQuotas {
		if !t.Valid() {
			return fmt.Errorf("cluster: quota for invalid tenant %v (real tenants are numbered from 1)", t)
		}
	}
	for i, t := range c.ClientTenants {
		if t < 0 {
			return fmt.Errorf("cluster: ClientTenants[%d] is negative", i)
		}
	}
	return nil
}

// TenantOf returns the tenant identity assigned to the given client by
// ClientTenants, or ids.NoneTenant when tenancy is off.
func (c Config) TenantOf(d ids.DFSCID) ids.TenantID {
	if len(c.ClientTenants) == 0 {
		return ids.NoneTenant
	}
	return c.ClientTenants[int(d)%len(c.ClientTenants)]
}

// Mapper is the metadata-manager surface a cluster exposes: the ECNP
// Mapper operations plus invariant validation. Both the single manager and
// the DHT-sharded manager satisfy it.
type Mapper interface {
	ecnp.Mapper
	Validate() error
}

// Cluster is a fully wired simulated deployment.
type Cluster struct {
	cfg     Config
	sched   *simtime.Scheduler
	mapper  Mapper
	rms     []*rm.RM // index i is RM(i+1)
	clients []*dfsc.Client
	cat     *catalog.Catalog
	pattern *workload.Pattern
}

// Results aggregates one run's outcome.
type Results struct {
	// PerRM holds one entry per RM in ID order.
	PerRM []metrics.RMResult
	// RMStats holds the RM event counters in the same order.
	RMStats []rm.Stats
	// TotalRequests and FailedRequests aggregate the client counters.
	TotalRequests  int64
	FailedRequests int64
	// FailRate is the firm real-time criterion.
	FailRate float64
	// OverAllocate is the soft real-time criterion Σ S_OA / Σ S_TA.
	OverAllocate float64
	// Utilization maps RM ID to its sampled allocated-bandwidth series
	// (present only when Config.SampleEverySec > 0).
	Utilization map[ids.RMID]*metrics.Series
	// HorizonSec echoes the run length.
	HorizonSec float64
	// Replications is the total number of completed dynamic copies.
	Replications int64
	// Migrations is the number of own-replica deletions after exceeding
	// the replica bound.
	Migrations int64
	// GCEvictions is the number of cold replicas deleted by the storage
	// collector.
	GCEvictions int64
	// Messages is the total control-plane message count across clients
	// (queries, CFPs, bids, opens and their replies).
	Messages int64
	// TenantUsage aggregates each tenant's end-of-run ledger state
	// summed across all RMs (nil when tenancy is off). Bandwidth and
	// Streams should be zero after a clean drain; non-zero Bytes means
	// the tenant's stored files survived the run, which is normal.
	TenantUsage map[ids.TenantID]tenant.Usage
}

// SeededCorpus derives the catalog and static placement every component of
// a deployment agrees on from the master seed alone. The live daemons
// (cmd/rmd, cmd/dfsc) use it so that an RM knows which files to provision
// and a client knows every file's bitrate without any copying step —
// exactly the streams Build uses internally, so simulation and live
// deployments of the same seed serve the same corpus.
func SeededCorpus(seed uint64, catCfg catalog.Config, numRMs, degree int) (*catalog.Catalog, *catalog.Placement, error) {
	master := rng.New(seed)
	cat, err := catalog.Generate(catCfg, master.Split("catalog"))
	if err != nil {
		return nil, nil, err
	}
	rmIDs := make([]ids.RMID, numRMs)
	for i := range rmIDs {
		rmIDs[i] = ids.RMID(i + 1)
	}
	placement, err := catalog.StaticRandom(cat, rmIDs, degree, master.Split("placement"))
	if err != nil {
		return nil, nil, err
	}
	return cat, placement, nil
}

// Build wires a cluster from cfg following the paper's initialization
// order: the MM first, then every RM registers, and the DFSCs come last.
func Build(cfg Config) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	caps := cfg.RMCapacities
	if caps == nil {
		caps = PaperTopology()
	}
	master := rng.New(cfg.Seed)

	cat, err := catalog.Generate(cfg.Catalog, master.Split("catalog"))
	if err != nil {
		return nil, err
	}
	rmIDs := make([]ids.RMID, len(caps))
	for i := range caps {
		rmIDs[i] = ids.RMID(i + 1)
	}
	placement, err := catalog.StaticRandom(cat, rmIDs, cfg.ReplicaDegree, master.Split("placement"))
	if err != nil {
		return nil, err
	}

	sched := simtime.NewScheduler()
	adapter := ecnp.SimScheduler{S: sched}
	// The single MM is seeded with the placement (the paper's setup); a
	// sharded MM starts empty and is populated by the RM registrations,
	// which carry each RM's file list.
	var mapper Mapper
	if cfg.MMShards > 1 {
		mapper = mm.NewSharded(cfg.MMShards)
	} else {
		mapper = mm.NewWithPlacement(placement)
	}

	rms := make([]*rm.RM, len(caps))
	dir := new(ecnp.StaticDirectory)
	filesOn := placement.FilesByRM()
	for i, capBW := range caps {
		id := rmIDs[i]
		files := make(map[ids.FileID]rm.FileMeta, len(filesOn[id]))
		for _, f := range filesOn[id] {
			meta := cat.File(f)
			files[f] = rm.FileMeta{
				Bitrate:     meta.Bitrate,
				Size:        meta.Size,
				DurationSec: meta.DurationSec,
			}
		}
		var ledger *tenant.Ledger
		if len(cfg.TenantQuotas) > 0 {
			ledger = tenant.NewLedger()
			for t, q := range cfg.TenantQuotas {
				ledger.Set(t, q)
			}
		}
		node, err := rm.New(rm.Options{
			Info: ecnp.RMInfo{
				ID:           id,
				Capacity:     capBW,
				StorageBytes: cfg.RMStorage,
			},
			Scheduler:   adapter,
			Mapper:      mapper,
			History:     cfg.History,
			Replication: cfg.Replication,
			GC:          cfg.GC,
			Oversub:     cfg.Oversub,
			Tenants:     ledger,
			Rand:        master.Split(fmt.Sprintf("rm/%d", id)),
			Files:       files,
		})
		if err != nil {
			return nil, err
		}
		if err := node.Register(); err != nil {
			return nil, err
		}
		rms[i] = node
		dir.Set(id, node)
	}
	for _, node := range rms {
		node.SetDirectory(dir)
	}

	clients := make([]*dfsc.Client, cfg.Workload.NumDFSC)
	for i := range clients {
		c, err := dfsc.New(dfsc.Options{
			ID:           ids.DFSCID(i),
			Mapper:       mapper,
			Directory:    dir,
			Scheduler:    adapter,
			Catalog:      cat,
			Policy:       cfg.Policy,
			Scenario:     cfg.Scenario,
			Tenant:       cfg.TenantOf(ids.DFSCID(i)),
			Rand:         master.Split(fmt.Sprintf("dfsc/%d", i)),
			BroadcastCNP: cfg.BroadcastCNP,
		})
		if err != nil {
			return nil, err
		}
		clients[i] = c
	}

	pattern, err := workload.Generate(cfg.Workload, cat, master.Split("workload"))
	if err != nil {
		return nil, err
	}
	if cfg.FlashCrowd != nil {
		if _, err := workload.ApplyFlashCrowd(pattern, cat, *cfg.FlashCrowd, master); err != nil {
			return nil, err
		}
	}

	return &Cluster{
		cfg:     cfg,
		sched:   sched,
		mapper:  mapper,
		rms:     rms,
		clients: clients,
		cat:     cat,
		pattern: pattern,
	}, nil
}

// Catalog exposes the run's file corpus.
func (c *Cluster) Catalog() *catalog.Catalog { return c.cat }

// Pattern exposes the generated access pattern.
func (c *Cluster) Pattern() *workload.Pattern { return c.pattern }

// UsePattern replaces the generated access pattern with an external trace
// (e.g. one produced by cmd/workloadgen), so the exact same request
// sequence can be replayed across configurations or fed to the live
// deployment via dfsc -replay. Must be called before Run.
func (c *Cluster) UsePattern(p *workload.Pattern) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if p.Config.NumDFSC > c.cfg.Workload.NumDFSC {
		return fmt.Errorf("cluster: trace spans %d DFSCs, cluster has %d",
			p.Config.NumDFSC, c.cfg.Workload.NumDFSC)
	}
	for i, r := range p.Requests {
		if int(r.File) >= c.cat.Len() {
			return fmt.Errorf("cluster: trace request %d targets %v beyond the catalog (%d files)",
				i, r.File, c.cat.Len())
		}
	}
	if p.Config.HorizonSec > c.cfg.Workload.HorizonSec {
		return fmt.Errorf("cluster: trace horizon %.0fs exceeds run horizon %.0fs",
			p.Config.HorizonSec, c.cfg.Workload.HorizonSec)
	}
	c.pattern = p
	return nil
}

// Observer receives every request's outcome as the run executes: the
// request as scheduled, the access outcome, and the wall-clock time the
// dispatch took (virtual time is free in the DES, so wall time is the
// engine's honest service-latency signal — it is what the scenario
// engine's percentile gates measure). Called from inside the event loop;
// keep it cheap.
type Observer func(req workload.Request, out dfsc.Outcome, wall time.Duration)

// Run feeds the access pattern to the scheduler, executes the simulation to
// the horizon and returns the accumulated results.
func (c *Cluster) Run() (*Results, error) { return c.RunWithObserver(nil) }

// dispatch routes one request to its client by operation kind: reads run
// the full three-phase access, writes run the store flow, metadata probes
// run the MM lookup only.
func (c *Cluster) dispatch(req workload.Request) dfsc.Outcome {
	cl := c.clients[int(req.DFSC)]
	switch req.Op {
	case workload.OpWrite:
		return cl.Store(req.File)
	case workload.OpMeta:
		return cl.Probe(req.File)
	default:
		return cl.Access(req.File)
	}
}

// RunWithObserver is Run with a per-request observation hook (nil
// behaves exactly like Run). Requests dispatch by their Op — the mixed
// scenarios interleave reads, bulk writes and metadata probes on one
// timeline — and obs sees every outcome with its wall-clock dispatch
// cost.
func (c *Cluster) RunWithObserver(obs Observer) (*Results, error) {
	horizon := simtime.Time(c.cfg.Workload.HorizonSec)

	// The pattern is sorted by arrival time (workload.Pattern's
	// invariant), so it is fed to the scheduler as one stream instead of
	// being queued request by request: the queue then holds only what a
	// run has pending (closes, transfers, tickers), not every arrival of
	// the horizon. A pattern that is not sorted is refused, never
	// reordered.
	reqs := c.pattern.Requests
	arrivals := make([]simtime.Time, len(reqs))
	prev := float64(c.sched.Now())
	for i := range reqs {
		at := reqs[i].AtSec
		if !(at >= prev) {
			return nil, fmt.Errorf("cluster: request %d arrives at %.3fs, before %.3fs (the previous arrival, or the clock): the pattern must be sorted by arrival time",
				i, at, prev)
		}
		arrivals[i], prev = simtime.Time(at), at
	}
	c.sched.Feed(arrivals, func(i int, _ simtime.Time) {
		req := reqs[i]
		if obs == nil {
			c.dispatch(req)
			return
		}
		start := time.Now()
		out := c.dispatch(req)
		obs(req, out, time.Since(start))
	})

	// Utilization sampling for the figure experiments.
	var series map[ids.RMID]*metrics.Series
	if c.cfg.SampleEverySec > 0 {
		series = make(map[ids.RMID]*metrics.Series, len(c.rms))
		for _, node := range c.rms {
			id := node.Info().ID
			series[id] = &metrics.Series{Name: id.String()}
		}
		c.sched.NewTicker(0, simtime.Duration(c.cfg.SampleEverySec), func(now simtime.Time) {
			for _, node := range c.rms {
				series[node.Info().ID].Append(now, float64(node.Allocated()))
			}
		})
	}

	c.sched.RunUntil(horizon)

	res := &Results{
		PerRM:       make([]metrics.RMResult, len(c.rms)),
		RMStats:     make([]rm.Stats, len(c.rms)),
		Utilization: series,
		HorizonSec:  c.cfg.Workload.HorizonSec,
	}
	for i, node := range c.rms {
		info := node.Info()
		res.PerRM[i] = metrics.RMResult{
			ID:       info.ID,
			Capacity: info.Capacity,
			Snap:     node.Snapshot(horizon),
		}
		st := node.Stats()
		res.RMStats[i] = st
		res.Replications += st.RepTransfers
		res.Migrations += st.RepMigrations
		res.GCEvictions += st.GCEvictions
		for _, u := range node.TenantUsage() {
			if res.TenantUsage == nil {
				res.TenantUsage = make(map[ids.TenantID]tenant.Usage)
			}
			agg := res.TenantUsage[u.Tenant]
			agg.Tenant, agg.Quota = u.Tenant, u.Quota
			agg.Bandwidth += u.Bandwidth
			agg.Bytes += u.Bytes
			agg.Streams += u.Streams
			res.TenantUsage[u.Tenant] = agg
		}
	}
	for _, cl := range c.clients {
		st := cl.Stats()
		res.TotalRequests += st.Requests
		res.FailedRequests += st.Failed
		res.Messages += st.Messages
	}
	res.FailRate = metrics.FailRate(res.FailedRequests, res.TotalRequests)
	res.OverAllocate = metrics.AggregateOverAllocate(res.PerRM)

	if err := c.mapper.Validate(); err != nil {
		return nil, fmt.Errorf("cluster: replica map corrupted after run: %w", err)
	}
	return res, nil
}

// RunConfig is the one-call helper used by experiments and examples.
func RunConfig(cfg Config) (*Results, error) {
	cl, err := Build(cfg)
	if err != nil {
		return nil, err
	}
	return cl.Run()
}
