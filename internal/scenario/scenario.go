// Package scenario is the million-client scenario engine: named, seeded
// workload scenarios — Zipfian hot-file skew, flash-crowd bursts, diurnal
// tides, mixed operation storms — driven open-loop through the
// discrete-event cluster at 10⁵–10⁶ simulated clients and, scaled down,
// through the live TCP stack. Every run emits per-class latency
// percentiles, fail rate and aggregate utilization, and is gated by the
// scenario's declarative SLO: a violated threshold fails the run, which
// is how scripts/scenarios.sh turns BENCH_7.json into a CI gate.
package scenario

import (
	"fmt"
	"sort"
	"time"

	"dfsqos/internal/catalog"
	"dfsqos/internal/cluster"
	"dfsqos/internal/dfsc"
	"dfsqos/internal/ids"
	"dfsqos/internal/qos"
	"dfsqos/internal/replication"
	"dfsqos/internal/rng"
	"dfsqos/internal/selection"
	"dfsqos/internal/tenant"
	"dfsqos/internal/units"
	"dfsqos/internal/workload"
)

// Tide parameterizes the diurnal modulation of a scenario relative to its
// horizon, so the same tide shape survives the short-mode horizon cut.
type Tide struct {
	// Cycles is how many full day/night cycles the horizon spans.
	Cycles float64 `json:"cycles"`
	// Amplitude is the swing in [0, 1] (see workload.Diurnal).
	Amplitude float64 `json:"amplitude"`
	// PeakFrac places the first crest as a fraction of one period.
	PeakFrac float64 `json:"peak_frac"`
}

// BurstSpec parameterizes one flash-crowd window relative to the
// scenario's horizon and population, so full and short mode keep the same
// shape at different scales.
type BurstSpec struct {
	// AtFrac and DurFrac place the window: [AtFrac·H, (AtFrac+DurFrac)·H].
	AtFrac  float64 `json:"at_frac"`
	DurFrac float64 `json:"dur_frac"`
	// Fraction of in-window traffic redirected to the crowd's target.
	Fraction float64 `json:"fraction"`
	// SurgeFactor sizes the surge population as a fraction of the base
	// population (1.5 means the crowd outnumbers the residents).
	SurgeFactor float64 `json:"surge_factor"`
}

// LiveSpec sizes the scenario's scaled-down live-TCP slice: the same
// scenario shape replayed open-loop against real MM/RM servers over
// loopback TCP, with real reservations, real disk-backed streams and the
// PR 5 tracer attached.
type LiveSpec struct {
	// Users and ShortUsers size the slice's population (short mode falls
	// back to Users when ShortUsers is 0).
	Users      int `json:"users"`
	ShortUsers int `json:"short_users,omitempty"`
	// RMs is the number of live RM servers (capacities are the first RMs
	// of the paper topology).
	RMs int `json:"rms"`
	// Files is the slice's catalog size.
	Files int `json:"files"`
	// HorizonSec is the slice's virtual horizon; wall duration is
	// HorizonSec/TimeScale.
	HorizonSec float64 `json:"horizon_sec"`
	// MeanArrivalSec is each user's mean inter-arrival time (virtual).
	MeanArrivalSec float64 `json:"mean_arrival_sec"`
	// TimeScale compresses virtual seconds into wall time (50: a 300 s
	// slice runs in 6 s).
	TimeScale float64 `json:"time_scale"`
	// MaxInflight bounds concurrently executing requests; arrivals stay
	// open-loop and queue for a free client slot beyond it.
	MaxInflight int `json:"max_inflight"`
	// StreamReads streams real file bytes through a one-lane
	// dfsc.ReadStriped (failover budget 2) instead of reserve-only
	// accesses.
	StreamReads bool `json:"stream_reads"`
}

// TenantSpec declares one tenant of a multi-tenant scenario: which
// slice of the client population acts for it and the per-RM quota
// every RM's ledger enforces against it.
type TenantSpec struct {
	// ID is the tenant identity (real tenants are numbered from 1).
	ID ids.TenantID `json:"id"`
	// Clients is how many of the scenario's DFSCs act for this tenant.
	// Tenants claim client slots in declaration order; DFSCs left over
	// after the last tenant stay untenanted.
	Clients int `json:"clients"`
	// BandwidthMbps caps the tenant's concurrently reserved bandwidth
	// on each RM, in Mbps (0: unlimited).
	BandwidthMbps float64 `json:"bandwidth_mbps,omitempty"`
	// Weight is the fair-share weight consumed by the selection
	// policy's δ term (0: tenant.DefaultWeight).
	Weight float64 `json:"weight,omitempty"`
	// Abuser marks the tenant whose removal defines the scenario's
	// no-abuser baseline pass: the run repeats with this tenant's
	// requests stripped and the victims' experience in both passes is
	// compared by the victim SLO gates.
	Abuser bool `json:"abuser,omitempty"`
}

// Spec is one named scenario: the DES-scale shape, its transforms, the
// optional live slice, and the SLO that gates the run.
type Spec struct {
	// Name and Description identify the scenario in reports.
	Name        string `json:"name"`
	Description string `json:"description"`
	// Users and ShortUsers size the simulated population in full and
	// short (CI) mode.
	Users      int `json:"users"`
	ShortUsers int `json:"short_users"`
	// DFSCs is the client count users are spread over.
	DFSCs int `json:"dfscs"`
	// MeanArrivalSec is the per-user NET mean inter-arrival time.
	MeanArrivalSec float64 `json:"mean_arrival_sec"`
	// HorizonSec / ShortHorizonSec bound the run in the two modes (short
	// falls back to HorizonSec when 0).
	HorizonSec      float64 `json:"horizon_sec"`
	ShortHorizonSec float64 `json:"short_horizon_sec,omitempty"`
	// Files sizes the catalog (0: the paper's 1000).
	Files int `json:"files,omitempty"`
	// MeanDurationSec/MinDurationSec/MaxDurationSec override the
	// catalog's video durations (0: paper defaults). Population sizing
	// hangs off these: aggregate demand is
	// users/MeanArrivalSec × duration × bitrate, so 10⁵ users at 300 s
	// inter-arrival and 60 s videos need a ~64× paper topology.
	MeanDurationSec float64 `json:"mean_duration_sec,omitempty"`
	MinDurationSec  float64 `json:"min_duration_sec,omitempty"`
	MaxDurationSec  float64 `json:"max_duration_sec,omitempty"`
	// TopologyScale tiles the paper's 16-RM topology this many times;
	// ShortTopologyScale overrides it in short mode (0: same).
	TopologyScale      int `json:"topology_scale"`
	ShortTopologyScale int `json:"short_topology_scale,omitempty"`
	// RMStorage overrides each RM's disk size (0: the paper's 16 GB) —
	// write-heavy storms need room to ingest.
	RMStorage units.Size `json:"rm_storage,omitempty"`
	// Firm selects firm real-time admission; false is soft.
	Firm bool `json:"firm,omitempty"`
	// Oversub sets every RM's admission oversubscription ratio (see
	// cluster.Config.Oversub); 0 is nominal capacity.
	Oversub float64 `json:"oversub,omitempty"`
	// RepNRep/RepNMaxR enable dynamic replication with the paper's
	// (N_rep, N_maxR) thresholds when RepNRep > 0; otherwise static.
	RepNRep  int `json:"rep_n_rep,omitempty"`
	RepNMaxR int `json:"rep_n_max_r,omitempty"`
	// ZipfSkew redraws every file choice from this hot-file skew when
	// positive (workload.ApplyZipf).
	ZipfSkew float64 `json:"zipf_skew,omitempty"`
	// Tide thins arrivals into a diurnal swing when non-nil.
	Tide *Tide `json:"tide,omitempty"`
	// Bursts injects flash-crowd windows (workload.ApplyBursts).
	Bursts []BurstSpec `json:"bursts,omitempty"`
	// Mix partitions requests into operation classes when non-nil.
	Mix *workload.Mix `json:"mix,omitempty"`
	// Policy overrides the resource-selection policy in the "(α,β,γ)"
	// or "(α,β,γ,δ)" flag syntax; empty keeps selection.RemOnly. The
	// four-component form enables the weighted-fairness δ term.
	Policy string `json:"policy,omitempty"`
	// Tenants declares the tenant population; empty runs untenanted.
	Tenants []TenantSpec `json:"tenants,omitempty"`
	// SLO gates the run.
	SLO SLO `json:"slo"`
	// Live sizes the live-TCP slice; nil skips it.
	Live *LiveSpec `json:"live,omitempty"`
}

// Options selects how a scenario runs.
type Options struct {
	// Short runs the reduced-scale CI shape (ShortUsers/ShortHorizonSec).
	Short bool
	// Seed is the master seed; every stream derives from it.
	Seed uint64
	// SkipLive skips the live-TCP slice even when the spec has one.
	SkipLive bool
	// Logf receives progress lines; nil discards them.
	Logf func(format string, args ...any)
}

func (o Options) logf(format string, args ...any) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

// Result is one scenario run's report — the unit of the BENCH_7.json
// scenarios block.
type Result struct {
	// Name echoes the spec; Users and HorizonSec the resolved scale.
	Name       string  `json:"name"`
	Users      int     `json:"users"`
	HorizonSec float64 `json:"horizon_sec"`
	// Requests and Failed aggregate the client counters; FailRate is
	// Failed/Requests (the firm real-time criterion).
	Requests int64   `json:"requests"`
	Failed   int64   `json:"failed"`
	FailRate float64 `json:"fail_rate"`
	// OverAllocate is the soft real-time criterion Σ S_OA / Σ S_TA.
	OverAllocate float64 `json:"over_allocate"`
	// Utilization is mean allocated bandwidth over aggregate capacity
	// across the run (can exceed 1 under soft over-allocation).
	Utilization float64 `json:"utilization"`
	// WorkUtilization is the exact assured-bandwidth utilization
	// Σ assured byte·seconds / (aggregate capacity × horizon) from the
	// RMs' ledger integrals: the capacity-backed fraction of the
	// allocation, never above 1 no matter how far admission
	// oversubscribes (the excess is accounted separately as
	// over-allocation).
	WorkUtilization float64 `json:"work_utilization"`
	// Replications counts completed dynamic copies.
	Replications int64 `json:"replications,omitempty"`
	// ElapsedSec is the engine's wall-clock run time.
	ElapsedSec float64 `json:"elapsed_sec"`
	// Classes breaks latency and failures out per workload class.
	Classes []ClassStats `json:"classes"`
	// Tenants breaks latency and failures out per tenant; the Class
	// field carries the tenant label ("tenant1"), with untenanted
	// clients under "tenant0". Present only for multi-tenant specs.
	Tenants []ClassStats `json:"tenants,omitempty"`
	// Victims compares the non-abuser tenants' experience against the
	// no-abuser baseline pass (present when a tenant is marked Abuser).
	Victims *VictimStats `json:"victims,omitempty"`
	// Live is the live-TCP slice's report, when it ran.
	Live *LiveResult `json:"live,omitempty"`
	// Violations lists every SLO breach; Pass is len(Violations)==0.
	Violations []Violation `json:"violations,omitempty"`
	Pass       bool        `json:"pass"`
}

// VictimStats compares the victims' (every non-abuser tenant's)
// service between the real run and the no-abuser baseline pass, which
// replays the identical pattern minus the abuser's requests on an
// otherwise identical cluster. Quota isolation working means the two
// columns are (near) identical; the victim SLO gates key on that.
type VictimStats struct {
	// FailRate and P99Ms are the victims' experience with the abuser
	// present.
	FailRate float64 `json:"fail_rate"`
	P99Ms    float64 `json:"p99_ms"`
	// BaselineFailRate and BaselineP99Ms are the same victims replayed
	// without the abuser's traffic.
	BaselineFailRate float64 `json:"baseline_fail_rate"`
	BaselineP99Ms    float64 `json:"baseline_p99_ms"`
	// Requests and BaselineRequests count the victims' requests in the
	// two passes (equal by construction — only abuser traffic is
	// stripped).
	Requests         int64 `json:"requests"`
	BaselineRequests int64 `json:"baseline_requests"`
}

// classOf labels a request for the recorder: its explicit class, or the
// default class of its operation.
func classOf(req workload.Request) string {
	if req.Class != "" {
		return req.Class
	}
	switch req.Op {
	case workload.OpWrite:
		return "bulk-write"
	case workload.OpMeta:
		return "metadata"
	default:
		return "video"
	}
}

// applyShape applies the spec's pattern transforms in place, in their
// canonical order — Zipf redraw, diurnal thinning, flash-crowd bursts,
// operation mix — scaled to the given horizon and population. The DES run
// and the live slice share it, so both replay the same scenario shape at
// their own scales.
func applyShape(spec Spec, p *workload.Pattern, cat *catalog.Catalog, src *rng.Source, horizon float64, users int) error {
	if spec.ZipfSkew > 0 {
		if err := workload.ApplyZipf(p, cat, spec.ZipfSkew, src); err != nil {
			return err
		}
	}
	if spec.Tide != nil {
		cycles := spec.Tide.Cycles
		if cycles <= 0 {
			cycles = 1
		}
		period := horizon / cycles
		d := workload.Diurnal{
			PeriodSec: period,
			Amplitude: spec.Tide.Amplitude,
			PeakSec:   spec.Tide.PeakFrac * period,
		}
		if err := workload.ApplyDiurnal(p, d, src); err != nil {
			return err
		}
	}
	if len(spec.Bursts) > 0 {
		bursts := make([]workload.Burst, len(spec.Bursts))
		for i, b := range spec.Bursts {
			bursts[i] = workload.Burst{
				AtSec:       b.AtFrac * horizon,
				DurationSec: b.DurFrac * horizon,
				Fraction:    b.Fraction,
				SurgeUsers:  int(b.SurgeFactor * float64(users)),
			}
		}
		if _, err := workload.ApplyBursts(p, cat, bursts, src); err != nil {
			return err
		}
	}
	if spec.Mix != nil {
		if err := workload.ApplyMix(p, *spec.Mix, src); err != nil {
			return err
		}
	}
	return nil
}

// Run executes one scenario: build the DES cluster at the mode's scale,
// apply the spec's transforms to the pattern, replay it open-loop with a
// per-class recorder attached, optionally drive the live-TCP slice, and
// evaluate the SLO.
func Run(spec Spec, opts Options) (*Result, error) {
	r, _, err := run(spec, opts)
	return r, err
}

// run is Run that also hands back the DES run's cluster results.
func run(spec Spec, opts Options) (*Result, *cluster.Results, error) {
	users, horizon, scale := spec.Users, spec.HorizonSec, spec.TopologyScale
	if opts.Short {
		if spec.ShortUsers > 0 {
			users = spec.ShortUsers
		}
		if spec.ShortHorizonSec > 0 {
			horizon = spec.ShortHorizonSec
		}
		if spec.ShortTopologyScale > 0 {
			scale = spec.ShortTopologyScale
		}
	}

	cfg := cluster.DefaultConfig()
	cfg.RMCapacities = cluster.ScaledTopology(scale)
	if spec.RMStorage > 0 {
		cfg.RMStorage = spec.RMStorage
	}
	if spec.Files > 0 {
		cfg.Catalog.NumFiles = spec.Files
	}
	if spec.MeanDurationSec > 0 {
		cfg.Catalog.MeanDurationSec = spec.MeanDurationSec
	}
	if spec.MinDurationSec > 0 {
		cfg.Catalog.MinDurationSec = spec.MinDurationSec
	}
	if spec.MaxDurationSec > 0 {
		cfg.Catalog.MaxDurationSec = spec.MaxDurationSec
	}
	cfg.Workload = workload.Config{
		NumUsers:       users,
		NumDFSC:        spec.DFSCs,
		MeanArrivalSec: spec.MeanArrivalSec,
		HorizonSec:     horizon,
	}
	if spec.Firm {
		cfg.Scenario = qos.Firm
	}
	if spec.Oversub > 0 {
		cfg.Oversub = spec.Oversub
	}
	if spec.RepNRep > 0 {
		cfg.Replication = replication.DefaultConfig(replication.Rep(spec.RepNRep, spec.RepNMaxR))
	}
	if spec.Policy != "" {
		pol, err := selection.ParsePolicy(spec.Policy)
		if err != nil {
			return nil, nil, fmt.Errorf("scenario %s: %w", spec.Name, err)
		}
		cfg.Policy = pol
	}
	abusers := make(map[ids.TenantID]bool)
	if len(spec.Tenants) > 0 {
		cfg.TenantQuotas = make(map[ids.TenantID]tenant.Quota, len(spec.Tenants))
		assign := make([]ids.TenantID, spec.DFSCs)
		next := 0
		for _, ts := range spec.Tenants {
			q := tenant.Unlimited
			if ts.BandwidthMbps > 0 {
				q.Bandwidth = units.Mbps(ts.BandwidthMbps)
			}
			if ts.Weight > 0 {
				q.Weight = ts.Weight
			}
			cfg.TenantQuotas[ts.ID] = q
			if ts.Abuser {
				abusers[ts.ID] = true
			}
			for i := 0; i < ts.Clients && next < len(assign); i++ {
				assign[next] = ts.ID
				next++
			}
		}
		cfg.ClientTenants = assign
	}
	cfg.Seed = opts.Seed
	// Sample allocated bandwidth at 64 points across the horizon for the
	// aggregate-utilization figure.
	cfg.SampleEverySec = horizon / 64

	cl, err := cluster.Build(cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("scenario %s: %w", spec.Name, err)
	}

	// Transforms draw from streams derived from the master seed and the
	// scenario name, so two scenarios in one run share no randomness.
	src := rng.New(opts.Seed).Split("scenario/" + spec.Name)
	p := cl.Pattern()
	if err := applyShape(spec, p, cl.Catalog(), src, horizon, users); err != nil {
		return nil, nil, fmt.Errorf("scenario %s: %w", spec.Name, err)
	}

	opts.logf("scenario %s: %d users, %d requests over %.0fs (%d RMs)",
		spec.Name, users, p.Len(), horizon, len(cfg.RMCapacities))

	rec := NewRecorder()
	var tenantRec, victimRec *Recorder
	if len(spec.Tenants) > 0 {
		tenantRec = NewRecorder()
		victimRec = NewRecorder()
	}
	start := time.Now()
	res, err := cl.RunWithObserver(func(req workload.Request, out dfsc.Outcome, wall time.Duration) {
		rec.Observe(classOf(req), wall, out.OK)
		if tenantRec != nil {
			tn := cfg.TenantOf(req.DFSC)
			tenantRec.Observe(tn.String(), wall, out.OK)
			if tn.Valid() && !abusers[tn] {
				victimRec.Observe("victims", wall, out.OK)
			}
		}
	})
	if err != nil {
		return nil, nil, fmt.Errorf("scenario %s: %w", spec.Name, err)
	}

	// Aggregate utilization: the mean of each RM's sampled allocation
	// over the aggregate capacity of the topology. Summed in RM-ID order
	// — float addition is not associative, and random map order would
	// perturb the last bit between same-seed runs.
	rmIDs := make([]ids.RMID, 0, len(res.Utilization))
	for id := range res.Utilization {
		rmIDs = append(rmIDs, id)
	}
	sort.Slice(rmIDs, func(i, j int) bool { return rmIDs[i] < rmIDs[j] })
	var allocated, capacity float64
	for _, id := range rmIDs {
		allocated += res.Utilization[id].Mean()
	}
	for _, c := range cfg.RMCapacities {
		capacity += float64(c)
	}
	// The work-conserving utilization comes from the ledgers' exact
	// assured integrals, not the sampled series: it is the fraction of
	// real disk capacity the run kept committed.
	var assuredByteSecs float64
	for _, pr := range res.PerRM {
		assuredByteSecs += pr.Snap.AssuredByteSecs
	}

	r := &Result{
		Name:         spec.Name,
		Users:        users,
		HorizonSec:   horizon,
		Requests:     res.TotalRequests,
		Failed:       res.FailedRequests,
		FailRate:     res.FailRate,
		OverAllocate: res.OverAllocate,
		Replications: res.Replications,
		ElapsedSec:   time.Since(start).Seconds(),
		Classes:      rec.Stats(),
	}
	if capacity > 0 {
		r.Utilization = allocated / capacity
		if horizon > 0 {
			r.WorkUtilization = assuredByteSecs / (capacity * horizon)
		}
	}
	if tenantRec != nil {
		r.Tenants = tenantRec.Stats()
	}

	if len(abusers) > 0 {
		vict := victimStatsOf(victimRec)
		base, err := runVictimBaseline(spec, cfg, opts, horizon, users, abusers)
		if err != nil {
			return nil, nil, fmt.Errorf("scenario %s: baseline pass: %w", spec.Name, err)
		}
		vict.BaselineFailRate = base.FailRate
		vict.BaselineP99Ms = base.P99Ms
		vict.BaselineRequests = base.Requests
		r.Victims = &vict
		opts.logf("scenario %s: victims fail rate %.4f (baseline %.4f), p99 %.3fms (baseline %.3fms)",
			spec.Name, vict.FailRate, vict.BaselineFailRate, vict.P99Ms, vict.BaselineP99Ms)
	}

	if spec.Live != nil && !opts.SkipLive {
		lr, err := runLive(spec, opts)
		if err != nil {
			return nil, nil, fmt.Errorf("scenario %s: live slice: %w", spec.Name, err)
		}
		r.Live = lr
	}

	r.Violations = spec.SLO.Check(r)
	r.Pass = len(r.Violations) == 0
	return r, res, nil
}

// victimStatsOf extracts the victims' fail rate and p99 from the
// single-class "victims" recorder.
func victimStatsOf(rec *Recorder) VictimStats {
	var v VictimStats
	for _, c := range rec.Stats() {
		if c.Class == "victims" {
			v.FailRate = c.FailRate()
			v.P99Ms = c.P99Ms
			v.Requests = c.Count
		}
	}
	return v
}

// runVictimBaseline replays the scenario on an identically built and
// seeded cluster with every abuser-tenant request stripped from the
// pattern, and returns the victims' experience in that quiet world.
// Build and applyShape re-derive the same streams from the master seed,
// so the baseline's victims see byte-identical traffic — the only
// difference is the abuser's absence.
func runVictimBaseline(spec Spec, cfg cluster.Config, opts Options, horizon float64, users int, abusers map[ids.TenantID]bool) (VictimStats, error) {
	cl, err := cluster.Build(cfg)
	if err != nil {
		return VictimStats{}, err
	}
	src := rng.New(opts.Seed).Split("scenario/" + spec.Name)
	p := cl.Pattern()
	if err := applyShape(spec, p, cl.Catalog(), src, horizon, users); err != nil {
		return VictimStats{}, err
	}
	kept := make([]workload.Request, 0, len(p.Requests))
	for _, req := range p.Requests {
		if !abusers[cfg.TenantOf(req.DFSC)] {
			kept = append(kept, req)
		}
	}
	if err := cl.UsePattern(&workload.Pattern{Config: p.Config, Requests: kept}); err != nil {
		return VictimStats{}, err
	}
	rec := NewRecorder()
	if _, err := cl.RunWithObserver(func(req workload.Request, out dfsc.Outcome, wall time.Duration) {
		tn := cfg.TenantOf(req.DFSC)
		if tn.Valid() && !abusers[tn] {
			rec.Observe("victims", wall, out.OK)
		}
	}); err != nil {
		return VictimStats{}, err
	}
	return victimStatsOf(rec), nil
}

// Builtin returns the named scenario catalog: the five canonical load
// shapes the acceptance gates run. Find(name) retrieves one.
func Builtin() []Spec {
	return []Spec{
		{
			Name:        "zipfian-hotset",
			Description: "Zipf-1.1 hot-file skew over a 4000-file corpus: the popularity regime where a handful of files draws most of the traffic and soft over-allocation absorbs the hot-replica contention.",
			Users:       100_000, ShortUsers: 2_000,
			DFSCs:          64,
			MeanArrivalSec: 300,
			HorizonSec:     600, ShortHorizonSec: 300,
			Files:           4_000,
			MeanDurationSec: 60, MinDurationSec: 15, MaxDurationSec: 180,
			TopologyScale: 64, ShortTopologyScale: 2,
			ZipfSkew: 1.1,
			SLO: SLO{
				MaxP50Sec:       0.050,
				MaxP99Sec:       0.250,
				MaxP999Sec:      1.0,
				MaxFailRate:     0.02,
				MinUtilization:  0.05,
				MaxLiveFailRate: 0.60,
				MaxLiveP99Sec:   30,
			},
			Live: &LiveSpec{
				Users: 48, ShortUsers: 24,
				RMs: 4, Files: 24,
				HorizonSec:     240,
				MeanArrivalSec: 40,
				TimeScale:      50,
				MaxInflight:    16,
				StreamReads:    true,
			},
		},
		{
			Name:        "flash-crowd",
			Description: "A crowd half the size of the resident population converges on one unpopular file for 40% of the horizon under firm admission, with dynamic replication (N_rep=1, N_maxR=8) spreading the target.",
			Users:       100_000, ShortUsers: 2_000,
			DFSCs:          64,
			MeanArrivalSec: 1800,
			HorizonSec:     600, ShortHorizonSec: 300,
			Files:           2_000,
			MeanDurationSec: 60, MinDurationSec: 15, MaxDurationSec: 180,
			TopologyScale: 16, ShortTopologyScale: 1,
			Firm:    true,
			RepNRep: 1, RepNMaxR: 8,
			Bursts: []BurstSpec{{AtFrac: 0.3, DurFrac: 0.4, Fraction: 0.35, SurgeFactor: 0.5}},
			SLO: SLO{
				MaxP50Sec:       0.050,
				MaxP99Sec:       0.250,
				MaxP999Sec:      1.0,
				MaxFailRate:     0.60,
				MinUtilization:  0.05,
				MaxLiveFailRate: 0.60,
				MaxLiveP99Sec:   30,
			},
			Live: &LiveSpec{
				Users: 48, ShortUsers: 24,
				RMs: 4, Files: 24,
				HorizonSec:     240,
				MeanArrivalSec: 40,
				TimeScale:      50,
				MaxInflight:    16,
			},
		},
		{
			Name:        "diurnal-tide",
			Description: "Two day/night cycles with an 80% swing: arrivals thin to a trough and crest twice, exercising reservation turnover across load levels.",
			Users:       120_000, ShortUsers: 2_400,
			DFSCs:          64,
			MeanArrivalSec: 300,
			HorizonSec:     600, ShortHorizonSec: 300,
			Files:           2_000,
			MeanDurationSec: 60, MinDurationSec: 15, MaxDurationSec: 180,
			TopologyScale: 64, ShortTopologyScale: 2,
			Tide: &Tide{Cycles: 2, Amplitude: 0.8, PeakFrac: 0.25},
			SLO: SLO{
				MaxP50Sec:       0.050,
				MaxP99Sec:       0.250,
				MaxP999Sec:      1.0,
				MaxFailRate:     0.02,
				MinUtilization:  0.05,
				MaxLiveFailRate: 0.60,
				MaxLiveP99Sec:   30,
			},
			Live: &LiveSpec{
				Users: 48, ShortUsers: 24,
				RMs: 4, Files: 24,
				HorizonSec:     240,
				MeanArrivalSec: 40,
				TimeScale:      50,
				MaxInflight:    16,
				StreamReads:    true,
			},
		},
		{
			Name:        "mixed-storm",
			Description: "Bitrate video (67%) + bulk ingest writes (8%) + a small-file metadata storm (25%) interleaved on one timeline, with 64 GB disks absorbing the ingest and admission oversubscribed 1.25× over nominal capacity.",
			Users:       100_000, ShortUsers: 2_000,
			DFSCs:          64,
			MeanArrivalSec: 1200,
			HorizonSec:     600, ShortHorizonSec: 300,
			Files:           2_000,
			MeanDurationSec: 60, MinDurationSec: 15, MaxDurationSec: 180,
			TopologyScale: 16, ShortTopologyScale: 1,
			RMStorage: 64 * units.GB,
			Oversub:   1.25,
			Mix: &workload.Mix{
				Shares: []workload.ClassShare{
					{Class: "bulk-write", Op: workload.OpWrite, Fraction: 0.08},
					{Class: "metadata", Op: workload.OpMeta, Fraction: 0.25},
				},
			},
			SLO: SLO{
				MaxP50Sec:          0.050,
				MaxP99Sec:          0.250,
				MaxP999Sec:         1.0,
				MaxFailRate:        0.30,
				MinUtilization:     0.05,
				MinWorkUtilization: 0.04,
				MaxLiveFailRate:    0.60,
				MaxLiveP99Sec:      30,
			},
			Live: &LiveSpec{
				Users: 48, ShortUsers: 24,
				RMs: 4, Files: 24,
				HorizonSec:     240,
				MeanArrivalSec: 40,
				TimeScale:      50,
				MaxInflight:    16,
			},
		},
		{
			Name:        "noisy-neighbor",
			Description: "Two tenants split the client population in half; the abuser is bandwidth-capped at 2 Mbps per RM under the weighted-fairness policy (1,0,0,2) while the victim tenant runs unlimited, and a no-abuser baseline pass proves quota isolation: the victims' fail rate may not rise and the abuser's must show the quota biting.",
			Users:       100_000, ShortUsers: 2_000,
			DFSCs:          64,
			MeanArrivalSec: 600,
			HorizonSec:     600, ShortHorizonSec: 300,
			Files:           2_000,
			MeanDurationSec: 60, MinDurationSec: 15, MaxDurationSec: 180,
			TopologyScale: 32, ShortTopologyScale: 1,
			Policy: "(1,0,0,2)",
			Tenants: []TenantSpec{
				{ID: 1, Clients: 32, BandwidthMbps: 2, Weight: 1, Abuser: true},
				{ID: 2, Clients: 32, Weight: 4},
			},
			SLO: SLO{
				MaxP50Sec:      0.050,
				MaxP99Sec:      0.250,
				MaxP999Sec:     1.0,
				MaxFailRate:    0.80,
				MinUtilization: 0.02,
				PerTenant: []TenantSLO{
					// The quota must actually bite the abuser...
					{Tenant: 1, MinFailRate: 0.05},
					// ...while the victim tenant sails through.
					{Tenant: 2, MaxFailRate: 0.01, MaxP99Sec: 0.250},
				},
				MaxVictimFailRateDelta: 0.005,
				MaxVictimP99Sec:        0.250,
				MaxLiveFailRate:        0.60,
				MaxLiveP99Sec:          30,
			},
			Live: &LiveSpec{
				Users: 48, ShortUsers: 24,
				RMs: 4, Files: 24,
				HorizonSec:     240,
				MeanArrivalSec: 40,
				TimeScale:      50,
				MaxInflight:    16,
			},
		},
	}
}

// Find returns the builtin scenario with the given name.
func Find(name string) (Spec, error) {
	for _, s := range Builtin() {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("scenario: unknown scenario %q", name)
}
