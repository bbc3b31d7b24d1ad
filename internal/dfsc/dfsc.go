// Package dfsc implements the Distributed File System Client — the
// Requester role of the ECNP model. On each user request the client runs
// the paper's three-phase resource-management flow: it queries the Metadata
// Manager for the eligible RMs (resource exploration), fans a
// Call-For-Proposal out to all of them and scores the returned bids with
// the configured resource-selection policy (resource negotiation), and then
// opens the data access on the winner (data communication), holding the
// bandwidth reservation for the file's playback duration.
//
// In the paper the client sits behind FUSE: the MM query is issued from the
// readdir callback, CFP fan-out and selection from open, and the transfer
// from read/write. Package fsapi binds those callbacks to this client.
//
// The open read handle is the read engine (stripe.go): OpenRead negotiates
// a file's lanes once and holds them, every Reader.ReadAt is a ranged run
// of the segment scheduler over them, and Close releases them. ReadStriped
// is a handle opened for one whole-file run.
package dfsc

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"dfsqos/internal/catalog"
	"dfsqos/internal/ecnp"
	"dfsqos/internal/ids"
	"dfsqos/internal/qos"
	"dfsqos/internal/rng"
	"dfsqos/internal/selection"
	"dfsqos/internal/simtime"
	"dfsqos/internal/trace"
	"dfsqos/internal/transport"
)

// Stats counts request outcomes and protocol traffic at one client,
// including the data-plane segment counters the stripe scheduler
// produces — the client API view of the read path, mirroring the
// registry's dfsqos_dfsc_* series.
type Stats struct {
	// Requests is the number of accesses attempted (striped reads count
	// one per admitted lane — each lane holds its own reservation).
	Requests int64
	// Failed is the number of firm-scenario requests refused by every
	// eligible RM ("fail rate" numerator).
	Failed int64
	// NoReplica counts requests for files with no registered replica.
	NoReplica int64
	// Completed counts accesses whose reservation has been released.
	Completed int64
	// Failovers counts read lanes re-admitted on another replica after
	// their serving RM died mid-stream.
	Failovers int64
	// Segments counts data-plane segments delivered to readers: one per
	// committed byte range.
	Segments int64
	// Hedges counts speculative re-issues of a lagging lane's segment to
	// another replica; HedgesWon counts those where the hedge beat the
	// original (first-writer-wins).
	Hedges    int64
	HedgesWon int64
	// Messages counts control-plane messages this client exchanged:
	// matchmaker queries and replies, CFPs and bids, opens and their
	// results. It is the quantity behind the paper\'s claim that the ECNP
	// matchmaker "avoid[s] excessive redundant messages" versus plain CNP
	// broadcast (compare with Options.BroadcastCNP).
	Messages int64
	// Oversubscribed counts admitted lanes whose winning bid could no
	// longer cover the request from its assured (nominal-capacity)
	// headroom — the stream was admitted into the RM's advertised
	// oversubscription ceiling instead.
	Oversubscribed int64
}

// Outcome describes one access attempt.
type Outcome struct {
	Request ids.RequestID
	File    ids.FileID
	// RM is the serving RM, or ids.NoneRM on failure.
	RM ids.RMID
	// OK reports whether the access was admitted.
	OK bool
	// Code is the RM refusal behind a failure (the last one when every
	// replica refused), or zero when no RM refused.
	Code ecnp.Refusal
	// Reason is a short diagnostic when OK is false.
	Reason string
}

// Fanout configures how the client collects bids during resource
// negotiation (phase 2).
type Fanout struct {
	// Concurrent issues the CFPs in parallel, every eligible provider's at
	// once — the shape the paper's Fig. 3 broadcast implies. The
	// default (false) keeps the serial fan-out the deterministic
	// discrete-event simulation requires; live deployments should enable
	// it so one stalled RM does not serialize the negotiation.
	Concurrent bool
	// BidTimeout bounds the wall-clock wait for bids when Concurrent is
	// set. Providers that have not answered by the deadline degrade to
	// the paper's "always bid" deviation: the client synthesizes a
	// last-ranked zero bid for them instead of blocking the open. Zero
	// waits for every provider (each still bounded by the transport's
	// own call deadline).
	BidTimeout time.Duration
}

// Client is one DFSC.
type Client struct {
	mu sync.Mutex

	id        ids.DFSCID
	mapper    ecnp.Mapper
	dir       ecnp.Directory
	sched     ecnp.Scheduler
	cat       *catalog.Catalog
	policy    selection.Policy
	scen      qos.Scenario
	src       *rng.Source
	broadcast bool
	fanout    Fanout
	meta      *MetaCache
	met       *Metrics
	tracer    *trace.Tracer
	tenant    ids.TenantID

	// workers runs the CFPs of a concurrent fan-out; nil on the serial
	// path, which the simulation's clients — 10⁵ of them — all take.
	workers *bidWorkers

	reqSeq int64
	stats  Stats
}

// Options configures a new client.
type Options struct {
	ID        ids.DFSCID
	Mapper    ecnp.Mapper
	Directory ecnp.Directory
	Scheduler ecnp.Scheduler
	Catalog   *catalog.Catalog
	Policy    selection.Policy
	Scenario  qos.Scenario
	Rand      *rng.Source
	// BroadcastCNP disables the ECNP matchmaker shortcut: instead of
	// querying the MM for the replica holders, the client broadcasts the
	// CFP to every registered RM (the original CNP model) and filters the
	// bids by HasReplica. QoS outcomes are identical; the message count
	// is not — which is the point of the comparison.
	BroadcastCNP bool
	// Fanout selects serial (simulation) or concurrent deadline-bounded
	// (live) CFP bid collection.
	Fanout Fanout
	// MetaTTL, when positive, arms the metadata lease cache: lookup
	// answers are cached for this long, and opens within the lease skip
	// the MM round trip entirely (see MetaCache). Zero disables caching,
	// the pre-lease behavior. A failed open invalidates the file's lease
	// before the failover re-negotiation re-resolves it.
	MetaTTL time.Duration
	// Metrics routes client telemetry to a registry (nil means no-op; the
	// discrete-event simulation pays a few uncollected atomic ops).
	Metrics *Metrics
	// Tracer enables request-scoped span tracing: each access opens a
	// "dfsc.access" root span (trace ID = the request ID) with child spans
	// for the MM lookup, the CFP fan-out, and each open attempt, and the
	// span contexts ride the wire to the MM and RM servers. Nil disables
	// tracing at zero cost (all span operations no-op).
	Tracer *trace.Tracer
	// Tenant is the identity every request from this client runs under:
	// stamped on CFPs and opens (where tenanted RMs enforce quotas and
	// weigh fairness), on StoreFile byte charges, and on the access root
	// span. Zero (NoneTenant) preserves untenanted behaviour everywhere.
	Tenant ids.TenantID
}

// New constructs a client.
func New(opt Options) (*Client, error) {
	if opt.Mapper == nil || opt.Directory == nil || opt.Scheduler == nil || opt.Catalog == nil || opt.Rand == nil {
		return nil, fmt.Errorf("dfsc: DFSC%d: Mapper, Directory, Scheduler, Catalog and Rand are required", opt.ID)
	}
	met := opt.Metrics
	if met == nil {
		met = NewMetrics(nil)
	}
	var meta *MetaCache
	if opt.MetaTTL > 0 {
		meta = NewMetaCache(opt.MetaTTL)
	}
	var workers *bidWorkers
	if opt.Fanout.Concurrent {
		workers = newBidWorkers()
	}
	return &Client{
		id:        opt.ID,
		mapper:    opt.Mapper,
		dir:       opt.Directory,
		sched:     opt.Scheduler,
		cat:       opt.Catalog,
		policy:    opt.Policy,
		scen:      opt.Scenario,
		src:       opt.Rand,
		broadcast: opt.BroadcastCNP,
		fanout:    opt.Fanout,
		workers:   workers,
		meta:      meta,
		met:       met,
		tracer:    opt.Tracer,
		tenant:    opt.Tenant,
	}, nil
}

// ID returns the client's identifier.
func (c *Client) ID() ids.DFSCID { return c.id }

// MetaCache exposes the metadata lease cache (nil when MetaTTL was zero);
// tests drive its clock through it.
func (c *Client) MetaCache() *MetaCache { return c.meta }

// Stats returns a copy of the client's counters.
func (c *Client) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Access runs the full three-phase flow for one file request and, when
// admitted, schedules the release of the reservation after the file's
// playback duration. It returns the outcome of the open.
func (c *Client) Access(file ids.FileID) Outcome {
	out, p := c.negotiate(file)
	if out.OK {
		c.scheduleClose(p, out.Request, c.cat.File(file).DurationSec)
	}
	return out
}

// Probe runs only phase 1 of the flow — the Metadata Manager lookup — and
// returns without reserving bandwidth: the metadata-only request shape of
// small-file storms, where the MM round trip IS the request. It counts
// toward Requests/Messages like any access; a file with no registered
// replica counts as NoReplica+Failed, mirroring the read path's outcome
// for the same condition.
func (c *Client) Probe(file ids.FileID) Outcome {
	req := c.nextRequestID()
	c.mu.Lock()
	c.stats.Requests++
	c.mu.Unlock()

	holders := c.mapper.Lookup(file)
	c.addMessages(2) // query + reply
	if len(holders) == 0 {
		c.mu.Lock()
		c.stats.NoReplica++
		c.stats.Failed++
		c.mu.Unlock()
		c.met.NoReplica.Inc()
		return Outcome{Request: req, File: file, RM: ids.NoneRM, OK: false, Reason: "no replica registered"}
	}
	c.mu.Lock()
	c.stats.Completed++
	c.mu.Unlock()
	return Outcome{Request: req, File: file, RM: holders[0], OK: true}
}

// AccessHeld runs the same negotiation but leaves the reservation open
// until the returned release function is called: one lane, reserved and
// not read. release is idempotent and non-nil even on failure.
func (c *Client) AccessHeld(file ids.FileID) (Outcome, func()) {
	grants, fail := c.negotiateLanes(context.Background(), file, nil, 1)
	if len(grants) == 0 {
		return fail, func() {}
	}
	var once sync.Once
	return grants[0].out, func() { once.Do(func() { c.release(grants[0]) }) }
}

// release closes g's reservation. A read handle's leases call it exactly
// once per grant; AccessHeld guards it for callers that might not.
func (c *Client) release(g grant) {
	g.p.Close(g.out.Request)
	c.mu.Lock()
	c.stats.Completed++
	c.mu.Unlock()
}

// Store runs the write half of the data communication phase: "data can be
// stored into the selected storage resource". Every registered RM (not
// just replica holders — a new file has none) answers the CFP; the
// best-scoring RM that admits the reservation and the store receives the
// file, and the MM records the new replica. The write occupies the RM's
// bandwidth for the file's duration, like a streaming ingest.
func (c *Client) Store(file ids.FileID) Outcome {
	req := c.nextRequestID()
	c.mu.Lock()
	c.stats.Requests++
	c.mu.Unlock()

	f := c.cat.File(file)
	cfp := ecnp.CFP{Request: req, File: file, Bitrate: f.Bitrate, DurationSec: f.DurationSec, Tenant: c.tenant}

	var candidates []ids.RMID
	for _, info := range c.mapper.RMs() {
		candidates = append(candidates, info.ID)
	}
	bids, providers := c.collectBids(context.Background(), candidates, cfp, false)
	if len(bids) == 0 {
		c.mu.Lock()
		c.stats.Failed++
		c.mu.Unlock()
		return Outcome{Request: req, File: file, RM: ids.NoneRM, OK: false, Reason: "no reachable RM"}
	}

	var order []ids.RMID
	c.mu.Lock()
	if c.policy.IsRandom() {
		order = make([]ids.RMID, len(bids))
		for i, b := range bids {
			order[i] = b.RM
		}
		c.src.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	} else {
		order = selection.Rank(c.policy, bids)
	}
	firm := c.scen.IsFirm()
	c.mu.Unlock()

	store := ecnp.StoreRequest{File: file, Bitrate: f.Bitrate, SizeBytes: f.Size, DurationSec: f.DurationSec, Tenant: c.tenant}
	open := ecnp.OpenRequest{Request: req, File: file, Bitrate: f.Bitrate, DurationSec: f.DurationSec, Firm: firm, Tenant: c.tenant}
	for _, rmID := range order {
		p := providers[bidIndex(bids, rmID)]
		// An RM already holding the file cannot store it again.
		if err := p.StoreFile(store); err != nil {
			continue
		}
		res := p.Open(open)
		if !res.OK {
			// Keep the stored replica only if the MM accepts it even
			// without an ingest reservation? No: an un-ingested store is
			// dead weight — undo by leaving it unregistered and move on.
			continue
		}
		if err := c.mapper.AddReplica(file, rmID); err != nil {
			p.Close(req)
			continue
		}
		c.scheduleClose(p, req, f.DurationSec)
		return Outcome{Request: req, File: file, RM: rmID, OK: true}
	}

	c.mu.Lock()
	c.stats.Failed++
	c.mu.Unlock()
	return Outcome{Request: req, File: file, RM: ids.NoneRM, OK: false, Reason: "no RM could store the file"}
}

// negotiate performs phases 1-3 and returns the outcome plus the serving
// provider (nil on failure).
func (c *Client) negotiate(file ids.FileID) (Outcome, ecnp.Provider) {
	grants, fail := c.negotiateLanes(context.Background(), file, nil, 1)
	if len(grants) == 0 {
		return fail, nil
	}
	return grants[0].out, grants[0].p
}

// ctxMapper is optionally implemented by Mappers whose Lookup round trip
// can carry a context (the live MMClient): the lookup span rides the wire
// to the MM, which opens a matching server span.
type ctxMapper interface {
	LookupContext(ctx context.Context, file ids.FileID) []ids.RMID
}

// errMapper is optionally implemented by Mappers whose lookup can report
// a transport failure (the live MMClient). ecnp.Mapper's Lookup
// signature swallows errors, which made a dead MM indistinguishable from
// a file with no replicas; through this interface the failure surfaces
// with the transport taxonomy intact and is counted by class.
type errMapper interface {
	LookupErrContext(ctx context.Context, file ids.FileID) ([]ids.RMID, error)
}

// classifyLookupErr maps a lookup failure onto the
// dfsqos_dfsc_lookup_errors_total class labels.
func classifyLookupErr(err error) string {
	var ce *transport.ConnError
	switch {
	case transport.IsRemote(err):
		return "remote"
	case transport.IsTimeout(err):
		return "timeout"
	case errors.As(err, &ce):
		return "conn"
	}
	return "other"
}

// ctxOpener is optionally implemented by Providers whose Open round trip
// can carry a context (the live RMClient), so the admission decision joins
// the request's trace on the RM side.
type ctxOpener interface {
	OpenContext(ctx context.Context, req ecnp.OpenRequest) ecnp.OpenResult
}

// grant is one admitted lane of a (possibly K-wide) negotiation: the
// admission outcome plus the provider holding its reservation.
type grant struct {
	out Outcome
	p   ecnp.Provider
}

// negotiateLanes runs one three-phase negotiation admitting up to k
// concurrent lanes: phases 1 (MM lookup) and 2 (CFP fan-out + scoring)
// run exactly once, then phase 3 walks the ranked bidders admitting each
// under its own reservation until k lanes hold or the ranking is
// exhausted. Fewer than k grants is not an error — the striped reader
// degrades its width to what the replica set supports. With zero grants
// the failure Outcome describes why (the same outcomes the 1-wide path
// has always produced). When tracing is enabled the whole negotiation is
// spanned: a "dfsc.access" span (root, or a child of any span already in
// ctx) covering phases 1-3, with children "dfsc.lookup" (resource
// exploration), "dfsc.bid" (CFP fan-out), and one "dfsc.open" per
// admission attempt — each propagated to the serving daemon over the
// wire so the trace stitches client and server halves together.
func (c *Client) negotiateLanes(ctx context.Context, file ids.FileID, exclude map[ids.RMID]bool, k int) ([]grant, Outcome) {
	start := time.Now()
	defer func() { c.met.NegotiationLatency.Observe(time.Since(start).Seconds()) }()

	req := c.nextRequestID()
	c.mu.Lock()
	c.stats.Requests++
	c.mu.Unlock()

	var sp *trace.Span
	if parent := trace.FromContext(ctx); parent.Valid() {
		sp = c.tracer.StartChild(parent, "dfsc.access")
	} else {
		sp = c.tracer.StartRoot(req, "dfsc.access")
	}
	sp.SetFile(file).SetRequest(req).SetTenant(c.tenant)
	defer sp.End()

	f := c.cat.File(file)

	// Phase 1 — resource exploration. Under ECNP the MM answers the list
	// of eligible RMs (those holding a replica; issued from readdir in
	// the paper): 1 query + 1 reply — unless a metadata lease covers the
	// file, in which case the open skips the MM entirely. Under plain-CNP
	// broadcast there is no matchmaker: the CFP goes to every registered RM.
	var holders []ids.RMID
	fromLease := false
	lookupSp := c.tracer.StartChild(sp.Context(), "dfsc.lookup").SetFile(file)
	if c.broadcast {
		for _, info := range c.mapper.RMs() {
			holders = append(holders, info.ID)
		}
		c.addMessages(2) // resource-list fetch + reply
		lookupSp.SetOutcome("ok").End()
	} else {
		var lookupErr error
		holders, fromLease, lookupErr = c.lookupHolders(
			trace.NewContext(ctx, lookupSp.Context()), file, len(exclude) > 0)
		if lookupErr != nil {
			lookupSp.SetOutcome("error").End()
			c.mu.Lock()
			c.stats.Failed++
			c.mu.Unlock()
			c.met.Failed.Inc()
			sp.SetOutcome("lookup-error")
			return nil, Outcome{Request: req, File: file, RM: ids.NoneRM, OK: false,
				Reason: fmt.Sprintf("metadata lookup failed: %v", lookupErr)}
		}
		if fromLease {
			lookupSp.SetOutcome("lease-hit").End()
		} else {
			lookupSp.SetOutcome("ok").End()
		}
	}
	if len(exclude) > 0 {
		kept := make([]ids.RMID, 0, len(holders))
		for _, id := range holders {
			if !exclude[id] {
				kept = append(kept, id)
			}
		}
		holders = kept
	}
	if len(holders) == 0 {
		c.mu.Lock()
		c.stats.NoReplica++
		c.stats.Failed++
		c.mu.Unlock()
		c.met.NoReplica.Inc()
		sp.SetOutcome("no-replica")
		return nil, Outcome{Request: req, File: file, RM: ids.NoneRM, OK: false, Reason: "no replica registered"}
	}

	// Phase 2 — resource negotiation: CFP fan-out and bid collection
	// (serial for the DES, concurrent and deadline-bounded in live mode;
	// see Fanout).
	cfp := ecnp.CFP{
		Request:     req,
		File:        file,
		Bitrate:     f.Bitrate,
		DurationSec: f.DurationSec,
		Tenant:      c.tenant,
	}
	bidSp := c.tracer.StartChild(sp.Context(), "dfsc.bid").SetFile(file).SetRequest(req)
	bids, providers := c.collectBids(trace.NewContext(ctx, bidSp.Context()), holders, cfp, true)
	bidSp.SetOutcome("ok").End()
	if c.broadcast {
		// A CNP provider without the file refuses; its CFP and refusal
		// are the redundant traffic ECNP eliminates.
		kept := 0
		for i, bid := range bids {
			if bid.HasReplica {
				bids[kept], providers[kept] = bid, providers[i]
				kept++
			}
		}
		bids, providers = bids[:kept], providers[:kept]
	}
	if len(bids) == 0 {
		c.mu.Lock()
		c.stats.Failed++
		c.mu.Unlock()
		c.met.Failed.Inc()
		c.dropLease(file, fromLease)
		sp.SetOutcome("no-rm")
		return nil, Outcome{Request: req, File: file, RM: ids.NoneRM, OK: false, Reason: "no reachable RM"}
	}

	// Rank the bidders: policy order, or a uniform shuffle for (0,0,0).
	// The full order is kept (selection.TopK with k = all) — phase 3 cuts
	// it off once k lanes are admitted, so firm refusals can still fall
	// through to lower-ranked bidders.
	c.mu.Lock()
	order := selection.TopK(c.policy, bids, len(bids), c.src)
	firm := c.scen.IsFirm()
	c.mu.Unlock()

	// Phase 3 — data communication: open on the ranked winners until k
	// lanes hold reservations. In the firm scenario a refused open falls
	// through to the next-ranked bidder; the request fails only "when
	// none of the RMs can provide sufficient bandwidth" (paper §VI-A1).
	// Soft requests are always admitted by the first-ranked RM. Each lane
	// opens under its own request ID (the first reuses the negotiation's,
	// so 1-wide callers see today's exact request identity).
	var grants []grant
	var last ecnp.Refusal // the latest refusal, for the firm-exhausted outcome
	for _, rmID := range order {
		if len(grants) == k {
			break
		}
		laneReq := req
		if len(grants) > 0 {
			laneReq = c.nextRequestID()
			c.mu.Lock()
			c.stats.Requests++ // each extra lane holds its own reservation
			c.mu.Unlock()
		}
		open := ecnp.OpenRequest{
			Request:     laneReq,
			File:        file,
			Bitrate:     f.Bitrate,
			DurationSec: f.DurationSec,
			Firm:        firm,
			Tenant:      c.tenant,
		}
		won := bidIndex(bids, rmID)
		p := providers[won]
		openSp := c.tracer.StartChild(sp.Context(), "dfsc.open").
			SetRM(rmID).SetFile(file).SetRequest(laneReq)
		var res ecnp.OpenResult
		if co, ok := p.(ctxOpener); ok {
			res = co.OpenContext(trace.NewContext(ctx, openSp.Context()), open)
		} else {
			res = p.Open(open)
		}
		c.addMessages(2) // open + result
		if !res.OK {
			openSp.SetOutcome("rejected").End()
			last = res.Code
			if firm {
				c.met.Fallbacks.Inc()
				continue
			}
			if len(grants) > 0 {
				// Later soft lanes are best-effort width: a refusal stops
				// the widening but the admitted lanes stand.
				break
			}
			// A soft open fails on a tenant quota, a duplicate request id
			// (a bug upstream) or a live transport failure; Code tells which.
			c.mu.Lock()
			c.stats.Failed++
			c.mu.Unlock()
			c.met.Failed.Inc()
			c.dropLease(file, fromLease)
			sp.SetOutcome("error")
			return nil, Outcome{Request: req, File: file, RM: rmID, OK: false, Code: res.Code, Reason: res.Reason}
		}
		openSp.SetOutcome("admitted").End()
		c.met.Admitted.Inc()
		if b := bids[won]; b.Ceil > 0 && b.Req > b.Assured {
			// The RM advertised a ceiling and the request outran its
			// assured headroom: an oversubscription-funded admission.
			c.mu.Lock()
			c.stats.Oversubscribed++
			c.mu.Unlock()
			c.met.OversubAdmits.Inc()
		}
		grants = append(grants, grant{
			out: Outcome{Request: laneReq, File: file, RM: rmID, OK: true},
			p:   p,
		})
	}
	if len(grants) > 0 {
		sp.SetRM(grants[0].out.RM).SetOutcome("admitted")
		return grants, Outcome{}
	}

	c.mu.Lock()
	c.stats.Failed++
	c.mu.Unlock()
	c.met.Failed.Inc()
	c.dropLease(file, fromLease)
	sp.SetOutcome("firm-exhausted")
	return nil, Outcome{Request: req, File: file, RM: ids.NoneRM, OK: false, Code: last, Reason: "insufficient bandwidth on all replicas"}
}

// lookupHolders runs the non-broadcast half of phase 1: the metadata
// lease cache when armed and live (zero messages, fromLease true),
// otherwise the MM query — through the error-reporting mapper interface
// when offered, so transport failures surface typed and counted by class
// instead of masquerading as "no replica". A failover re-negotiation
// (failover true) invalidates the file's lease first: the cached replica
// set just failed the client, so replaying it would be wrong.
func (c *Client) lookupHolders(ctx context.Context, file ids.FileID, failover bool) (holders []ids.RMID, fromLease bool, err error) {
	if c.meta != nil {
		if failover {
			if c.meta.Invalidate(file) {
				c.met.MetaInvalidated.Inc()
			}
		} else if hs, ok := c.meta.Get(file); ok {
			c.met.MetaHits.Inc()
			return hs, true, nil
		}
		c.met.MetaMisses.Inc()
	}
	switch m := c.mapper.(type) {
	case errMapper:
		holders, err = m.LookupErrContext(ctx, file)
	case ctxMapper:
		holders = m.LookupContext(ctx, file)
	default:
		holders = c.mapper.Lookup(file)
	}
	c.addMessages(2) // query + reply
	if err != nil {
		c.met.LookupErrors.With(classifyLookupErr(err)).Inc()
		return nil, false, err
	}
	if c.meta != nil {
		c.meta.Put(file, holders)
	}
	return holders, false, nil
}

// dropLease invalidates file's lease after a failed open that consumed
// it — the cached set routed the client at replicas that refused or
// died, so the next attempt must re-resolve from the MM.
func (c *Client) dropLease(file ids.FileID, fromLease bool) {
	if fromLease && c.meta != nil && c.meta.Invalidate(file) {
		c.met.MetaInvalidated.Inc()
	}
}

// collectBids runs the CFP fan-out over the candidate RMs and returns one
// bid per contacted provider, in candidate order, with the providers
// index-aligned beside them: providers[i] answered bids[i]. A repeated id
// is contacted once and an unresolvable one is skipped. count toggles
// message accounting: the read path counts a CFP+bid pair per contacted
// provider; Store historically does not count.
//
// Serial mode (the default) calls each provider in turn — the
// deterministic shape the discrete-event simulation requires; providers
// implementing ecnp.CtxBidder still receive ctx so a trace span attached
// to it rides the CFP to the RM. Concurrent mode hands one job per
// provider to the client's bid workers (see bidWorkers: every CFP runs at
// once, on goroutines kept from earlier negotiations) and waits at most
// BidTimeout: providers implementing ecnp.CtxBidder receive the shared
// negotiation context, so their network round trip is cut off at the
// deadline too; laggards are abandoned (their workers drain into a
// buffered channel, bounded by the transport's own call deadline) and
// contribute a synthesized zero bid that ranks last — the paper's
// always-bid deviation preserved by degradation instead of blocking the
// open.
func (c *Client) collectBids(ctx context.Context, candidates []ids.RMID, cfp ecnp.CFP, count bool) ([]selection.Bid, []ecnp.Provider) {
	// Until its provider answers, a bid is the zero bid: the slot's RM is
	// what later candidates are checked against, and what a provider that
	// misses the deadline is left with. The MM hands out ids in ascending
	// order, so a candidate above the last one kept cannot be a repeat and
	// the whole resource list (broadcast CNP, Store) is checked in one
	// pass; only a list that steps backwards is searched.
	bids := make([]selection.Bid, 0, len(candidates))
	providers := make([]ecnp.Provider, 0, len(candidates))
	ascending := true
	for _, id := range candidates {
		above := len(bids) == 0 || (ascending && id > bids[len(bids)-1].RM)
		if !above && bidIndex(bids, id) >= 0 {
			continue
		}
		if p, ok := c.dir.Provider(id); ok {
			bids = append(bids, ecnp.ZeroBid(id, cfp))
			providers = append(providers, p)
			ascending = ascending && above
		}
	}
	if count {
		c.addMessages(int64(2 * len(bids))) // CFP + bid per contacted provider
	}
	if len(bids) == 0 {
		return nil, nil
	}

	if !c.fanout.Concurrent {
		for i, p := range providers {
			bids[i] = handleCFP(ctx, p, cfp)
		}
		return bids, providers
	}

	if c.fanout.BidTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.fanout.BidTimeout)
		defer cancel()
	}
	ch := make(chan bidSlot, len(providers)) // buffered: abandoned bidders never block a worker
	for i, p := range providers {
		c.workers.submit(bidJob{ctx: ctx, p: p, cfp: cfp, slot: i, reply: ch})
	}
	for got := 0; got < len(providers); got++ {
		select {
		case s := <-ch:
			bids[s.i] = s.bid
		case <-ctx.Done():
			// The negotiation deadline passed without the remaining
			// providers' bids: their zero bids rank them last and the
			// negotiation proceeds with the live bidders (paper's
			// "always bid" preserved).
			c.met.FanoutStalls.Add(uint64(len(providers) - got))
			return bids, providers
		}
	}
	return bids, providers
}

// handleCFP sends one CFP, with ctx when the provider can carry it.
func handleCFP(ctx context.Context, p ecnp.Provider, cfp ecnp.CFP) selection.Bid {
	if cb, ok := p.(ecnp.CtxBidder); ok {
		return cb.HandleCFPContext(ctx, cfp)
	}
	return p.HandleCFP(cfp)
}

// bidIndex returns the position of rm's bid, or -1. Bid lists are a
// file's replica holders — a handful — except while a resource-wide
// fan-out is being collected, where the ascending-order shortcut in
// collectBids keeps this off the common path.
func bidIndex(bids []selection.Bid, rm ids.RMID) int {
	for i := range bids {
		if bids[i].RM == rm {
			return i
		}
	}
	return -1
}

// scheduleClose releases the reservation when the playback ends.
func (c *Client) scheduleClose(p ecnp.Provider, req ids.RequestID, durationSec float64) {
	c.sched.After(simtime.Duration(durationSec), func(simtime.Time) {
		p.Close(req)
		c.mu.Lock()
		c.stats.Completed++
		c.mu.Unlock()
	})
}

func (c *Client) addMessages(n int64) {
	c.mu.Lock()
	c.stats.Messages += n
	c.mu.Unlock()
}

func (c *Client) nextRequestID() ids.RequestID {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reqSeq++
	return ids.RequestID(int64(c.id)<<40 | c.reqSeq)
}
