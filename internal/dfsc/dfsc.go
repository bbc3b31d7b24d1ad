// Package dfsc implements the Distributed File System Client — the
// Requester role of the ECNP model. Every user request runs the paper's
// three-phase resource-management flow, one implementation of it
// (negotiateLanes): the client queries the Metadata Manager for the
// eligible RMs (resource exploration), fans a Call-For-Proposal out to all
// of them and scores the returned bids with the configured
// resource-selection policy (resource negotiation), and then opens the
// data access on the winner (data communication), holding the bandwidth
// reservation for the file's playback duration. A read (Access) runs it
// whole; a write (Store) runs it over every registered RM, and its open
// carries the file's size, so the winner stores and registers the file
// in the same admission; a metadata probe (Probe) stops after phase 1. Do
// picks the form from a pattern's operation.
//
// In the paper the client sits behind FUSE: the MM query is issued from the
// readdir callback, CFP fan-out and selection from open, and the transfer
// from read/write. The open read handle (Reader, stripe.go) is that
// surface, and the read engine: OpenRead is open (the MM query, CFP
// fan-out and selection, negotiated once and held), every Reader.ReadAt
// is read, a ranged run of the segment scheduler over the lanes OpenRead
// holds, and Close is release. ReadStriped is a handle opened for one
// whole-file run.
package dfsc

import (
	"context"
	"errors"
	"fmt"
	"slices"
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
	"dfsqos/internal/workload"
)

// Stats counts request outcomes and protocol traffic at one client,
// including the data-plane segment counters the stripe scheduler
// produces. It is the one record of them: the registry's dfsqos_dfsc_*
// counters read it at scrape time (see Metrics).
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
	// matchmaker queries and replies, CFPs and bids, and opens (a write's
	// too) and their results. It is the quantity behind the paper's claim
	// that the ECNP matchmaker "avoid[s] excessive redundant messages" versus
	// plain CNP broadcast (compare with Options.BroadcastCNP).
	Messages int64
	// Oversubscribed counts admitted lanes, reads' and writes' ingests
	// alike, whose winning bid could no longer cover the request from its
	// assured (nominal-capacity) headroom — the stream was admitted into
	// the RM's advertised oversubscription ceiling instead.
	Oversubscribed int64
	// Admitted counts admitted lanes, reads' and writes' alike;
	// Fallbacks the refusals that fell through to the next-ranked bidder
	// (a firm read's, a write's); FanoutStalls the bidders that missed
	// the negotiation deadline and ranked last on a zero bid.
	Admitted, Fallbacks, FanoutStalls int64
	// LookupErrors counts metadata lookups failed in transport, by class
	// (lookupClasses): MM error, deadline overrun, dead connection, other.
	LookupErrors [len(lookupClasses)]int64
	// MetaHits, MetaMisses and MetaInvalidated count lease-cache outcomes
	// (zero without Options.MetaTTL); StripeReads the read handles opened
	// and StripeLanes the lanes they admitted.
	MetaHits, MetaMisses, MetaInvalidated, StripeReads, StripeLanes int64
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

	incarnation uint32
	reqSeq      int64
	// closes is the free list of close records (see scheduleClose).
	closes *closeRecord
	stats  Stats

	// jitter is sleepJittered's stream, split from src at New, so src is
	// only ever read: each random-policy ranking splits its own child of
	// it, keyed by the request.
	jitter rng.Source
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
	// Metrics routes client telemetry to a registry: New binds its series
	// to the client's Stats (nil means none; the discrete-event simulation
	// binds nothing).
	Metrics *Metrics
	// Tracer enables request-scoped span tracing: each access opens a
	// "dfsc.access" root span (trace ID = the request ID) with child spans
	// for the MM lookup, the CFP fan-out, and each open attempt, and the
	// span contexts ride the wire to the MM and RM servers. Nil disables
	// tracing at zero cost (all span operations no-op).
	Tracer *trace.Tracer
	// Tenant is the identity every request from this client runs under:
	// stamped on CFPs and opens (where tenanted RMs enforce bandwidth
	// quotas, charge a write's bytes and weigh fairness) and on the access
	// root span. Zero (NoneTenant) preserves untenanted behaviour everywhere.
	Tenant ids.TenantID
	// Incarnation fills the high bits of every request ID the client mints
	// (see ids.RequestID), so a live process, which draws it at random,
	// does not reuse the IDs of reservations another process left on an
	// RM. The DES and in-process harnesses leave it 0.
	Incarnation uint32
}

// jitterStream names the stream of a client's backoff jitter.
var jitterStream = rng.NameOf("dfsc/jitter")

// New constructs a client.
func New(opt Options) (*Client, error) {
	if opt.Mapper == nil || opt.Directory == nil || opt.Scheduler == nil || opt.Catalog == nil || opt.Rand == nil {
		return nil, fmt.Errorf("dfsc: DFSC%d: Mapper, Directory, Scheduler, Catalog and Rand are required", opt.ID)
	}
	if opt.ID < 0 || opt.ID >= 1<<ids.RequestDFSCBits {
		return nil, fmt.Errorf("dfsc: DFSC%d: a client ID must fit its %d bits of a request ID", opt.ID, ids.RequestDFSCBits)
	}
	met := opt.Metrics
	if met == nil {
		met = noMetrics
	}
	var meta *MetaCache
	if opt.MetaTTL > 0 {
		meta = NewMetaCache(opt.MetaTTL)
	}
	var workers *bidWorkers
	if opt.Fanout.Concurrent {
		workers = newBidWorkers()
	}
	c := &Client{
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

		incarnation: opt.Incarnation,
	}
	opt.Rand.SplitInto(&c.jitter, jitterStream)
	if opt.Metrics != nil {
		opt.Metrics.bind(c)
	}
	return c, nil
}

// MetaCache exposes the metadata lease cache (nil when MetaTTL was zero);
// tests drive its clock through it.
func (c *Client) MetaCache() *MetaCache { return c.meta }

// Stats returns a copy of the client's counters, the lease cache's hits
// included.
func (c *Client) Stats() Stats {
	c.mu.Lock()
	st := c.stats
	c.mu.Unlock()
	if m := c.meta; m != nil {
		m.mu.Lock()
		st.MetaHits = m.hits
		m.mu.Unlock()
	}
	return st
}

// Access reads file: the full three-phase flow, with the reservation
// released after the file's playback duration. It returns the outcome of
// the open.
func (c *Client) Access(file ids.FileID) Outcome { return c.send(workload.OpRead, file) }

// Store writes file: "data can be stored into the selected storage
// resource". It is a read's flow over every registered RM whose open
// carries the file's size (see negotiateLanes): the winning RM stores the
// file, registers it with the MM and holds its bandwidth for the file's
// duration, or, refusing, keeps nothing of it. It moves no bytes: a live
// RM provisions the file on its disk as part of the open.
func (c *Client) Store(file ids.FileID) Outcome { return c.send(workload.OpWrite, file) }

// Probe asks the MM for file's holders — phase 1 of the flow alone,
// through the metadata lease when one is held — and reserves nothing: the
// metadata-only request of small-file storms, where the MM round trip IS
// the request. A file with no registered replica fails as a read of it
// would.
func (c *Client) Probe(file ids.FileID) Outcome { return c.send(workload.OpMeta, file) }

// Do sends one request of kind op for file: a write is a Store, a
// metadata op a Probe, and a read an Access. It is the one place a
// pattern's operation kinds meet the client's calls.
func (c *Client) Do(op workload.Op, file ids.FileID) Outcome {
	switch op {
	case workload.OpWrite:
		return c.Store(file)
	case workload.OpMeta:
		return c.Probe(file)
	default:
		return c.Access(file)
	}
}

// send runs one request of kind op through the three-phase flow. An
// admitted read or write holds its reservation for the file's duration,
// then closes it; a probe completes at once.
func (c *Client) send(op workload.Op, file ids.FileID) Outcome {
	var buf [1]grant
	grants, out := c.negotiateLanes(context.Background(), buf[:0], op, file, nil, 1)
	if len(grants) == 0 {
		return out
	}
	g := grants[0]
	c.scheduleClose(g.p, g.out.Request, c.cat.File(file).DurationSec)
	return g.out
}

// AccessHeld runs the same negotiation but leaves the reservation open
// until the returned release function is called: one lane, reserved and
// not read. release is idempotent and non-nil even on failure.
func (c *Client) AccessHeld(file ids.FileID) (Outcome, func()) {
	grants, fail := c.negotiateLanes(context.Background(), nil, workload.OpRead, file, nil, 1)
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
	c.add(&c.stats.Completed, 1)
}

// errMapper is optionally implemented by Mappers whose lookup crosses a
// network (the live MMClient). ecnp.Mapper's Lookup signature swallows
// errors, which made a dead MM indistinguishable from a file with no
// replicas; through this interface the failure surfaces with the
// transport taxonomy intact and is counted by class, and ctx carries the
// lookup span to the MM, which opens a matching server span.
type errMapper interface {
	LookupErrContext(ctx context.Context, file ids.FileID) ([]ids.RMID, error)
}

// lookupClasses are the lookup-failure classes, indexed as
// Stats.LookupErrors is: the dfsqos_dfsc_lookup_errors_total class labels.
var lookupClasses = [...]string{"remote", "timeout", "conn", "other"}

// classifyLookupErr maps a lookup failure onto its index in lookupClasses.
func classifyLookupErr(err error) int {
	var ce *transport.ConnError
	switch {
	case transport.IsRemote(err):
		return 0
	case transport.IsTimeout(err):
		return 1
	case errors.As(err, &ce):
		return 2
	}
	return 3
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

// stackBids sizes the per-request buffers negotiateLanes keeps on its
// stack: the candidates, bids, providers and ranking of one request. A
// file's replica set fits them (a static degree of 3, a dynamic one up to
// N_maxR); a resource-wide fan-out (a write, plain-CNP broadcast) over a
// larger cluster grows them onto the heap once.
const stackBids = 16

// negotiateLanes runs the paper's three-phase flow for one request of
// kind op, admitting up to k concurrent lanes: phases 1 and 2 run exactly
// once, then phase 3 walks the ranked bidders admitting each under its
// own reservation until k lanes hold or the ranking is exhausted. The
// grants are appended to dst, which a one-lane caller keeps on its stack.
// Fewer than k grants is not an error — the striped reader degrades its
// width to what the replica set supports. With zero grants the Outcome is
// the request's: why it failed, or a probe's answer.
//
// The three kinds share it. A read explores the file's holders through
// the MM (or the whole resource list under plain-CNP broadcast); a write
// always explores the resource list, since a new file has no holders,
// and in phase 3 its open carries the file's size, so the bidder stores
// and registers the file as it admits it; a metadata probe stops after
// phase 1.
// A firm read falls through a refused open to the next-ranked bidder, as
// a write does on any refusal; a soft read fails on its first.
//
// When tracing is enabled the request is spanned: a "dfsc.access" span
// (root, or a child of any span already in ctx) with children
// "dfsc.lookup" (resource exploration), "dfsc.bid" (CFP fan-out), and one
// "dfsc.open" per admission attempt — each propagated to the serving
// daemon over the wire so the trace stitches client and server halves
// together.
func (c *Client) negotiateLanes(ctx context.Context, dst []grant, op workload.Op, file ids.FileID, exclude map[ids.RMID]bool, k int) ([]grant, Outcome) {
	defer c.met.timeNegotiation()()
	var (
		candBuf  [stackBids]ids.RMID
		bidBuf   [stackBids]selection.Bid
		provBuf  [stackBids]ecnp.Provider
		orderBuf [stackBids]ids.RMID
	)

	req := c.nextRequestID(&c.stats.Requests)

	var sp *trace.Span
	if parent := trace.FromContext(ctx); parent.Valid() {
		sp = c.tracer.StartChild(parent, "dfsc.access")
	} else {
		sp = c.tracer.StartRoot(req, "dfsc.access")
	}
	sp.SetFile(file).SetRequest(req).SetTenant(c.tenant)
	defer sp.End()

	f := c.cat.File(file)
	write := op == workload.OpWrite

	// Phase 1 — resource exploration. Under ECNP the MM answers the list
	// of eligible RMs (those holding a replica; issued from readdir in
	// the paper): 1 query + 1 reply — unless a metadata lease covers the
	// file, in which case the request skips the MM entirely. A write, and
	// a read under plain-CNP broadcast, has no matchmaker to ask: the CFP
	// goes to every registered RM.
	//
	// The request's phase-1 and phase-2 messages and stalled bidders are
	// tallied here and counted in the one c.mu section that next runs:
	// the ranking's, a probe's, or the failure's.
	var sent tally
	candidates := candBuf[:0]
	fromLease := false
	lookupSp := c.tracer.StartChild(sp.Context(), "dfsc.lookup").SetFile(file)
	if write || (c.broadcast && op == workload.OpRead) {
		rms := c.mapper.RMs()
		candidates = slices.Grow(candidates, len(rms))
		for _, info := range rms {
			candidates = append(candidates, info.ID)
		}
		sent.messages = 2 // resource-list fetch + reply
		lookupSp.SetOutcome("ok").End()
	} else {
		var lookupErr error
		candidates, fromLease, lookupErr = c.lookupHolders(
			trace.NewContext(ctx, lookupSp.Context()), file, len(exclude) > 0)
		if !fromLease {
			sent.messages = 2 // query + reply
		}
		if lookupErr != nil {
			lookupSp.SetOutcome("error").End()
			return c.fail(sp, fromLease, sent, "lookup-error", Outcome{Request: req, File: file,
				Reason: fmt.Sprintf("metadata lookup failed: %v", lookupErr)})
		}
		if fromLease {
			lookupSp.SetOutcome("lease-hit").End()
		} else {
			lookupSp.SetOutcome("ok").End()
		}
	}
	if len(exclude) > 0 {
		// Filtered into the stack buffer: in place when candidates already
		// lives there, which is safe, as a kept id never moves forward.
		kept := candBuf[:0]
		for _, id := range candidates {
			if !exclude[id] {
				kept = append(kept, id)
			}
		}
		candidates = kept
	}
	if len(candidates) == 0 {
		return c.fail(sp, fromLease, sent, "no-replica", Outcome{Request: req, File: file, Reason: "no replica registered"})
	}
	if op == workload.OpMeta {
		// A probe is phase 1 alone: the MM's answer is the request.
		c.mu.Lock()
		c.stats.Completed++
		c.stats.Messages += sent.messages
		c.mu.Unlock()
		sp.SetOutcome("ok")
		return nil, Outcome{Request: req, File: file, RM: candidates[0], OK: true}
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
	bids, providers, stalled := c.collectBids(trace.NewContext(ctx, bidSp.Context()), candidates, cfp, bidBuf[:0], provBuf[:0])
	bidSp.SetOutcome("ok").End()
	sent.messages += int64(2 * len(bids)) // CFP + bid per contacted provider
	sent.stalls = int64(stalled)
	if c.broadcast && op == workload.OpRead {
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
		return c.fail(sp, fromLease, sent, "no-rm", Outcome{Request: req, File: file, Reason: "no reachable RM"})
	}

	// Rank the bidders: policy order, or a uniform shuffle for (0,0,0)
	// keyed by the request. The full order is kept (selection.TopK with
	// k = all) — phase 3 cuts it off once k lanes are admitted, so
	// refusals can still fall through to lower-ranked bidders.
	order := selection.TopK(orderBuf[:0], c.policy, bids, len(bids), c.src, uint64(req))
	c.mu.Lock()
	firm := c.scen.IsFirm()
	c.stats.Messages += sent.messages
	c.stats.FanoutStalls += sent.stalls
	c.mu.Unlock()

	// Phase 3 — data communication: open on the ranked winners until k
	// lanes hold reservations. A firm read fails only "when none of the
	// RMs can provide sufficient bandwidth" (paper §VI-A1); soft requests
	// are always admitted by the first-ranked RM unless a tenant quota,
	// a duplicate request id (a bug upstream) or the transport refuses.
	// Each lane opens under its own request ID (the first reuses the
	// negotiation's, so 1-wide callers see today's exact request identity).
	grants := dst
	var last ecnp.OpenResult // the latest refusal, for the exhausted outcome
	for _, rmID := range order {
		if len(grants)-len(dst) == k {
			break
		}
		laneReq := req
		if len(grants) > len(dst) {
			laneReq = c.nextRequestID(&c.stats.Requests) // each extra lane holds its own reservation
		}
		open := ecnp.OpenRequest{
			Request:     laneReq,
			File:        file,
			Bitrate:     f.Bitrate,
			DurationSec: f.DurationSec,
			Firm:        firm,
			Tenant:      c.tenant,
		}
		if write {
			open.SizeBytes = f.Size
		}
		won := bidIndex(bids, rmID)
		p := providers[won]
		openSp := c.tracer.StartChild(sp.Context(), "dfsc.open").
			SetRM(rmID).SetFile(file).SetRequest(laneReq)
		res := c.admit(ctx, openSp, p, open, bids[won], firm || write)
		if !res.OK {
			openSp.SetOutcome("rejected").End()
			last = res
			if firm || write {
				continue
			}
			if len(grants) > len(dst) {
				// Later soft lanes are best-effort width: a refusal stops
				// the widening but the admitted lanes stand.
				break
			}
			return c.fail(sp, fromLease, tally{}, "error", Outcome{Request: req, File: file, Code: res.Code, Reason: res.Reason})
		}
		openSp.SetOutcome("admitted").End()
		grants = append(grants, grant{
			out: Outcome{Request: laneReq, File: file, RM: rmID, OK: true},
			p:   p,
		})
	}
	if len(grants) > len(dst) {
		sp.SetRM(grants[len(dst)].out.RM).SetOutcome("admitted")
		return grants, Outcome{}
	}
	return c.fail(sp, fromLease, tally{}, "exhausted", Outcome{Request: req, File: file, Code: last.Code, Reason: last.Reason})
}

// admit runs phase 3 on the bidder of bid: one open, a write's as much
// as a read's, carrying openSp to an RM that can take a context. The
// round trip counts two messages, and its outcome an admission or, when
// a refusal falls through to the next bidder, a fallback.
func (c *Client) admit(ctx context.Context, openSp *trace.Span, p ecnp.Provider, open ecnp.OpenRequest, bid selection.Bid, fallsThrough bool) ecnp.OpenResult {
	var res ecnp.OpenResult
	if co, ok := p.(ctxOpener); ok {
		res = co.OpenContext(trace.NewContext(ctx, openSp.Context()), open)
	} else {
		res = p.Open(open)
	}
	c.mu.Lock()
	c.stats.Messages += 2 // open + result
	switch {
	case res.OK:
		c.stats.Admitted++
		if bid.Ceil > 0 && bid.Req > bid.Assured {
			// The RM advertised a ceiling and the request outran its
			// assured headroom: an oversubscription-funded admission.
			c.stats.Oversubscribed++
		}
	case fallsThrough:
		c.stats.Fallbacks++
	}
	c.mu.Unlock()
	return res
}

// tally is what a request has sent and not yet counted in Stats: its
// messages and its bidders that missed the fan-out deadline.
type tally struct{ messages, stalls int64 }

// fail counts one failed request — in Stats, with what it sent, and on
// its span, whose outcome is why — and returns out as its failure. Every
// failure of the flow returns through it. A lease that routed the request
// is dropped: the cached set sent the client at replicas that refused or
// died, so the next attempt must re-resolve from the MM.
func (c *Client) fail(sp *trace.Span, fromLease bool, sent tally, why string, out Outcome) ([]grant, Outcome) {
	dropped := fromLease && c.meta.Invalidate(out.File)
	c.mu.Lock()
	c.stats.Failed++
	c.stats.Messages += sent.messages
	c.stats.FanoutStalls += sent.stalls
	if why == "no-replica" {
		c.stats.NoReplica++
	}
	if dropped {
		c.stats.MetaInvalidated++
	}
	c.mu.Unlock()
	sp.SetOutcome(why)
	out.RM = ids.NoneRM
	return nil, out
}

// lookupHolders runs phase 1 through the matchmaker: the metadata
// lease cache when armed and live (zero messages, fromLease true),
// otherwise the MM query — through the error-reporting mapper interface
// when offered, so transport failures surface typed and counted by class
// instead of masquerading as "no replica". A failover re-negotiation
// (failover true) invalidates the file's lease first: the cached replica
// set just failed the client, so replaying it would be wrong. The
// query's two messages are its caller's to count.
func (c *Client) lookupHolders(ctx context.Context, file ids.FileID, failover bool) (holders []ids.RMID, fromLease bool, err error) {
	dropped := false
	if c.meta != nil {
		if failover {
			dropped = c.meta.Invalidate(file)
		} else if hs, ok := c.meta.Get(file); ok {
			return hs, true, nil
		}
	}
	if m, ok := c.mapper.(errMapper); ok {
		holders, err = m.LookupErrContext(ctx, file)
	} else {
		holders = c.mapper.Lookup(file)
	}
	if c.meta != nil || err != nil {
		c.mu.Lock()
		if c.meta != nil {
			c.stats.MetaMisses++
			if dropped {
				c.stats.MetaInvalidated++
			}
		}
		if err != nil {
			c.stats.LookupErrors[classifyLookupErr(err)]++
		}
		c.mu.Unlock()
	}
	if err != nil {
		return nil, false, err
	}
	if c.meta != nil {
		c.meta.Put(file, holders)
	}
	return holders, false, nil
}

// collectBids runs the CFP fan-out over the candidate RMs and appends one
// bid per contacted provider to bids, in candidate order, with the
// providers appended index-aligned beside them to providers: providers[i]
// answered bids[i]. Both come in empty, in the caller's buffers. A
// repeated candidate id is contacted once and an unresolvable one is
// skipped. It also returns how many providers missed the deadline; the
// caller counts that and a CFP+bid pair of messages per contacted
// provider.
//
// Serial mode (the default) calls each provider in turn as the candidate
// loop reaches it and appends its bid — the deterministic shape the
// discrete-event simulation requires; providers implementing
// ecnp.CtxBidder still receive ctx so a trace span attached to it rides
// the CFP to the RM. Concurrent mode hands one job per provider to the
// client's bid workers (see bidWorkers: every CFP runs at once, on
// goroutines kept from earlier negotiations) and waits at most
// BidTimeout: providers implementing ecnp.CtxBidder receive the shared
// negotiation context, so their network round trip is cut off at the
// deadline too; laggards are abandoned (their workers drain into a
// buffered channel, bounded by the transport's own call deadline) and
// keep the zero bid their slot holds until an answer lands, which ranks
// last — the paper's always-bid deviation preserved by degradation
// instead of blocking the open.
func (c *Client) collectBids(ctx context.Context, candidates []ids.RMID, cfp ecnp.CFP, bids []selection.Bid, providers []ecnp.Provider) ([]selection.Bid, []ecnp.Provider, int) {
	// The MM hands out ids in ascending order, so while the candidates
	// ascend a candidate cannot repeat an earlier one and the whole
	// resource list (broadcast CNP, a write) is checked in one pass; only
	// a list that steps backwards is searched.
	serial := !c.fanout.Concurrent
	bids = slices.Grow(bids, len(candidates))
	providers = slices.Grow(providers, len(candidates))
	ascending := true
	for i, id := range candidates {
		if i > 0 && id <= candidates[i-1] {
			ascending = false
		}
		if !ascending && slices.Contains(candidates[:i], id) {
			continue
		}
		p, ok := c.dir.Provider(id)
		if !ok {
			continue
		}
		if serial {
			bids = append(bids, handleCFP(ctx, p, cfp))
		} else {
			bids = append(bids, ecnp.ZeroBid(id, cfp))
		}
		providers = append(providers, p)
	}
	if serial || len(bids) == 0 {
		return bids, providers, 0
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
			return bids, providers, len(providers) - got
		}
	}
	return bids, providers, 0
}

// handleCFP sends one CFP, with ctx when the provider can carry it.
func handleCFP(ctx context.Context, p ecnp.Provider, cfp ecnp.CFP) selection.Bid {
	if cb, ok := p.(ecnp.CtxBidder); ok {
		return cb.HandleCFPContext(ctx, cfp)
	}
	return p.HandleCFP(cfp)
}

// bidIndex returns the position of rm's bid, or -1: phase 3's search for
// a ranked winner among a handful of bids, a file's replica holders, or a
// resource-wide fan-out's.
func bidIndex(bids []selection.Bid, rm ids.RMID) int {
	for i := range bids {
		if bids[i].RM == rm {
			return i
		}
	}
	return -1
}

// closeRecord is one scheduled close: the reservation to release and the
// callback that releases it, bound once, when the record is first used. A
// record that has fired goes back on its client's free list for the next
// close.
type closeRecord struct {
	c    *Client
	p    ecnp.Provider
	req  ids.RequestID
	fire func(simtime.Time)
	next *closeRecord // the free list's link
}

// closeChunk is how many close records a client makes at once, in one
// allocation.
const closeChunk = 32

// scheduleClose releases the reservation when the playback ends. The
// close takes a record from the client's free list, so a client makes
// records for the most closes it ever has in flight at once, not one per
// request. c.mu guards the list: a live WallScheduler fires closes on
// timer goroutines.
func (c *Client) scheduleClose(p ecnp.Provider, req ids.RequestID, durationSec float64) {
	c.mu.Lock()
	if c.closes == nil {
		chunk := make([]closeRecord, closeChunk)
		for i := range chunk {
			chunk[i].c, chunk[i].next = c, c.closes
			c.closes = &chunk[i]
		}
	}
	rec := c.closes
	c.closes = rec.next
	c.mu.Unlock()
	if rec.fire == nil {
		rec.fire = rec.close
	}
	rec.p, rec.req = p, req
	c.sched.After(simtime.Duration(durationSec), rec.fire)
}

// close releases the record's reservation, counts it completed and
// returns the record to the free list.
func (rec *closeRecord) close(simtime.Time) {
	c, p, req := rec.c, rec.p, rec.req
	rec.p = nil
	p.Close(req)
	c.mu.Lock()
	c.stats.Completed++
	rec.next = c.closes
	c.closes = rec
	c.mu.Unlock()
}

// add adds n to counter, a field of c.stats, under c.mu.
func (c *Client) add(counter *int64, n int64) {
	c.mu.Lock()
	*counter += n
	c.mu.Unlock()
}

// nextRequestID mints the client's next request ID and adds one to
// counter, a field of c.stats, in the same section.
func (c *Client) nextRequestID(counter *int64) ids.RequestID {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reqSeq++
	*counter++
	return ids.NewRequestID(c.incarnation, c.id, c.reqSeq)
}
