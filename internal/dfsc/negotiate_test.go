package dfsc

import (
	"context"
	"errors"
	"reflect"
	"sync"
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
	"dfsqos/internal/units"
	"dfsqos/internal/workload"
)

// scriptProvider is an ecnp.Provider that bids and admits as scripted and
// writes every CFP and Open it receives into a log the test reads back.
type scriptProvider struct {
	id     ids.RMID
	rem    units.BytesPerSec
	holds  bool         // HasReplica in the bid
	refuse ecnp.Refusal // nonzero: Open refuses with it
	// ceil > 0 advertises an oversubscription ceiling; the bid's assured
	// headroom is then zero, so a winner rides the oversubscribed part.
	ceil  units.BytesPerSec
	stall time.Duration // HandleCFP sleeps this long first
	log   *callLog
}

// callLog records the calls of one negotiation: how many CFPs each RM
// received (concurrent fan-outs deliver them in no particular order) and
// the opens in call order.
type callLog struct {
	mu    sync.Mutex
	cfps  map[ids.RMID]int
	opens []ids.RMID
}

func (p *scriptProvider) Info() ecnp.RMInfo {
	return ecnp.RMInfo{ID: p.id, Capacity: units.Mbps(100), StorageBytes: units.GB}
}

func (p *scriptProvider) HandleCFP(cfp ecnp.CFP) selection.Bid {
	p.log.mu.Lock()
	p.log.cfps[p.id]++
	p.log.mu.Unlock()
	if p.stall > 0 {
		time.Sleep(p.stall)
	}
	b := selection.Bid{RM: p.id, Rem: p.rem, Req: cfp.Bitrate, HasReplica: p.holds, Assured: p.rem, Ceil: p.ceil}
	if p.ceil > 0 {
		b.Assured = 0
	}
	return b
}

func (p *scriptProvider) Open(ecnp.OpenRequest) ecnp.OpenResult {
	p.log.opens = append(p.log.opens, p.id)
	if p.refuse != 0 {
		return ecnp.OpenResult{Code: p.refuse, Reason: p.refuse.Error()}
	}
	return ecnp.OpenResult{OK: true}
}

func (p *scriptProvider) Close(ids.RequestID)                   {}
func (p *scriptProvider) OfferReplica(ecnp.ReplicaOffer) bool   { return false }
func (p *scriptProvider) FinishReplica(ids.ReplicationID, bool) {}

// listMapper answers Lookup and RMs with exactly the lists it was given —
// duplicates, disorder and unregistered ids included, which a real
// mm.Manager never produces. The negotiation calls nothing else.
type listMapper struct {
	ecnp.Mapper
	holders []ids.RMID
	all     []ids.RMID
}

func (m listMapper) Lookup(ids.FileID) []ids.RMID { return m.holders }

func (m listMapper) RMs() []ecnp.RMInfo {
	out := make([]ecnp.RMInfo, len(m.all))
	for i, id := range m.all {
		out[i] = ecnp.RMInfo{ID: id}
	}
	return out
}

// TestNegotiationTable pins what one negotiation does with an awkward
// candidate list: who receives a CFP, who is asked to open and in which
// order, who wins, and every counter the client keeps. It was written
// against the map-based bid collection and must hold for any other.
func TestNegotiationTable(t *testing.T) {
	mbps := units.Mbps
	const firmCap, overQuota = ecnp.ErrFirmCapacity, ecnp.ErrTenantBandwidth
	cases := []struct {
		name      string
		holders   []ids.RMID // the MM's answer
		all       []ids.RMID // the resource list (broadcast CNP only)
		providers []scriptProvider
		policy    selection.Policy
		scenario  qos.Scenario
		broadcast bool
		fanout    Fanout
		lanes     int

		wantCFPs   []ids.RMID // each listed RM got exactly one, nobody else any
		wantOpens  []ids.RMID // in call order
		wantRMs    []ids.RMID // admitted lanes in grant order; nil = refused
		wantReason string
		wantCode   ecnp.Refusal // of the failure outcome
		wantStats  Stats
	}{
		{
			name:      "duplicate holder ids are contacted once",
			holders:   []ids.RMID{2, 1, 2, 1, 2},
			providers: []scriptProvider{{id: 1, rem: mbps(10)}, {id: 2, rem: mbps(30)}},
			policy:    selection.RemOnly, scenario: qos.Firm, lanes: 1,
			wantCFPs: []ids.RMID{1, 2}, wantOpens: []ids.RMID{2}, wantRMs: []ids.RMID{2},
			wantStats: Stats{Requests: 1, Admitted: 1, Messages: 2 + 2*2 + 2},
		},
		{
			name:      "adjacent duplicates in an ordered list",
			holders:   []ids.RMID{1, 1, 2, 3, 3},
			providers: []scriptProvider{{id: 1, rem: mbps(10)}, {id: 2, rem: mbps(5)}, {id: 3, rem: mbps(30)}},
			policy:    selection.RemOnly, scenario: qos.Soft, lanes: 1,
			wantCFPs: []ids.RMID{1, 2, 3}, wantOpens: []ids.RMID{3}, wantRMs: []ids.RMID{3},
			wantStats: Stats{Requests: 1, Admitted: 1, Messages: 2 + 2*3 + 2},
		},
		{
			name:      "unresolvable RM in the middle is skipped and not counted",
			holders:   []ids.RMID{1, 9, 3, 9},
			providers: []scriptProvider{{id: 1, rem: mbps(10)}, {id: 3, rem: mbps(30)}},
			policy:    selection.RemOnly, scenario: qos.Firm, lanes: 1,
			wantCFPs: []ids.RMID{1, 3}, wantOpens: []ids.RMID{3}, wantRMs: []ids.RMID{3},
			wantStats: Stats{Requests: 1, Admitted: 1, Messages: 2 + 2*2 + 2},
		},
		{
			name:      "nothing resolvable",
			holders:   []ids.RMID{7, 8},
			providers: []scriptProvider{{id: 1, rem: mbps(10)}},
			policy:    selection.RemOnly, scenario: qos.Firm, lanes: 1,
			wantReason: "no reachable RM",
			wantStats:  Stats{Requests: 1, Failed: 1, Messages: 2},
		},
		{
			name:    "firm falls through to the second-ranked bidder",
			holders: []ids.RMID{1, 2, 3},
			providers: []scriptProvider{
				{id: 1, rem: mbps(20)}, {id: 2, rem: mbps(30), refuse: firmCap}, {id: 3, rem: mbps(10)}},
			policy: selection.RemOnly, scenario: qos.Firm, lanes: 1,
			wantCFPs: []ids.RMID{1, 2, 3}, wantOpens: []ids.RMID{2, 1}, wantRMs: []ids.RMID{1},
			wantStats: Stats{Requests: 1, Admitted: 1, Fallbacks: 1, Messages: 2 + 2*3 + 2*2},
		},
		{
			name:    "firm falls through to the third-ranked bidder, which is oversubscribed",
			holders: []ids.RMID{1, 2, 3},
			providers: []scriptProvider{
				{id: 1, rem: mbps(20), refuse: firmCap}, {id: 2, rem: mbps(30), refuse: firmCap},
				{id: 3, rem: mbps(10), ceil: mbps(40)}},
			policy: selection.RemOnly, scenario: qos.Firm, lanes: 1,
			wantCFPs: []ids.RMID{1, 2, 3}, wantOpens: []ids.RMID{2, 1, 3}, wantRMs: []ids.RMID{3},
			wantStats: Stats{Requests: 1, Admitted: 1, Fallbacks: 2, Messages: 2 + 2*3 + 2*3, Oversubscribed: 1},
		},
		{
			name:    "firm refused by every bidder",
			holders: []ids.RMID{3, 1, 2},
			providers: []scriptProvider{
				{id: 1, rem: mbps(20), refuse: firmCap}, {id: 2, rem: mbps(30), refuse: firmCap}, {id: 3, rem: mbps(10), refuse: firmCap}},
			policy: selection.RemOnly, scenario: qos.Firm, lanes: 1,
			wantCFPs: []ids.RMID{1, 2, 3}, wantOpens: []ids.RMID{2, 1, 3},
			wantReason: "insufficient bandwidth", wantCode: firmCap,
			wantStats: Stats{Requests: 1, Failed: 1, Fallbacks: 3, Messages: 2 + 2*3 + 2*3},
		},
		{
			// The text and the code both say it was the tenant's quota,
			// not the disks, that every holder refused.
			name:    "firm refused by every holder for the tenant's quota",
			holders: []ids.RMID{1, 2},
			providers: []scriptProvider{
				{id: 1, rem: mbps(20), refuse: overQuota}, {id: 2, rem: mbps(30), refuse: overQuota}},
			policy: selection.RemOnly, scenario: qos.Firm, lanes: 1,
			wantCFPs: []ids.RMID{1, 2}, wantOpens: []ids.RMID{2, 1},
			wantReason: "tenant over its bandwidth quota", wantCode: overQuota,
			wantStats: Stats{Requests: 1, Failed: 1, Fallbacks: 2, Messages: 2 + 2*2 + 2*2},
		},
		{
			name:    "equal scores keep candidate order",
			holders: []ids.RMID{3, 1, 2},
			providers: []scriptProvider{
				{id: 1, rem: mbps(20), refuse: firmCap}, {id: 2, rem: mbps(20)}, {id: 3, rem: mbps(20), refuse: firmCap}},
			policy: selection.RemOnly, scenario: qos.Firm, lanes: 1,
			wantCFPs: []ids.RMID{1, 2, 3}, wantOpens: []ids.RMID{3, 1, 2}, wantRMs: []ids.RMID{2},
			wantStats: Stats{Requests: 1, Admitted: 1, Fallbacks: 2, Messages: 2 + 2*3 + 2*3},
		},
		{
			name:    "two lanes take the two best bidders, one past its assured headroom",
			holders: []ids.RMID{1, 2, 3},
			providers: []scriptProvider{
				{id: 1, rem: mbps(20), ceil: mbps(40)}, {id: 2, rem: mbps(30)}, {id: 3, rem: mbps(10)}},
			policy: selection.RemOnly, scenario: qos.Soft, lanes: 2,
			wantCFPs: []ids.RMID{1, 2, 3}, wantOpens: []ids.RMID{2, 1}, wantRMs: []ids.RMID{2, 1},
			wantStats: Stats{Requests: 2, Admitted: 2, Messages: 2 + 2*3 + 2*2, Oversubscribed: 1},
		},
		{
			name: "broadcast CNP: every RM gets a CFP, only holders are ranked",
			all:  []ids.RMID{1, 2, 3, 4, 5},
			providers: []scriptProvider{
				{id: 1, rem: mbps(90)}, {id: 2, rem: mbps(10), holds: true}, {id: 3, rem: mbps(80)},
				{id: 4, rem: mbps(30), holds: true, refuse: firmCap}, {id: 5, rem: mbps(70)}},
			policy: selection.RemOnly, scenario: qos.Firm, broadcast: true, lanes: 1,
			wantCFPs: []ids.RMID{1, 2, 3, 4, 5}, wantOpens: []ids.RMID{4, 2}, wantRMs: []ids.RMID{2},
			wantStats: Stats{Requests: 1, Admitted: 1, Fallbacks: 1, Messages: 2 + 2*5 + 2*2},
		},
		{
			name: "broadcast CNP: an unregistered id and a repeat in the resource list",
			all:  []ids.RMID{1, 2, 9, 3, 2},
			providers: []scriptProvider{
				{id: 1, rem: mbps(90)}, {id: 2, rem: mbps(10), holds: true}, {id: 3, rem: mbps(20), holds: true}},
			policy: selection.RemOnly, scenario: qos.Soft, broadcast: true, lanes: 1,
			wantCFPs: []ids.RMID{1, 2, 3}, wantOpens: []ids.RMID{3}, wantRMs: []ids.RMID{3},
			wantStats: Stats{Requests: 1, Admitted: 1, Messages: 2 + 2*3 + 2},
		},
		{
			name: "broadcast CNP: nobody holds the file",
			all:  []ids.RMID{1, 2},
			providers: []scriptProvider{
				{id: 1, rem: mbps(90)}, {id: 2, rem: mbps(10)}},
			policy: selection.RemOnly, scenario: qos.Soft, broadcast: true, lanes: 1,
			wantCFPs: []ids.RMID{1, 2}, wantReason: "no reachable RM",
			wantStats: Stats{Requests: 1, Failed: 1, Messages: 2 + 2*2},
		},
		{
			// The order is the shuffle of four bidders drawn from the
			// request's child of rng.New(5), whatever the bookkeeping
			// looks like.
			name:    "random policy walks its shuffle",
			holders: []ids.RMID{1, 2, 3, 4},
			providers: []scriptProvider{
				{id: 1, rem: mbps(40), refuse: firmCap}, {id: 2, rem: mbps(30), refuse: firmCap},
				{id: 3, rem: mbps(20), refuse: firmCap}, {id: 4, rem: mbps(10), refuse: firmCap}},
			policy: selection.Random, scenario: qos.Firm, lanes: 1,
			wantCFPs: []ids.RMID{1, 2, 3, 4}, wantOpens: randomWalkOfFour,
			wantReason: "insufficient bandwidth", wantCode: firmCap,
			wantStats: Stats{Requests: 1, Failed: 1, Fallbacks: 4, Messages: 2 + 2*4 + 2*4},
		},
		{
			name:    "concurrent fan-out: the stalled best bidder ranks last on a zero bid",
			holders: []ids.RMID{1, 2, 9, 3, 2},
			providers: []scriptProvider{
				{id: 1, rem: mbps(10), refuse: firmCap}, {id: 2, rem: mbps(90), stall: time.Second},
				{id: 3, rem: mbps(20), refuse: firmCap}},
			policy: selection.RemOnly, scenario: qos.Firm, lanes: 1,
			fanout:   Fanout{Concurrent: true, BidTimeout: 150 * time.Millisecond},
			wantCFPs: []ids.RMID{1, 2, 3}, wantOpens: []ids.RMID{3, 1, 2}, wantRMs: []ids.RMID{2},
			wantStats: Stats{Requests: 1, Admitted: 1, Fallbacks: 2, FanoutStalls: 1, Messages: 2 + 2*3 + 2*3},
		},
		{
			name:    "concurrent fan-out without a stall equals the serial one",
			holders: []ids.RMID{3, 1, 2},
			providers: []scriptProvider{
				{id: 1, rem: mbps(20)}, {id: 2, rem: mbps(30), refuse: firmCap}, {id: 3, rem: mbps(10)}},
			policy: selection.RemOnly, scenario: qos.Firm, lanes: 1,
			fanout:   Fanout{Concurrent: true, BidTimeout: 5 * time.Second},
			wantCFPs: []ids.RMID{1, 2, 3}, wantOpens: []ids.RMID{2, 1}, wantRMs: []ids.RMID{1},
			wantStats: Stats{Requests: 1, Admitted: 1, Fallbacks: 1, Messages: 2 + 2*3 + 2*2},
		},
	}

	cfg := catalog.DefaultConfig()
	cfg.NumFiles = 4
	cat, err := catalog.Generate(cfg, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			log := &callLog{cfps: make(map[ids.RMID]int)}
			dir := new(ecnp.StaticDirectory)
			for i := range tc.providers {
				p := &tc.providers[i]
				p.log = log
				if !tc.broadcast {
					p.holds = true
				}
				dir.Set(p.id, p)
			}
			reg := telemetry.NewRegistry()
			c, err := New(Options{
				ID:           1,
				Mapper:       listMapper{holders: tc.holders, all: tc.all},
				Directory:    dir,
				Scheduler:    ecnp.SimScheduler{S: simtime.NewScheduler()},
				Catalog:      cat,
				Policy:       tc.policy,
				Scenario:     tc.scenario,
				Rand:         rng.New(5),
				BroadcastCNP: tc.broadcast,
				Fanout:       tc.fanout,
				Metrics:      NewMetrics(reg),
			})
			if err != nil {
				t.Fatal(err)
			}

			lanes, fail := c.negotiateLanes(context.Background(), nil, workload.OpRead, 0, nil, tc.lanes)

			var gotRMs []ids.RMID
			for _, l := range lanes {
				if !l.out.OK || l.out.File != 0 {
					t.Errorf("lane outcome %+v", l.out)
				}
				gotRMs = append(gotRMs, l.out.RM)
			}
			if !reflect.DeepEqual(gotRMs, tc.wantRMs) {
				t.Errorf("admitted on %v, want %v", gotRMs, tc.wantRMs)
			}
			if len(lanes) > 0 && lanes[0].out.Request != ids.RequestID(1<<40|1) {
				t.Errorf("first lane runs under request %v, want the negotiation's own id", lanes[0].out.Request)
			}
			if tc.wantRMs == nil && (fail.OK || fail.Reason != tc.wantReason || fail.Code != tc.wantCode) {
				t.Errorf("failure outcome %+v, want reason %q and code %d", fail, tc.wantReason, tc.wantCode)
			}
			if !reflect.DeepEqual(log.opens, tc.wantOpens) {
				t.Errorf("opens went to %v, want %v", log.opens, tc.wantOpens)
			}
			wantCFPs := make(map[ids.RMID]int)
			for _, id := range tc.wantCFPs {
				wantCFPs[id] = 1
			}
			log.mu.Lock()
			if !reflect.DeepEqual(log.cfps, wantCFPs) {
				t.Errorf("CFPs per RM %v, want %v", log.cfps, wantCFPs)
			}
			log.mu.Unlock()
			if st := c.Stats(); st != tc.wantStats {
				t.Errorf("stats %+v, want %+v", st, tc.wantStats)
			}
			if got := scrapeDFSC(t, reg)["dfsqos_dfsc_fanout_stalls_total"]; got != float64(tc.wantStats.FanoutStalls) {
				t.Errorf("fan-out stalls %v, want %d", got, tc.wantStats.FanoutStalls)
			}
		})
	}
}

// randomWalkOfFour is the order in which a client seeded rng.New(5) opens
// four refusing bidders under the random policy, on its first request.
var randomWalkOfFour = []ids.RMID{4, 2, 3, 1}

// TestNegotiationExitCounts pins the messages, stalls and the rest of the
// client's counts at every exit of negotiateLanes, so moving where a
// count is taken cannot change what it reads: a lookup that fails, finds
// nothing or is a probe; a fan-out that reaches nobody, the last with a
// stalled bidder; a soft refusal, a firm exhaustion and an admitted read,
// each also routed by a metadata lease; and an admitted write.
func TestNegotiationExitCounts(t *testing.T) {
	mbps := units.Mbps
	const firmCap = ecnp.ErrFirmCapacity
	three := []scriptProvider{{id: 1, rem: mbps(10)}, {id: 2, rem: mbps(30)}, {id: 3, rem: mbps(20)}}
	cases := []struct {
		name      string
		mapper    ecnp.Mapper
		lease     []ids.RMID // a live metadata lease for the file, when set
		providers []scriptProvider
		op        workload.Op
		scenario  qos.Scenario
		broadcast bool
		fanout    Fanout
		wantOK    bool
		wantStats Stats
	}{
		{
			name:      "lookup error",
			mapper:    &failingMapper{err: errors.New("mm down")},
			providers: three, op: workload.OpRead, scenario: qos.Soft,
			wantStats: Stats{Requests: 1, Failed: 1, Messages: 2, LookupErrors: [4]int64{3: 1}},
		},
		{
			name:      "no replica",
			mapper:    listMapper{},
			providers: three, op: workload.OpRead, scenario: qos.Soft,
			wantStats: Stats{Requests: 1, Failed: 1, NoReplica: 1, Messages: 2},
		},
		{
			name:      "no reachable RM",
			mapper:    listMapper{holders: []ids.RMID{7, 8}},
			providers: three, op: workload.OpRead, scenario: qos.Soft,
			wantStats: Stats{Requests: 1, Failed: 1, Messages: 2},
		},
		{
			name:   "no reachable RM after a broadcast whose holder stalled",
			mapper: listMapper{all: []ids.RMID{1, 2}},
			providers: []scriptProvider{
				{id: 1, rem: mbps(10)}, {id: 2, rem: mbps(30), holds: true, stall: time.Second}},
			op: workload.OpRead, scenario: qos.Soft, broadcast: true,
			fanout:    Fanout{Concurrent: true, BidTimeout: 100 * time.Millisecond},
			wantStats: Stats{Requests: 1, Failed: 1, FanoutStalls: 1, Messages: 2 + 2*2},
		},
		{
			name:      "probe",
			mapper:    listMapper{holders: []ids.RMID{3, 1}},
			providers: three, op: workload.OpMeta, scenario: qos.Soft, wantOK: true,
			wantStats: Stats{Requests: 1, Completed: 1, Messages: 2},
		},
		{
			name:      "probe on a lease",
			mapper:    listMapper{},
			lease:     []ids.RMID{3, 1},
			providers: three, op: workload.OpMeta, scenario: qos.Soft, wantOK: true,
			wantStats: Stats{Requests: 1, Completed: 1, MetaHits: 1},
		},
		{
			name:   "soft refusal",
			mapper: listMapper{holders: []ids.RMID{1, 2, 3}},
			providers: []scriptProvider{
				{id: 1, rem: mbps(10)}, {id: 2, rem: mbps(30), refuse: ecnp.ErrTenantBandwidth}, {id: 3, rem: mbps(20)}},
			op: workload.OpRead, scenario: qos.Soft,
			wantStats: Stats{Requests: 1, Failed: 1, Messages: 2 + 2*3 + 2},
		},
		{
			name:   "soft refusal on a lease",
			mapper: listMapper{},
			lease:  []ids.RMID{1, 2, 3},
			providers: []scriptProvider{
				{id: 1, rem: mbps(10)}, {id: 2, rem: mbps(30), refuse: ecnp.ErrTenantBandwidth}, {id: 3, rem: mbps(20)}},
			op: workload.OpRead, scenario: qos.Soft,
			wantStats: Stats{Requests: 1, Failed: 1, MetaHits: 1, MetaInvalidated: 1, Messages: 2*3 + 2},
		},
		{
			name:   "firm exhaustion",
			mapper: listMapper{holders: []ids.RMID{1, 2}},
			providers: []scriptProvider{
				{id: 1, rem: mbps(10), refuse: firmCap}, {id: 2, rem: mbps(30), refuse: firmCap}},
			op: workload.OpRead, scenario: qos.Firm,
			wantStats: Stats{Requests: 1, Failed: 1, Fallbacks: 2, Messages: 2 + 2*2 + 2*2},
		},
		{
			name:      "admitted read",
			mapper:    listMapper{holders: []ids.RMID{1, 2, 3}},
			providers: three, op: workload.OpRead, scenario: qos.Firm, wantOK: true,
			wantStats: Stats{Requests: 1, Admitted: 1, Messages: 2 + 2*3 + 2},
		},
		{
			name:      "admitted read on a lease",
			mapper:    listMapper{},
			lease:     []ids.RMID{1, 2, 3},
			providers: three, op: workload.OpRead, scenario: qos.Firm, wantOK: true,
			wantStats: Stats{Requests: 1, Admitted: 1, MetaHits: 1, Messages: 2*3 + 2},
		},
		{
			name:   "admitted write",
			mapper: listMapper{all: []ids.RMID{1, 2, 3}},
			providers: []scriptProvider{
				{id: 1, rem: mbps(10)}, {id: 2, rem: mbps(30), refuse: ecnp.ErrAlreadyStored}, {id: 3, rem: mbps(20)}},
			op: workload.OpWrite, scenario: qos.Soft, wantOK: true,
			wantStats: Stats{Requests: 1, Admitted: 1, Fallbacks: 1, Messages: 2 + 2*3 + 2*2},
		},
	}

	cfg := catalog.DefaultConfig()
	cfg.NumFiles = 4
	cat, err := catalog.Generate(cfg, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			log := &callLog{cfps: make(map[ids.RMID]int)}
			dir := new(ecnp.StaticDirectory)
			for i := range tc.providers {
				p := &tc.providers[i]
				p.log = log
				if !tc.broadcast {
					p.holds = true
				}
				dir.Set(p.id, p)
			}
			opt := Options{
				ID:           1,
				Mapper:       tc.mapper,
				Directory:    dir,
				Scheduler:    ecnp.SimScheduler{S: simtime.NewScheduler()},
				Catalog:      cat,
				Policy:       selection.RemOnly,
				Scenario:     tc.scenario,
				Rand:         rng.New(5),
				BroadcastCNP: tc.broadcast,
				Fanout:       tc.fanout,
			}
			if tc.lease != nil {
				opt.MetaTTL = time.Hour
			}
			c, err := New(opt)
			if err != nil {
				t.Fatal(err)
			}
			if tc.lease != nil {
				c.MetaCache().Put(0, tc.lease)
			}
			lanes, out := c.negotiateLanes(context.Background(), nil, tc.op, 0, nil, 1)
			if ok := len(lanes) > 0 || out.OK; ok != tc.wantOK {
				t.Errorf("succeeded = %v, want %v (%+v)", ok, tc.wantOK, out)
			}
			if st := c.Stats(); st != tc.wantStats {
				t.Errorf("stats %+v, want %+v", st, tc.wantStats)
			}
		})
	}
}
