package live

import (
	"context"
	"fmt"
	"sync"
	"time"

	"dfsqos/internal/ecnp"
	"dfsqos/internal/ids"
	"dfsqos/internal/mm"
	"dfsqos/internal/rng"
	"dfsqos/internal/telemetry"
	"dfsqos/internal/transport"
	"dfsqos/internal/wire"
)

// ShardMapper is the client side of a replicated MM shard group: an
// ecnp.Mapper over N shard addresses that routes each file operation to
// the file's owner shards in ring order. A transport failure (dead or
// silent shard) retries the next successor in the owner set after a
// jittered backoff — bounded by the owner-set size, so a request never
// walks the whole ring — while a remote error returns immediately: the
// shard answered, failing over would just repeat the refusal. Group-wide
// operations (RM registration, heartbeats) fan to every shard and
// tolerate unreachable members as long as one accepts, so a dead shard
// cannot wedge the RM heartbeat loop.
type ShardMapper struct {
	ring    *mm.Ring
	rep     int
	clients []*MMClient

	mu      sync.Mutex
	backoff time.Duration
	src     *rng.Source
	met     *ShardMapperMetrics
	logf    func(string, ...any)
}

// DialShardMapper connects a mapper to the shard group at addrs
// (ring-index aligned) with replication factor rep.
func DialShardMapper(addrs []string, rep int, cfg transport.Config) (*ShardMapper, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("live: shard mapper needs at least one address")
	}
	clients := make([]*MMClient, len(addrs))
	for i, addr := range addrs {
		// Lazy stubs: a mapper must come up even while a shard is dead —
		// lookups walk the successor set, so one live member suffices.
		clients[i] = NewMMClient(addr, cfg)
	}
	if rep < 1 {
		rep = 1
	}
	if rep > len(addrs) {
		rep = len(addrs)
	}
	return &ShardMapper{
		ring:    mm.NewRing(len(addrs)),
		rep:     rep,
		clients: clients,
		backoff: 25 * time.Millisecond,
		src:     rng.New(1),
		met:     NewShardMapperMetrics(nil),
		logf:    func(string, ...any) {},
	}, nil
}

// SetRetryPolicy tunes the successor-retry backoff base and the jitter
// seed (defaults: 25ms, seed 1). The k-th retry of one call sleeps
// between k·base/2 and k·base.
func (m *ShardMapper) SetRetryPolicy(backoff time.Duration, seed uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if backoff > 0 {
		m.backoff = backoff
	}
	m.src = rng.New(seed)
}

// SetMetrics routes successor-retry telemetry (default: no-op).
func (m *ShardMapper) SetMetrics(met *ShardMapperMetrics) {
	if met == nil {
		met = NewShardMapperMetrics(nil)
	}
	m.mu.Lock()
	m.met = met
	m.mu.Unlock()
}

// SetLogger routes diagnostics (default: discard).
func (m *ShardMapper) SetLogger(logf func(string, ...any)) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	m.mu.Lock()
	m.logf = logf
	m.mu.Unlock()
}

// Close releases every shard stub's pooled connections.
func (m *ShardMapper) Close() error {
	var first error
	for _, c := range m.clients {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (m *ShardMapper) metrics() *ShardMapperMetrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.met
}

func (m *ShardMapper) log() func(string, ...any) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.logf
}

// retrySleep blocks for the k-th retry's jittered backoff (k ≥ 1).
func (m *ShardMapper) retrySleep(k int) {
	m.mu.Lock()
	d := time.Duration(k) * m.backoff
	d = d/2 + time.Duration(m.src.Float64()*float64(d/2))
	m.mu.Unlock()
	time.Sleep(d)
}

// callFile routes one file-keyed call across the owner set: the primary
// first, then each successor after a jittered backoff when the previous
// owner failed in transport. Remote errors break out immediately — the
// shard is healthy and said no.
func (m *ShardMapper) callFile(ctx context.Context, file ids.FileID, kind wire.Kind, payload any) (wire.Msg, error) {
	owners := m.ring.SuccessorsOfFile(int64(file), m.rep)
	var lastErr error
	for attempt, o := range owners {
		if attempt > 0 {
			m.metrics().Retries.Inc()
			m.retrySleep(attempt)
		}
		reply, err := m.clients[o].t.Call(ctx, kind, payload)
		if err == nil {
			return reply, nil
		}
		if transport.IsRemote(err) {
			return reply, err
		}
		m.log()("live: shard %d %v: %v", o, kind, err)
		lastErr = err
	}
	m.metrics().Exhausted.Inc()
	return wire.Msg{}, fmt.Errorf("live: all %d owner shard(s) failed: %w", len(owners), lastErr)
}

// fanAll sends one call to every shard and succeeds if at least one
// member accepted. Transport failures are tolerated (a dead shard
// reconverges through the heal handoff) but remembered; a remote error
// surfaces immediately — it is an answer (e.g. "unknown RM, re-register"),
// not an outage.
func (m *ShardMapper) fanAll(kind wire.Kind, payload any) error {
	accepted := 0
	var lastErr error
	for i, c := range m.clients {
		_, err := c.t.Call(context.Background(), kind, payload)
		switch {
		case err == nil:
			accepted++
		case transport.IsRemote(err):
			return err
		default:
			m.log()("live: shard %d %v: %v", i, kind, err)
			lastErr = err
		}
	}
	if accepted == 0 {
		return fmt.Errorf("live: no shard accepted %v: %w", kind, lastErr)
	}
	return nil
}

// RegisterRM implements ecnp.Mapper: fan to every shard with the full
// file list (each member keeps the slice it owns).
func (m *ShardMapper) RegisterRM(info ecnp.RMInfo, files []ids.FileID) error {
	return m.fanAll(wire.KindRegisterRM, wire.RegisterRM{Info: info, Files: files})
}

// Heartbeat beacons an RM's liveness to every reachable shard. A remote
// error (unknown RM somewhere) surfaces so the heartbeat loop
// re-registers, which also repopulates a freshly-restarted shard.
func (m *ShardMapper) Heartbeat(id ids.RMID) error {
	return m.fanAll(wire.KindHeartbeat, wire.Heartbeat{RM: id})
}

// Lookup implements ecnp.Mapper.
func (m *ShardMapper) Lookup(file ids.FileID) []ids.RMID {
	return m.LookupContext(context.Background(), file)
}

// LookupContext is Lookup under a caller context (trace spans ride the
// frame to whichever owner shard answers).
func (m *ShardMapper) LookupContext(ctx context.Context, file ids.FileID) []ids.RMID {
	holders, err := m.LookupErrContext(ctx, file)
	if err != nil {
		m.log()("live: shard lookup: %v", err)
	}
	return holders
}

// LookupErrContext surfaces the transport failure to dfsc's typed lookup
// error path after the successor walk is exhausted.
func (m *ShardMapper) LookupErrContext(ctx context.Context, file ids.FileID) ([]ids.RMID, error) {
	reply, err := m.callFile(ctx, file, wire.KindLookup, wire.FileRef{File: file})
	if err != nil {
		return nil, err
	}
	if l, ok := reply.Payload.(wire.RMList); ok {
		return l.RMs, nil
	}
	return nil, fmt.Errorf("live: shard lookup: unexpected reply %v", reply.Kind)
}

// RMsWithout implements ecnp.Mapper.
func (m *ShardMapper) RMsWithout(file ids.FileID) []ids.RMID {
	reply, err := m.callFile(context.Background(), file, wire.KindRMsWithout, wire.FileRef{File: file})
	if err != nil {
		m.log()("live: shard rms-without: %v", err)
		return nil
	}
	if l, ok := reply.Payload.(wire.RMList); ok {
		return l.RMs
	}
	return nil
}

// AddReplica implements ecnp.Mapper (the serving owner mirrors onward).
func (m *ShardMapper) AddReplica(file ids.FileID, rm ids.RMID) error {
	_, err := m.callFile(context.Background(), file, wire.KindAddReplica, wire.ReplicaRef{File: file, RM: rm})
	return err
}

// RemoveReplica implements ecnp.Mapper.
func (m *ShardMapper) RemoveReplica(file ids.FileID, rm ids.RMID) error {
	_, err := m.callFile(context.Background(), file, wire.KindRemoveReplica, wire.ReplicaRef{File: file, RM: rm})
	return err
}

// BeginReplication implements ecnp.Mapper.
func (m *ShardMapper) BeginReplication(file ids.FileID, rm ids.RMID, maxTotal int) error {
	_, err := m.callFile(context.Background(), file, wire.KindBeginReplication,
		wire.BeginReplication{File: file, RM: rm, MaxTotal: maxTotal})
	return err
}

// EndReplication implements ecnp.Mapper.
func (m *ShardMapper) EndReplication(file ids.FileID, rm ids.RMID, commit bool) error {
	_, err := m.callFile(context.Background(), file, wire.KindEndReplication,
		wire.EndReplication{File: file, RM: rm, Commit: commit})
	return err
}

// ReplicaCount implements ecnp.Mapper.
func (m *ShardMapper) ReplicaCount(file ids.FileID) int {
	reply, err := m.callFile(context.Background(), file, wire.KindReplicaCount, wire.FileRef{File: file})
	if err != nil {
		m.log()("live: shard replica-count: %v", err)
		return 0
	}
	if n, ok := reply.Payload.(wire.Count); ok {
		return n.N
	}
	return 0
}

// RMs implements ecnp.Mapper: the resource list replicates everywhere,
// so the first shard that answers is canonical (index order, skipping
// unreachable members).
func (m *ShardMapper) RMs() []ecnp.RMInfo {
	for i, c := range m.clients {
		reply, err := c.t.Call(context.Background(), wire.KindRMs, nil)
		if err != nil {
			m.log()("live: shard %d rms: %v", i, err)
			continue
		}
		if l, ok := reply.Payload.(wire.RMInfoList); ok {
			return l.Infos
		}
	}
	return nil
}

// ShardMapperMetrics instruments the client's successor failover:
// retries that moved a call to the next owner shard, and calls that
// failed on the whole owner set.
type ShardMapperMetrics struct {
	// Retries counts file-keyed calls re-sent to a successor owner shard
	// after a transport failure (dfsqos_shardmap_successor_retries_total).
	Retries *telemetry.Counter
	// Exhausted counts calls that failed in transport on every owner
	// shard (dfsqos_shardmap_exhausted_total).
	Exhausted *telemetry.Counter
}

// NewShardMapperMetrics registers the shard-mapper metric families on
// reg (nil reg yields a live no-op sink).
func NewShardMapperMetrics(reg *telemetry.Registry) *ShardMapperMetrics {
	return &ShardMapperMetrics{
		Retries: reg.NewCounter("dfsqos_shardmap_successor_retries_total",
			"File-keyed metadata calls retried on a successor owner shard after a transport failure."),
		Exhausted: reg.NewCounter("dfsqos_shardmap_exhausted_total",
			"Metadata calls that failed in transport on every owner shard."),
	}
}

var _ ecnp.Mapper = (*ShardMapper)(nil)
