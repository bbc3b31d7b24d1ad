package live

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"dfsqos/internal/ecnp"
	"dfsqos/internal/faults"
	"dfsqos/internal/ids"
	"dfsqos/internal/mm"
	"dfsqos/internal/rng"
	"dfsqos/internal/telemetry"
	"dfsqos/internal/trace"
	"dfsqos/internal/transport"
	"dfsqos/internal/wire"
)

// MMServer serves a Metadata Manager over TCP. One goroutine per
// connection; the mapper implementations are internally synchronized.
// mmd serves one of two: the paper's single mm.Manager, or a shard-group
// member (MMShard). MMClient reaches either.
type MMServer struct {
	server
	mgr ecnp.Mapper
}

// NewMMServer starts listening on addr ("127.0.0.1:0" for an ephemeral
// port) and serves mgr until Close.
func NewMMServer(mgr ecnp.Mapper, addr string) (*MMServer, error) {
	s := &MMServer{mgr: mgr}
	if err := s.listen("mm", addr, s.handle); err != nil {
		return nil, err
	}
	return s, nil
}

// beater is the optional liveness surface of a mapper. mm.Manager and
// MMShard implement it; a mapper that does not simply accepts and ignores
// beacons, keeping ecnp.Mapper untouched.
type beater interface {
	Heartbeat(id ids.RMID) error
}

// shardPeer is the optional shard-group surface of a mapper: the local
// member of a replicated MM shard group (MMShard). The shard-plane
// messages — peer beats, mirrored mutations, keyspace handoffs — are
// refused by mappers that are not group members, so a misconfigured peer
// address fails loudly instead of silently corrupting a single MM.
type shardPeer interface {
	PeerBeat(shard int) error
	mm.ShardPeer
}

func (s *MMServer) handle(wc *wire.Conn, msg wire.Msg) error {
	if handled, err := s.handleFault(wc, faults.PointMMHandle, msg.Kind); handled || err != nil {
		return err
	}
	var sp *trace.Span
	if msg.Trace.Valid() {
		// The guard keeps the name concat off the untraced path.
		sp = s.tr().StartChild(msg.Trace, "mm."+msg.Kind.String())
	}
	err := s.dispatch(wc, msg)
	if sp != nil {
		if err != nil {
			sp.SetOutcome("error")
		} else {
			sp.SetOutcome("ok")
		}
		sp.End()
	}
	return err
}

// dispatch serves one request. The codec decodes each kind into its own
// payload type, so the payload picks the call; the kinds sharing FileRef
// and ReplicaRef are told apart by kind.
func (s *MMServer) dispatch(wc *wire.Conn, msg wire.Msg) error {
	switch req := msg.Payload.(type) {
	case wire.RegisterRM:
		return ack(wc, s.mgr.RegisterRM(req.Info, req.Files))
	case wire.FileRef:
		switch msg.Kind {
		case wire.KindLookup:
			return wc.Write(wire.KindRMList, wire.RMList{RMs: s.mgr.Lookup(req.File)})
		case wire.KindRMsWithout:
			return wc.Write(wire.KindRMList, wire.RMList{RMs: s.mgr.RMsWithout(req.File)})
		case wire.KindReplicaCount:
			return wc.Write(wire.KindCount, wire.Count{N: s.mgr.ReplicaCount(req.File)})
		}
	case wire.ReplicaRef:
		switch msg.Kind {
		case wire.KindAddReplica:
			return ack(wc, s.mgr.AddReplica(req.File, req.RM))
		case wire.KindRemoveReplica:
			return ack(wc, s.mgr.RemoveReplica(req.File, req.RM))
		}
	case wire.BeginReplication:
		if err := s.mgr.BeginReplication(req.File, req.RM, req.MaxTotal); err != nil {
			// The mapper's refusal is a bare reason; the served text names
			// the file, RM and cap it was about.
			return wc.WriteError(fmt.Errorf("%w: %v on %v (cap %d)", err, req.File, req.RM, req.MaxTotal))
		}
		return ack(wc, nil)
	case wire.EndReplication:
		if err := s.mgr.EndReplication(req.File, req.RM, req.Commit); err != nil {
			return wc.WriteError(fmt.Errorf("%w: %v on %v", err, req.File, req.RM))
		}
		return ack(wc, nil)
	case wire.Heartbeat:
		if b, ok := s.mgr.(beater); ok {
			return ack(wc, b.Heartbeat(req.RM))
		}
		return ack(wc, nil)
	case wire.ShardBeat, wire.ShardMirror, wire.ShardHandoff:
		peer, member := s.mgr.(shardPeer)
		if !member {
			return wc.WriteError(fmt.Errorf("mm: not a shard-group member"))
		}
		switch req := req.(type) {
		case wire.ShardBeat:
			return ack(wc, peer.PeerBeat(int(req.Shard)))
		case wire.ShardMirror:
			return ack(wc, peer.ApplyMirror(req))
		case wire.ShardHandoff:
			n, err := peer.ApplyHandoff(req)
			if err != nil {
				return wc.WriteError(err)
			}
			return wc.Write(wire.KindCount, wire.Count{N: n})
		}
	}
	if msg.Kind == wire.KindRMs {
		return wc.Write(wire.KindRMInfoList, wire.RMInfoList{Infos: s.mgr.RMs()})
	}
	return wc.WriteError(fmt.Errorf("mm: unexpected message %v", msg.Kind))
}

// ack answers a request with err, or with an Ack when it is nil.
func ack(wc *wire.Conn, err error) error {
	if err != nil {
		return wc.WriteError(err)
	}
	return wc.Write(wire.KindAck, wire.Ack{})
}

// MMClient is the one client of the metadata plane: an ecnp.Mapper over
// the addresses of one MM or of a replicated MM shard group, which it
// routes alike — one MM is a group of one. A file-keyed call goes to the
// file's owners in ring order (mm.Ring, the layout the group's members
// compute too): the primary first and, after a transport failure (a dead
// or silent member), the next owner after a jittered backoff, so a call
// never walks past the owner set. A remote error returns at once: the
// member answered, and its successor would repeat the refusal. RM
// registration and heartbeats fan to every member and succeed while one
// accepts, so a dead member cannot wedge the heartbeat loop; RMs takes the
// first member that answers. Each member's transport pools connections
// with dial and call deadlines, so concurrent calls proceed on
// independent sockets.
type MMClient struct {
	ring    *mm.Ring
	rep     int
	members []*transport.Client // ring-index aligned

	mu      sync.Mutex
	backoff time.Duration
	src     *rng.Source
	met     *MMRouteMetrics
	logf    func(string, ...any)
}

// DialMM connects to one MM server with the default transport tuning.
func DialMM(addr string) (*MMClient, error) {
	return DialMMConfig([]string{addr}, 1, transport.DefaultConfig())
}

// DialMMConfig connects to the metadata plane at addrs — one MM, or every
// member of a shard group in ring-index order — with each file kept on
// rep owners (clamped to [1, len(addrs)]). It succeeds when at least one
// member accepts a connection: a group comes up with a member dead, and a
// plane with none listening fails fast.
func DialMMConfig(addrs []string, rep int, cfg transport.Config) (*MMClient, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("live: dial mm: no address")
	}
	c := &MMClient{
		ring:    mm.NewRing(len(addrs)),
		rep:     min(max(rep, 1), len(addrs)),
		members: make([]*transport.Client, len(addrs)),
		backoff: 25 * time.Millisecond,
		src:     rng.New(1),
		met:     NewMMRouteMetrics(nil),
		logf:    func(string, ...any) {},
	}
	for i, addr := range addrs {
		c.members[i] = transport.NewClient(addr, cfg)
	}
	var err error
	for _, m := range c.members {
		var conn *transport.Conn
		if conn, err = m.Get(context.Background()); err == nil {
			m.Put(conn, nil)
			return c, nil
		}
	}
	c.Close()
	return nil, fmt.Errorf("live: dial mm %s: %w", strings.Join(addrs, ","), err)
}

// SetRetryPolicy tunes the successor-retry backoff base and the jitter
// seed (defaults: 25ms, seed 1). The k-th retry of one call sleeps
// between k·base/2 and k·base.
func (c *MMClient) SetRetryPolicy(backoff time.Duration, seed uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if backoff > 0 {
		c.backoff = backoff
	}
	c.src = rng.New(seed)
}

// SetMetrics routes successor-retry telemetry (default: no-op).
func (c *MMClient) SetMetrics(met *MMRouteMetrics) {
	if met == nil {
		met = NewMMRouteMetrics(nil)
	}
	c.mu.Lock()
	c.met = met
	c.mu.Unlock()
}

// SetLogger routes client-side diagnostics (a member's transport failure,
// a lookup that failed on every owner); the default discards them,
// matching the servers.
func (c *MMClient) SetLogger(logf func(string, ...any)) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	c.mu.Lock()
	c.logf = logf
	c.mu.Unlock()
}

// Close releases every member's pooled connections.
func (c *MMClient) Close() error {
	for _, m := range c.members {
		m.Close()
	}
	return nil
}

func (c *MMClient) metrics() *MMRouteMetrics {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.met
}

func (c *MMClient) log() func(string, ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.logf
}

// retrySleep blocks for the k-th retry's jittered backoff (k ≥ 1).
func (c *MMClient) retrySleep(k int) {
	c.mu.Lock()
	d := time.Duration(k) * c.backoff
	d = d/2 + time.Duration(c.src.Float64()*float64(d/2))
	c.mu.Unlock()
	time.Sleep(d)
}

// callFile routes one file-keyed call across the file's owners: the
// primary first, then each successor after a jittered backoff when the
// previous owner failed in transport.
func (c *MMClient) callFile(ctx context.Context, file ids.FileID, kind wire.Kind, payload any) (wire.Msg, error) {
	var buf [8]int
	owners := c.ring.AppendSuccessorsOfFile(buf[:0], int64(file), c.rep)
	var lastErr error
	for attempt, o := range owners {
		if attempt > 0 {
			c.metrics().Retries.Inc()
			c.retrySleep(attempt)
		}
		reply, err := c.members[o].Call(ctx, kind, payload)
		if err == nil || transport.IsRemote(err) {
			return reply, err
		}
		c.log()("live: mm member %d %v: %v", o, kind, err)
		lastErr = err
	}
	c.metrics().Exhausted.Inc()
	return wire.Msg{}, fmt.Errorf("live: all %d owner(s) of %v failed: %w", len(owners), file, lastErr)
}

// fanAll sends one call to every member and succeeds if at least one
// accepted. A transport failure is tolerated (a dead member reconverges
// through the heal handoff) but remembered; a remote error surfaces at
// once — it is an answer (e.g. "unknown RM, re-register"), not an outage.
func (c *MMClient) fanAll(kind wire.Kind, payload any) error {
	accepted := 0
	var lastErr error
	for i, m := range c.members {
		_, err := m.Call(context.Background(), kind, payload)
		switch {
		case err == nil:
			accepted++
		case transport.IsRemote(err):
			return err
		default:
			c.log()("live: mm member %d %v: %v", i, kind, err)
			lastErr = err
		}
	}
	if accepted == 0 {
		return fmt.Errorf("live: no mm member accepted %v: %w", kind, lastErr)
	}
	return nil
}

// RegisterRM implements ecnp.Mapper: every member gets the full file
// list and keeps the slice it owns.
func (c *MMClient) RegisterRM(info ecnp.RMInfo, files []ids.FileID) error {
	return c.fanAll(wire.KindRegisterRM, wire.RegisterRM{Info: info, Files: files})
}

// Heartbeat beacons an RM's liveness to every reachable member. A remote
// error means a member does not know the RM (e.g. it restarted and lost
// the resource list): the caller must re-register, which also reconciles
// its file list and repopulates that member.
func (c *MMClient) Heartbeat(id ids.RMID) error {
	return c.fanAll(wire.KindHeartbeat, wire.Heartbeat{RM: id})
}

// Lookup implements ecnp.Mapper.
func (c *MMClient) Lookup(file ids.FileID) []ids.RMID {
	return c.LookupContext(context.Background(), file)
}

// LookupContext is Lookup carrying ctx to the MM: its deadline bounds the
// round trip and a span context attached via trace.NewContext rides the
// request frame, so whichever owner answers appears in the caller's
// trace.
func (c *MMClient) LookupContext(ctx context.Context, file ids.FileID) []ids.RMID {
	holders, err := c.LookupErrContext(ctx, file)
	if err != nil {
		c.log()("live: mm lookup: %v", err)
	}
	return holders
}

// LookupErrContext is LookupContext surfacing the failure with the
// transport taxonomy intact (dfsc's error-reporting mapper interface), so
// the client can tell a dead MM from a file with no replicas.
func (c *MMClient) LookupErrContext(ctx context.Context, file ids.FileID) ([]ids.RMID, error) {
	reply, err := c.callFile(ctx, file, wire.KindLookup, wire.FileRef{File: file})
	if err != nil {
		return nil, err
	}
	if l, ok := reply.Payload.(wire.RMList); ok {
		return l.RMs, nil
	}
	return nil, fmt.Errorf("live: mm lookup: unexpected reply %v", reply.Kind)
}

// RMsWithout implements ecnp.Mapper.
func (c *MMClient) RMsWithout(file ids.FileID) []ids.RMID {
	reply, err := c.callFile(context.Background(), file, wire.KindRMsWithout, wire.FileRef{File: file})
	if err != nil {
		c.log()("live: mm rms-without: %v", err)
		return nil
	}
	if l, ok := reply.Payload.(wire.RMList); ok {
		return l.RMs
	}
	return nil
}

// AddReplica implements ecnp.Mapper (the serving owner mirrors onward).
func (c *MMClient) AddReplica(file ids.FileID, rm ids.RMID) error {
	_, err := c.callFile(context.Background(), file, wire.KindAddReplica, wire.ReplicaRef{File: file, RM: rm})
	return err
}

// RemoveReplica implements ecnp.Mapper.
func (c *MMClient) RemoveReplica(file ids.FileID, rm ids.RMID) error {
	_, err := c.callFile(context.Background(), file, wire.KindRemoveReplica, wire.ReplicaRef{File: file, RM: rm})
	return err
}

// BeginReplication implements ecnp.Mapper.
func (c *MMClient) BeginReplication(file ids.FileID, rm ids.RMID, maxTotal int) error {
	_, err := c.callFile(context.Background(), file, wire.KindBeginReplication,
		wire.BeginReplication{File: file, RM: rm, MaxTotal: maxTotal})
	return err
}

// EndReplication implements ecnp.Mapper.
func (c *MMClient) EndReplication(file ids.FileID, rm ids.RMID, commit bool) error {
	_, err := c.callFile(context.Background(), file, wire.KindEndReplication,
		wire.EndReplication{File: file, RM: rm, Commit: commit})
	return err
}

// ReplicaCount implements ecnp.Mapper.
func (c *MMClient) ReplicaCount(file ids.FileID) int {
	reply, err := c.callFile(context.Background(), file, wire.KindReplicaCount, wire.FileRef{File: file})
	if err != nil {
		c.log()("live: mm replica-count: %v", err)
		return 0
	}
	if n, ok := reply.Payload.(wire.Count); ok {
		return n.N
	}
	return 0
}

// RMs implements ecnp.Mapper: the resource list replicates to every
// member, so the first that answers is canonical (index order, skipping
// unreachable members).
func (c *MMClient) RMs() []ecnp.RMInfo {
	for i, m := range c.members {
		reply, err := m.Call(context.Background(), wire.KindRMs, nil)
		if err != nil {
			c.log()("live: mm member %d rms: %v", i, err)
			continue
		}
		if l, ok := reply.Payload.(wire.RMInfoList); ok {
			return l.Infos
		}
	}
	return nil
}

// MMRouteMetrics instruments the client's successor failover: retries
// that moved a call to the next owner, and calls that failed on the whole
// owner set.
type MMRouteMetrics struct {
	// Retries counts file-keyed calls re-sent to a successor owner after a
	// transport failure (dfsqos_shardmap_successor_retries_total).
	Retries *telemetry.Counter
	// Exhausted counts file-keyed calls that failed in transport on every
	// owner, the one MM of a single-MM plane included
	// (dfsqos_shardmap_exhausted_total).
	Exhausted *telemetry.Counter
}

// NewMMRouteMetrics registers the client's metric families on reg (nil
// reg yields a live no-op sink).
func NewMMRouteMetrics(reg *telemetry.Registry) *MMRouteMetrics {
	return &MMRouteMetrics{
		Retries: reg.NewCounter("dfsqos_shardmap_successor_retries_total",
			"File-keyed metadata calls retried on a successor owner shard after a transport failure."),
		Exhausted: reg.NewCounter("dfsqos_shardmap_exhausted_total",
			"File-keyed metadata calls that failed in transport on every owner shard."),
	}
}

var _ ecnp.Mapper = (*MMClient)(nil)
